//! Request routing: decoded requests in, responses out.
//!
//! The router is a pure function of (request, backend) — no I/O, no
//! shared mutable state — which makes the whole path trivially testable
//! without sockets.

use om_api::{ErrorCode, ErrorEnvelope};
use om_engine::Budget;

use crate::http::{Request, Response};
use crate::ops::EngineOps;

/// Per-request routing context: the cooperative budget the engine runs
/// under, and what to tell shed/expired clients via `Retry-After`.
#[derive(Debug, Clone)]
pub struct RouteOptions {
    /// Deadline + cancellation for engine work on this request.
    pub budget: Budget,
    /// Seconds clients should wait before retrying after a `503`.
    pub retry_after_secs: u64,
    /// The server's counters, when handlers should record work-shaped
    /// metrics (exploration steps, truncations) that only they can see.
    /// `None` in embedded/test routing — recording is best-effort.
    pub metrics: Option<std::sync::Arc<crate::metrics::Metrics>>,
}

impl Default for RouteOptions {
    fn default() -> Self {
        Self {
            budget: Budget::unlimited(),
            retry_after_secs: 1,
            metrics: None,
        }
    }
}

/// Route one parsed request under `opts`' budget against `ops` — the
/// resident engine ([`crate::ops::EngineBackend`]) or a cluster
/// coordinator: health, metrics and the versioned `/v1` API; anything
/// else is a `404`. `metrics_body` renders the `/metrics` text (the
/// caller owns the counters).
#[must_use]
pub fn route(
    req: &Request,
    ops: &dyn EngineOps,
    opts: &RouteOptions,
    metrics_body: impl FnOnce() -> String,
) -> Response {
    if req.path.starts_with("/v1/") {
        return crate::v1::route_v1(req, ops, opts);
    }
    match req.path.as_str() {
        "/healthz" | "/metrics" if req.method != "GET" => wrong_method(req, "GET").into(),
        "/healthz" => Response::text("ok\n"),
        "/metrics" => Response::text(metrics_body()),
        other => ErrorEnvelope::new(ErrorCode::NotFound, format!("no route for {other:?}")).into(),
    }
}

/// A `bad_request` envelope: a body or parameter that does not decode.
pub(crate) fn bad_request(message: impl Into<String>) -> ErrorEnvelope {
    ErrorEnvelope::new(ErrorCode::BadRequest, message)
}

/// The `405` envelope for `req` on a route that takes only `allowed`.
pub(crate) fn wrong_method(req: &Request, allowed: &str) -> ErrorEnvelope {
    ErrorEnvelope::new(
        ErrorCode::MethodNotAllowed,
        format!(
            "method {} not allowed for {} (use {allowed})",
            req.method, req.path
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::EngineBackend;
    use om_engine::{EngineConfig, OpportunityMap};
    use om_synth::paper_scenario;
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

    fn engine() -> &'static OpportunityMap {
        static OM: OnceLock<OpportunityMap> = OnceLock::new();
        OM.get_or_init(|| {
            let (ds, _) = paper_scenario(20_000, 33);
            OpportunityMap::build(ds, EngineConfig::default()).unwrap()
        })
    }

    fn send(method: &str, path: &str, body: &str, opts: &RouteOptions) -> Response {
        let req = Request {
            method: method.into(),
            path: path.into(),
            params: BTreeMap::new(),
            body: body.into(),
        };
        let ops = EngineBackend {
            om: engine(),
            ingest: None,
        };
        route(&req, &ops, opts, || "metrics\n".to_owned())
    }

    fn get(path: &str) -> Response {
        send("GET", path, "", &RouteOptions::default())
    }

    fn post(path: &str, body: &str) -> Response {
        send("POST", path, body, &RouteOptions::default())
    }

    const COMPARE: &str = r#"{"attr":"PhoneModel","v1":"ph1","v2":"ph2","class":"dropped"}"#;

    #[test]
    fn healthz_and_metrics() {
        assert_eq!(get("/healthz").body, "ok\n");
        assert_eq!(get("/metrics").body, "metrics\n");
    }

    #[test]
    fn compare_matches_direct_engine_call() {
        let response = post("/v1/compare", COMPARE);
        assert_eq!(response.status, 200);
        let om = engine();
        let direct = om
            .run_compare_by_name("PhoneModel", "ph1", "ph2", "dropped", om.exec_ctx(None))
            .unwrap();
        assert_eq!(response.body, crate::v1::compare_wire(&direct).encode());
    }

    #[test]
    fn malformed_bodies_are_400_and_unknown_names_404() {
        let r = post("/v1/compare", r#"{"attr":"PhoneModel"}"#);
        assert_eq!(r.status, 400);
        assert!(r.body.contains("v1"), "{}", r.body);
        assert_eq!(post("/v1/gi", r#"{"top":"lots"}"#).status, 400);
        let r = post(
            "/v1/compare",
            r#"{"attr":"Bogus","v1":"a","v2":"b","class":"dropped"}"#,
        );
        assert_eq!(r.status, 404);
    }

    #[test]
    fn drill_returns_levels() {
        let r = post(
            "/v1/drill",
            r#"{"attr":"PhoneModel","v1":"ph1","v2":"ph2","class":"dropped","depth":1}"#,
        );
        assert_eq!(r.status, 200);
        assert!(r.body.starts_with("{\"levels\":["));
        assert!(r.body.contains("\"conditions\":[]"));
    }

    #[test]
    fn gi_sections_present() {
        let r = post("/v1/gi", r#"{"top":3}"#);
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"trends\":["));
        assert!(r.body.contains("\"exceptions\":["));
        assert!(r.body.contains("\"influence\":["));
    }

    #[test]
    fn cube_slices() {
        let r = post("/v1/cube/slice", r#"{"attr":"PhoneModel"}"#);
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"attr\":\"PhoneModel\""));
        assert!(r.body.contains("\"label\":\"ph1\""));
        assert!(r.body.contains("\"confidences\":["));

        let r = post(
            "/v1/cube/slice",
            r#"{"attr":"PhoneModel","by":"TimeOfCall"}"#,
        );
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"dims\":["));
        assert!(r.body.contains("\"cells\":["));

        let r = post(
            "/v1/cube/slice",
            r#"{"attr":"PhoneModel","by":"PhoneModel"}"#,
        );
        assert_eq!(r.status, 404, "store rejects the self-pair: {}", r.body);
    }

    #[test]
    fn unknown_route_is_404() {
        assert_eq!(get("/nope").status, 404);
        // The retired pre-/v1 surface is as unknown as any other path.
        for path in ["/compare", "/drill", "/gi", "/cube/slice"] {
            assert_eq!(get(path).status, 404, "{path}");
        }
        assert_eq!(post("/ingest", "a,b\n").status, 404);
    }

    #[test]
    fn wrong_methods_are_405() {
        assert_eq!(post("/healthz", "").status, 405);
        let r = get("/v1/ingest");
        assert_eq!(r.status, 405);
        assert!(r.body.contains("POST"));
    }

    #[test]
    fn ingest_without_handle_is_404() {
        let r = post("/v1/ingest", r#"{"rows":[]}"#);
        assert_eq!(r.status, 404);
        assert!(r.body.contains("not enabled"));
    }

    #[test]
    fn expired_budget_is_503_with_retry_after() {
        let opts = RouteOptions {
            budget: Budget::with_timeout(std::time::Duration::ZERO),
            retry_after_secs: 7,
            ..RouteOptions::default()
        };
        for (path, body) in [("/v1/compare", COMPARE), ("/v1/gi", "{}")] {
            let r = send("POST", path, body, &opts);
            assert_eq!(r.status, 503, "{path}: {}", r.body);
            assert_eq!(r.retry_after, Some(7), "{path}");
            assert!(r.body.contains("deadline exceeded"), "{path}: {}", r.body);
        }
        // Cheap routes need no engine budget; cube slices read
        // precomputed counts.
        assert_eq!(send("GET", "/healthz", "", &opts).status, 200);
        assert_eq!(send("GET", "/metrics", "", &opts).status, 200);
        let r = send("POST", "/v1/cube/slice", r#"{"attr":"PhoneModel"}"#, &opts);
        assert_eq!(r.status, 200);
    }
}
