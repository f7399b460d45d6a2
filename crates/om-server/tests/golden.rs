//! Golden-file wire tests: every `/v1` response shape is
//! pinned byte-for-byte against files under `tests/golden/`.
//!
//! Regenerate after an intentional wire change with
//! `OM_UPDATE_GOLDEN=1 cargo test -p om-server --test golden`.
//! A diff in these files in review *is* the API change.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use om_engine::{Budget, EngineConfig, OpportunityMap};
use om_server::http::{Request, Response};
use om_server::ops::EngineBackend;
use om_server::router::{self, RouteOptions};
use om_synth::paper_scenario;

fn engine() -> &'static OpportunityMap {
    static OM: OnceLock<OpportunityMap> = OnceLock::new();
    OM.get_or_init(|| {
        let (ds, _) = paper_scenario(20_000, 33);
        OpportunityMap::build(ds, EngineConfig::default()).unwrap()
    })
}

fn post(path: &str, body: &str) -> Response {
    post_with(path, body, &RouteOptions::default())
}

fn post_with(path: &str, body: &str, opts: &RouteOptions) -> Response {
    let req = Request {
        method: "POST".into(),
        path: path.into(),
        params: BTreeMap::new(),
        body: body.to_owned(),
    };
    route(&req, opts)
}

fn route(req: &Request, opts: &RouteOptions) -> Response {
    let ops = EngineBackend {
        om: engine(),
        ingest: None,
    };
    router::route(req, &ops, opts, || "metrics\n".to_owned())
}

/// Compare `actual` against `tests/golden/<name>`, or rewrite the file
/// when `OM_UPDATE_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("OM_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden file {name}; regenerate with OM_UPDATE_GOLDEN=1")
    });
    assert_eq!(
        actual, expected,
        "wire shape drifted from tests/golden/{name}; \
         if intentional, regenerate with OM_UPDATE_GOLDEN=1"
    );
}

const V1_COMPARE_BODY: &str = r#"{"attr":"PhoneModel","v1":"ph1","v2":"ph2","class":"dropped"}"#;

#[test]
fn v1_compare_shape() {
    let v1 = post("/v1/compare", V1_COMPARE_BODY);
    assert_eq!(v1.status, 200);
    check_golden("v1_compare.json", &v1.body);
    let parsed = om_api::CompareResponse::parse(&v1.body).unwrap();
    assert_eq!(
        parsed.encode(),
        v1.body,
        "om-api round-trip must be lossless"
    );
}

#[test]
fn v1_drill_shape() {
    let v1 = post(
        "/v1/drill",
        r#"{"attr":"PhoneModel","v1":"ph1","v2":"ph2","class":"dropped","depth":1}"#,
    );
    assert_eq!(v1.status, 200);
    check_golden("v1_drill.json", &v1.body);
    let parsed = om_api::DrillResponse::parse(&v1.body).unwrap();
    assert_eq!(parsed.encode(), v1.body);
}

#[test]
fn v1_drill_with_fixed_path() {
    let v1 = post(
        "/v1/drill",
        r#"{"attr":"PhoneModel","v1":"ph1","v2":"ph2","class":"dropped","path":[{"attr":"TimeOfCall","value":"evening"}]}"#,
    );
    assert_eq!(v1.status, 200, "{}", v1.body);
    check_golden("v1_drill_path.json", &v1.body);
    let parsed = om_api::DrillResponse::parse(&v1.body).unwrap();
    assert_eq!(parsed.levels.len(), 2, "root + one pinned condition");
    assert_eq!(
        parsed.levels[1].conditions,
        vec!["TimeOfCall=evening".to_owned()]
    );
    assert_eq!(parsed.encode(), v1.body);
}

#[test]
fn v1_gi_shape() {
    let v1 = post("/v1/gi", r#"{"top":3}"#);
    assert_eq!(v1.status, 200);
    check_golden("v1_gi.json", &v1.body);
    let parsed = om_api::GiResponse::parse(&v1.body).unwrap();
    assert_eq!(parsed.encode(), v1.body);
}

#[test]
fn v1_slice_shapes() {
    let one = post("/v1/cube/slice", r#"{"attr":"PhoneModel"}"#);
    assert_eq!(one.status, 200);
    check_golden("v1_slice_one_dim.json", &one.body);
    assert_eq!(
        om_api::SliceResponse::parse(&one.body).unwrap().encode(),
        one.body
    );

    let pair = post(
        "/v1/cube/slice",
        r#"{"attr":"PhoneModel","by":"TimeOfCall"}"#,
    );
    assert_eq!(pair.status, 200);
    check_golden("v1_slice_pair.json", &pair.body);
    assert_eq!(
        om_api::SliceResponse::parse(&pair.body).unwrap().encode(),
        pair.body
    );
}

#[test]
fn v1_batch_shape() {
    let body = r#"{"items":[{"kind":"compare","attr":"PhoneModel","v1":"ph1","v2":"ph2","class":"dropped"},{"kind":"drill","attr":"PhoneModel","v1":"ph1","v2":"ph2","class":"dropped","path":[{"attr":"TimeOfCall","value":"evening"}]},{"kind":"compare","attr":"Bogus","v1":"a","v2":"b","class":"dropped"}]}"#;
    let r = post("/v1/compare/batch", body);
    assert_eq!(r.status, 200, "{}", r.body);
    check_golden("v1_batch.json", &r.body);

    let parsed = om_api::BatchResponse::parse(&r.body).unwrap();
    assert_eq!(parsed.items.len(), 3);
    assert_eq!(parsed.encode(), r.body);
    // Item results line up with their single-endpoint twins.
    let om_api::BatchItemResult::Compare(c) = &parsed.items[0] else {
        panic!("item 1 should be a comparison")
    };
    assert_eq!(c.encode(), post("/v1/compare", V1_COMPARE_BODY).body);
    assert!(matches!(
        &parsed.items[1],
        om_api::BatchItemResult::Drill(_)
    ));
    let om_api::BatchItemResult::Error(e) = &parsed.items[2] else {
        panic!("item 3 should carry an error envelope")
    };
    assert_eq!(e.code, om_api::ErrorCode::UnknownName);
}

#[test]
fn v1_explore_shape() {
    let r = post("/v1/explore", r#"{"k":5}"#);
    assert_eq!(r.status, 200, "{}", r.body);
    check_golden("v1_explore.json", &r.body);
    let parsed = om_api::ExploreResponse::parse(&r.body).unwrap();
    // Greedy stops as soon as no candidate adds marginal coverage, so
    // the answer may saturate below k — but never exceed it.
    assert!((1..=5).contains(&parsed.summaries.len()), "{}", r.body);
    assert!(!parsed.truncated);
    assert!(parsed.compare.is_none());
    assert_eq!(
        parsed.encode(),
        r.body,
        "om-api round-trip must be lossless"
    );
}

#[test]
fn v1_explore_sliced_shape() {
    let r = post(
        "/v1/explore",
        r#"{"slice":[{"attr":"PhoneModel","value":"ph1"}],"k":3}"#,
    );
    assert_eq!(r.status, 200, "{}", r.body);
    check_golden("v1_explore_sliced.json", &r.body);
    let parsed = om_api::ExploreResponse::parse(&r.body).unwrap();
    assert!((1..=3).contains(&parsed.summaries.len()), "{}", r.body);
    assert!(
        parsed
            .summaries
            .iter()
            .all(|s| s.conditions.iter().all(|c| c.attr != "PhoneModel")),
        "sliced attribute must not reappear in summaries"
    );
    assert_eq!(parsed.encode(), r.body);
}

#[test]
fn v1_explore_compare_shape() {
    let r = post(
        "/v1/explore",
        r#"{"k":6,"compare":{"attr":"PhoneModel","v1":"ph1","v2":"ph2","class":"dropped"}}"#,
    );
    assert_eq!(r.status, 200, "{}", r.body);
    check_golden("v1_explore_compare.json", &r.body);
    let parsed = om_api::ExploreResponse::parse(&r.body).unwrap();
    assert!((1..=6).contains(&parsed.summaries.len()), "{}", r.body);
    let compare = parsed.compare.as_ref().expect("compare metadata present");
    assert_eq!(compare.attribute, "PhoneModel");
    assert!(parsed
        .summaries
        .iter()
        .all(|s| s.side.is_some() && s.mass.is_some()));
    assert_eq!(parsed.encode(), r.body);
}

#[test]
fn v1_explore_error_envelopes() {
    let unknown = post(
        "/v1/explore",
        r#"{"k":3,"slice":[{"attr":"Bogus","value":"x"}]}"#,
    );
    assert_eq!(unknown.status, 404, "{}", unknown.body);
    check_golden("v1_explore_error_unknown.json", &unknown.body);

    let invalid = post("/v1/explore", r#"{"k":0}"#);
    assert_eq!(invalid.status, 422, "{}", invalid.body);
    check_golden("v1_explore_error_invalid.json", &invalid.body);

    let spent = RouteOptions {
        budget: Budget::with_timeout(std::time::Duration::ZERO),
        retry_after_secs: 2,
        ..RouteOptions::default()
    };
    let overloaded = post_with("/v1/explore", r#"{"k":3}"#, &spent);
    assert_eq!(overloaded.status, 503, "{}", overloaded.body);
    assert_eq!(overloaded.retry_after, Some(2));
    check_golden("v1_explore_error_overloaded.json", &overloaded.body);

    for body in [&unknown.body, &invalid.body, &overloaded.body] {
        let env = om_api::ErrorEnvelope::parse(body).unwrap();
        assert_eq!(env.encode(), *body);
    }
}

/// Label fields of dataset row 0 — always a valid ingest row.
fn row_fields_of(om: &OpportunityMap) -> Vec<String> {
    let ds = om.dataset();
    (0..ds.schema().n_attributes())
        .map(|i| {
            let id = ds.column(i).as_categorical().expect("discretized")[0];
            ds.schema()
                .attribute(i)
                .domain()
                .label(id)
                .unwrap()
                .to_owned()
        })
        .collect()
}

#[test]
fn v1_ingest_roundtrip() {
    use om_engine::IngestConfig;
    // A private engine: ingesting into the shared static one would shift
    // the ground under the byte-identity tests.
    let (ds, _) = paper_scenario(5_000, 7);
    let om = OpportunityMap::build(ds, EngineConfig::default()).unwrap();
    let dir = std::env::temp_dir().join(format!("om-golden-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = om
        .start_ingest(&IngestConfig {
            sync_writes: false,
            ..IngestConfig::new(&dir)
        })
        .unwrap();
    let opts = RouteOptions::default();
    let post = |body: &str, opts: &RouteOptions| {
        let req = Request {
            method: "POST".into(),
            path: "/v1/ingest".into(),
            params: BTreeMap::new(),
            body: body.to_owned(),
        };
        let ops = EngineBackend {
            om: &om,
            ingest: Some(&handle),
        };
        router::route(&req, &ops, opts, || "metrics\n".to_owned())
    };

    let row = row_fields_of(&om);
    let ok = post(
        &om_api::IngestRequest {
            rows: vec![row.clone(), row.clone()],
        }
        .encode(),
        &opts,
    );
    assert_eq!(ok.status, 200, "{}", ok.body);
    // The success body carries the async merge generation, so it is
    // validated structurally rather than byte-goldened.
    let parsed = om_api::IngestResponse::parse(&ok.body).unwrap();
    assert_eq!(parsed.accepted, 2);
    assert_eq!(parsed.rows_total, 2);

    let bad = post(
        &om_api::IngestRequest {
            rows: vec![row.clone(), vec!["not".into(), "enough".into()]],
        }
        .encode(),
        &opts,
    );
    assert_eq!(bad.status, 400, "{}", bad.body);
    check_golden("v1_error_bad_row.json", &bad.body);
    let env = om_api::ErrorEnvelope::parse(&bad.body).unwrap();
    assert_eq!(env.code, om_api::ErrorCode::BadRow);
    assert_eq!(env.row, Some(2), "envelope names the offending row");
    assert_eq!(handle.stats().rows_total, 2, "bad batch committed nothing");

    let spent = RouteOptions {
        budget: Budget::with_timeout(std::time::Duration::ZERO),
        retry_after_secs: 3,
        ..RouteOptions::default()
    };
    let shed = post(&om_api::IngestRequest { rows: vec![row] }.encode(), &spent);
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert_eq!(shed.retry_after, Some(3));
    assert_eq!(
        om_api::ErrorEnvelope::parse(&shed.body)
            .unwrap()
            .retry_after_ms,
        Some(3000)
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v1_error_envelopes() {
    let unknown = post(
        "/v1/compare",
        r#"{"attr":"Bogus","v1":"a","v2":"b","class":"dropped"}"#,
    );
    assert_eq!(unknown.status, 404);
    check_golden("v1_error_unknown.json", &unknown.body);

    let bad = post("/v1/compare", "not json");
    assert_eq!(bad.status, 400);
    check_golden("v1_error_bad_request.json", &bad.body);

    let missing = post("/v1/nope", "{}");
    assert_eq!(missing.status, 404);
    check_golden("v1_error_not_found.json", &missing.body);

    let wrong_method = route(
        &Request {
            method: "GET".into(),
            path: "/v1/compare".into(),
            params: BTreeMap::new(),
            body: String::new(),
        },
        &RouteOptions::default(),
    );
    assert_eq!(wrong_method.status, 405);
    check_golden("v1_error_method.json", &wrong_method.body);

    let no_ingest = post("/v1/ingest", r#"{"rows":[]}"#);
    assert_eq!(no_ingest.status, 404);
    check_golden("v1_error_no_ingest.json", &no_ingest.body);

    let spent = RouteOptions {
        budget: Budget::with_timeout(std::time::Duration::ZERO),
        retry_after_secs: 1,
        ..RouteOptions::default()
    };
    let overloaded = post_with("/v1/compare", V1_COMPARE_BODY, &spent);
    assert_eq!(overloaded.status, 503);
    assert_eq!(overloaded.retry_after, Some(1));
    check_golden("v1_error_overloaded.json", &overloaded.body);

    // Every envelope decodes through the shared om-api type.
    for body in [
        &unknown.body,
        &bad.body,
        &missing.body,
        &wrong_method.body,
        &no_ingest.body,
        &overloaded.body,
    ] {
        let env = om_api::ErrorEnvelope::parse(body).unwrap();
        assert_eq!(env.encode(), *body);
    }
    assert_eq!(
        om_api::ErrorEnvelope::parse(&overloaded.body)
            .unwrap()
            .retry_after_ms,
        Some(1000)
    );
}
