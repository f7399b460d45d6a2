//! Shard-internal endpoints for cluster mode (`/internal/*`).
//!
//! When an om-server runs as a shard of an om-cluster deployment, the
//! coordinator drives it through these endpoints rather than `/v1`:
//!
//! * `GET /internal/schema` — the shard's schema as an encoded zero-row
//!   dataset, so the coordinator resolves names, displays conditions
//!   and validates sub-populations with the exact engine code paths.
//! * `GET /internal/generation` — the published store generation.
//! * `GET /internal/store?expect=G` — the full cube store at generation
//!   `G`, base64 in JSON. If the published generation is no longer `G`
//!   the shard answers `409` (`stale_generation`) and the coordinator
//!   re-pins; this is what makes mixed-generation merges impossible
//!   rather than unlikely.
//! * `POST /internal/level[?anchor=A]` — a drill-level store over the
//!   shard's *base* partition narrowed by resolved conditions (drill
//!   levels read the immutable base dataset on a single node too, which
//!   is why these are generation-free). `anchor` is the level's cube
//!   demand: with it the reply holds every 1-D cube plus the pair cubes
//!   of schema attribute `A` — what a comparison on `A` reads, and what
//!   a single node's drill level scans — without it, every pair.
//! * `POST /internal/count` — conditioned base-partition row count,
//!   the coordinator's sub-population emptiness probe.
//! * `POST /internal/flush` — quiesce live ingestion (seal + merge
//!   barrier) and report the resulting generation, so a coordinator
//!   can force read-your-writes before a verification pass.
//!
//! Every failure is an [`ErrorEnvelope`], as on `/v1`, so the
//! coordinator reads a code rather than a status number and a string.
//! These endpoints exist only on engine-backed servers; a coordinator
//! (custom backend) never serves them. They carry no request budget:
//! the coordinator owns end-to-end deadlines via socket timeouts.

use parking_lot::Mutex;
use std::fmt::Display;
use std::sync::Arc;

use om_api::ErrorCode::{Internal, Invalid, NotFound};
use om_api::{
    b64_encode, ErrorCode, ErrorEnvelope, InternalCountRequest, InternalCountResponse,
    InternalGenerationResponse, InternalLevelRequest, InternalLevelResponse,
    InternalSchemaResponse, InternalStoreResponse,
};
use om_compare::CompareError;
use om_cube::persist::encode_store;
use om_cube::PopulationSelector;
use om_data::persist::encode_dataset;
use om_engine::fail::{self, Seam};
use om_engine::{IngestHandle, OpportunityMap};

use crate::http::{Request, Response};
use crate::router::{bad_request, wrong_method};

/// Per-server cache of the encoded-store wire body: encoding a full
/// store is the one expensive internal operation, and every coordinator
/// fetch at an unchanged generation must not pay it again.
#[derive(Default)]
pub(crate) struct StoreWireCache {
    encoded: Mutex<Option<(u64, Arc<String>)>>,
}

/// Dispatch one `/internal/*` request.
pub(crate) fn route_internal(
    req: &Request,
    om: &OpportunityMap,
    ingest: Option<&IngestHandle>,
    wire: &StoreWireCache,
) -> Response {
    let outcome = match req.path.as_str() {
        "/internal/schema" | "/internal/generation" | "/internal/store" if req.method != "GET" => {
            Err(wrong_method(req, "GET"))
        }
        "/internal/level" | "/internal/count" | "/internal/flush" if req.method != "POST" => {
            Err(wrong_method(req, "POST"))
        }
        "/internal/schema" => schema(om),
        "/internal/generation" => Ok(generation(om)),
        "/internal/store" => store(req, om, wire),
        "/internal/level" => level(req, om),
        "/internal/count" => count(req, om),
        "/internal/flush" => flush(om, ingest),
        other => Err(ErrorEnvelope::new(
            NotFound,
            format!("no internal route for {other:?}"),
        )),
    };
    outcome.unwrap_or_else(Response::from)
}

/// `code` with `"{context}: {e}"` as its message, for `map_err`.
fn failed<E: Display>(code: ErrorCode, context: &str) -> impl FnOnce(E) -> ErrorEnvelope + '_ {
    move |e| ErrorEnvelope::new(code, format!("{context}: {e}"))
}

fn generation(om: &OpportunityMap) -> Response {
    Response::json(
        InternalGenerationResponse {
            generation: om.store_generation(),
        }
        .encode(),
    )
}

fn schema(om: &OpportunityMap) -> Result<Response, ErrorEnvelope> {
    // A zero-row projection keeps the full schema (attributes, domains,
    // class labels) while shipping no records.
    let empty = om
        .dataset()
        .take_rows(&[])
        .map_err(failed(Internal, "schema projection failed"))?;
    Ok(Response::json(
        InternalSchemaResponse {
            dataset_b64: b64_encode(&encode_dataset(&empty)),
        }
        .encode(),
    ))
}

fn store(
    req: &Request,
    om: &OpportunityMap,
    wire: &StoreWireCache,
) -> Result<Response, ErrorEnvelope> {
    // Chaos seam: delay or fail the shard-side store fetch — the
    // coordinator's hedged fetches and whole-request deadline are
    // exercised against exactly this handler.
    fail::inject(Seam::ServerInternalStore)
        .map_err(|e| ErrorEnvelope::new(Internal, e.to_string()))?;
    let expect = req
        .params
        .get("expect")
        .ok_or_else(|| bad_request("missing required parameter \"expect\""))?
        .parse::<u64>()
        .map_err(|_| bad_request("parameter \"expect\" must be a non-negative integer"))?;
    let snapshot = om.store();
    if snapshot.generation() != expect {
        return Err(ErrorEnvelope::new(
            ErrorCode::StaleGeneration,
            format!(
                "store generation is {}, not the pinned {expect}; re-pin and retry",
                snapshot.generation()
            ),
        ));
    }
    if let Some((generation, body)) = wire.encoded.lock().clone() {
        if generation == expect {
            return Ok(Response::json((*body).clone()));
        }
    }
    let encoded =
        encode_store(snapshot.store()).map_err(failed(Internal, "store encode failed"))?;
    let body = Arc::new(
        InternalStoreResponse {
            generation: expect,
            store_b64: b64_encode(&encoded),
        }
        .encode(),
    );
    *wire.encoded.lock() = Some((expect, Arc::clone(&body)));
    Ok(Response::json((*body).clone()))
}

/// Narrow the shard's base partition by resolved conditions, in order —
/// one pass over the condition's column per condition, through the
/// engine's counting kernel, no record copies. The kernel indexes the same base dataset the old
/// record walk read, and [`PopulationSelector::narrow`] raises the same
/// errors `Dataset::sub_population` did, so wire responses (status and
/// message) are unchanged.
fn conditioned(
    om: &OpportunityMap,
    conditions: &[om_api::ConditionWire],
) -> Result<PopulationSelector, ErrorEnvelope> {
    let kernel = om
        .kernel()
        .map_err(failed(Internal, "kernel unavailable"))?;
    let mut current = kernel.selector();
    for c in conditions {
        let attr =
            usize::try_from(c.attr).map_err(|_| bad_request("condition attr out of range"))?;
        let value =
            u32::try_from(c.value).map_err(|_| bad_request("condition value out of range"))?;
        current = current
            .narrow(attr, value)
            .map_err(failed(Invalid, "condition failed"))?;
    }
    Ok(current)
}

fn level(req: &Request, om: &OpportunityMap) -> Result<Response, ErrorEnvelope> {
    let body = InternalLevelRequest::parse(&req.body).map_err(bad_request)?;
    let current = conditioned(om, &body.conditions)?;
    let attrs = body
        .attrs
        .iter()
        .map(|&a| usize::try_from(a))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| bad_request("level attr out of range"))?;
    let anchor = match req.params.get("anchor").map(|a| a.parse::<usize>()) {
        None => None,
        Some(Ok(anchor)) if attrs.contains(&anchor) => Some(anchor),
        Some(Ok(anchor)) => {
            return Err(ErrorEnvelope::new(
                Invalid,
                format!("level anchor {anchor} is not one of the level's attrs"),
            ))
        }
        Some(Err(_)) => {
            return Err(bad_request(
                "parameter \"anchor\" must be a non-negative integer",
            ))
        }
    };
    // One masked scan either way. The codec ships the pairs the scan
    // filled: the anchor's, or — for the root level every anchor shares —
    // all of them.
    let built = match anchor {
        Some(anchor) => current.build_store_anchored(Some(attrs), anchor),
        None => current.build_store_eager(Some(attrs)),
    };
    let store = built
        .map_err(CompareError::Cube)
        .map_err(failed(Invalid, "level store failed"))?;
    let bytes = encode_store(&store).map_err(failed(Internal, "level store encode failed"))?;
    Ok(Response::json(
        InternalLevelResponse {
            store_b64: b64_encode(&bytes),
        }
        .encode(),
    ))
}

fn count(req: &Request, om: &OpportunityMap) -> Result<Response, ErrorEnvelope> {
    let body = InternalCountRequest::parse(&req.body).map_err(bad_request)?;
    let current = conditioned(om, &body.conditions)?;
    Ok(Response::json(
        InternalCountResponse {
            count: current.count(),
        }
        .encode(),
    ))
}

fn flush(om: &OpportunityMap, ingest: Option<&IngestHandle>) -> Result<Response, ErrorEnvelope> {
    if let Some(handle) = ingest {
        handle.flush().map_err(failed(Internal, "flush failed"))?;
    }
    // Without ingestion the store never moves; the initial generation is
    // trivially flushed.
    Ok(generation(om))
}
