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
//!   the shard answers `409` and the coordinator re-pins; this is what
//!   makes mixed-generation merges impossible rather than unlikely.
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
//! These endpoints exist only on engine-backed servers; a coordinator
//! (custom backend) never serves them. They carry no request budget:
//! the coordinator owns end-to-end deadlines via socket timeouts.

use parking_lot::Mutex;
use std::sync::Arc;

use om_api::{
    b64_encode, InternalCountRequest, InternalCountResponse, InternalGenerationResponse,
    InternalLevelRequest, InternalLevelResponse, InternalSchemaResponse, InternalStoreResponse,
};
use om_compare::CompareError;
use om_cube::persist::encode_store;
use om_cube::PopulationSelector;
use om_data::persist::encode_dataset;
use om_engine::fail::{self, Seam};
use om_engine::{IngestHandle, OpportunityMap};

use crate::http::{Request, Response};

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
    match req.path.as_str() {
        "/internal/schema" | "/internal/generation" | "/internal/store" if req.method != "GET" => {
            Response::error(
                405,
                &format!(
                    "method {} not allowed for {} (use GET)",
                    req.method, req.path
                ),
            )
        }
        "/internal/level" | "/internal/count" | "/internal/flush" if req.method != "POST" => {
            Response::error(
                405,
                &format!(
                    "method {} not allowed for {} (use POST)",
                    req.method, req.path
                ),
            )
        }
        "/internal/schema" => schema(om),
        "/internal/generation" => Response::json(
            InternalGenerationResponse {
                generation: om.store_generation(),
            }
            .encode(),
        ),
        "/internal/store" => store(req, om, wire),
        "/internal/level" => level(req, om),
        "/internal/count" => count(req, om),
        "/internal/flush" => flush(om, ingest),
        other => Response::error(404, &format!("no internal route for {other:?}")),
    }
}

fn schema(om: &OpportunityMap) -> Response {
    // A zero-row projection keeps the full schema (attributes, domains,
    // class labels) while shipping no records.
    match om.dataset().take_rows(&[]) {
        Ok(empty) => Response::json(
            InternalSchemaResponse {
                dataset_b64: b64_encode(&encode_dataset(&empty)),
            }
            .encode(),
        ),
        Err(e) => Response::error(500, &format!("schema projection failed: {e}")),
    }
}

fn store(req: &Request, om: &OpportunityMap, wire: &StoreWireCache) -> Response {
    // Chaos seam: delay or fail the shard-side store fetch — the
    // coordinator's hedged fetches and whole-request deadline are
    // exercised against exactly this handler.
    if let Err(e) = fail::inject(Seam::ServerInternalStore) {
        return Response::error(500, &e.to_string());
    }
    let Some(expect) = req.params.get("expect") else {
        return Response::error(400, "missing required parameter \"expect\"");
    };
    let Ok(expect) = expect.parse::<u64>() else {
        return Response::error(400, "parameter \"expect\" must be a non-negative integer");
    };
    let snapshot = om.store();
    if snapshot.generation() != expect {
        return Response::error(
            409,
            &format!(
                "store generation is {}, not the pinned {expect}; re-pin and retry",
                snapshot.generation()
            ),
        );
    }
    if let Some((generation, body)) = wire.encoded.lock().clone() {
        if generation == expect {
            return Response::json((*body).clone());
        }
    }
    // The codec writes the pair cubes a store holds and builds none;
    // force every pair so the coordinator's merged store answers the
    // same pair queries a resident store would (lazily-built shards
    // would otherwise ship holes).
    let attrs = snapshot.attrs().to_vec();
    for (i, &a) in attrs.iter().enumerate() {
        // om-lint: allow(panic-path) — i < attrs.len() by the enumerate bound
        for &b in &attrs[i + 1..] {
            if let Err(e) = snapshot.pair(a, b) {
                return Response::error(500, &format!("pair materialization failed: {e}"));
            }
        }
    }
    let encoded = match encode_store(snapshot.store()) {
        Ok(bytes) => bytes,
        Err(e) => return Response::error(500, &format!("store encode failed: {e}")),
    };
    let body = Arc::new(
        InternalStoreResponse {
            generation: expect,
            store_b64: b64_encode(&encoded),
        }
        .encode(),
    );
    *wire.encoded.lock() = Some((expect, Arc::clone(&body)));
    Response::json((*body).clone())
}

/// Narrow the shard's base partition by resolved conditions, in order —
/// one bitmap AND per condition over the engine's counting kernel, no
/// record copies. The kernel indexes the same base dataset the old
/// record walk read, and [`PopulationSelector::narrow`] raises the same
/// errors `Dataset::sub_population` did, so wire responses (status and
/// message) are unchanged.
fn conditioned(
    om: &OpportunityMap,
    conditions: &[om_api::ConditionWire],
) -> Result<PopulationSelector, Response> {
    let kernel = om
        .kernel()
        .map_err(|e| Response::error(500, &format!("kernel unavailable: {e}")))?;
    let mut current = kernel.selector();
    for c in conditions {
        let attr = usize::try_from(c.attr)
            .map_err(|_| Response::error(400, "condition attr out of range"))?;
        let value = u32::try_from(c.value)
            .map_err(|_| Response::error(400, "condition value out of range"))?;
        current = current
            .narrow(attr, value)
            .map_err(|e| Response::error(422, &format!("condition failed: {e}")))?;
    }
    Ok(current)
}

fn level(req: &Request, om: &OpportunityMap) -> Response {
    let body = match InternalLevelRequest::parse(&req.body) {
        Ok(body) => body,
        Err(e) => return Response::error(400, &e),
    };
    let current = match conditioned(om, &body.conditions) {
        Ok(ds) => ds,
        Err(response) => return response,
    };
    let attrs = match body
        .attrs
        .iter()
        .map(|&a| usize::try_from(a))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(attrs) => attrs,
        Err(_) => return Response::error(400, "level attr out of range"),
    };
    let anchor = match req.params.get("anchor").map(|a| a.parse::<usize>()) {
        None => None,
        Some(Ok(anchor)) if attrs.contains(&anchor) => Some(anchor),
        Some(Ok(anchor)) => {
            return Response::error(
                422,
                &format!("level anchor {anchor} is not one of the level's attrs"),
            )
        }
        Some(Err(_)) => {
            return Response::error(400, "parameter \"anchor\" must be a non-negative integer")
        }
    };
    // One masked scan either way. The codec ships the pairs the scan
    // filled: the anchor's, or — for the root level every anchor shares —
    // all of them.
    let built = match anchor {
        Some(anchor) => current.build_store_anchored(Some(attrs), anchor),
        None => current.build_store_eager(Some(attrs)),
    };
    let store = match built.map_err(CompareError::Cube) {
        Ok(store) => store,
        Err(e) => return Response::error(422, &format!("level store failed: {e}")),
    };
    match encode_store(&store) {
        Ok(bytes) => Response::json(
            InternalLevelResponse {
                store_b64: b64_encode(&bytes),
            }
            .encode(),
        ),
        Err(e) => Response::error(500, &format!("level store encode failed: {e}")),
    }
}

fn count(req: &Request, om: &OpportunityMap) -> Response {
    let body = match InternalCountRequest::parse(&req.body) {
        Ok(body) => body,
        Err(e) => return Response::error(400, &e),
    };
    match conditioned(om, &body.conditions) {
        Ok(current) => Response::json(
            InternalCountResponse {
                count: current.count(),
            }
            .encode(),
        ),
        Err(response) => response,
    }
}

fn flush(om: &OpportunityMap, ingest: Option<&IngestHandle>) -> Response {
    if let Some(handle) = ingest {
        if let Err(e) = handle.flush() {
            return Response::error(500, &format!("flush failed: {e}"));
        }
    }
    // Without ingestion the store never moves; the initial generation is
    // trivially flushed.
    Response::json(
        InternalGenerationResponse {
            generation: om.store_generation(),
        }
        .encode(),
    )
}
