//! # om-api — typed wire contract for the opportunity-map HTTP API
//!
//! The single source of truth for every `/v1` request and response
//! body, shared by the server (om-server) and the HTTP clients
//! (om-cli, benches). Pure std: it holds no engine types, only what
//! actually travels on the wire, so clients don't pull in the cube or
//! comparison machinery.
//!
//! Layout:
//! - [`json`] — a small strict JSON value type ([`json::Json`]) with a
//!   parser, and the escape and float rules of the one writer.
//! - [`error`] — the uniform `/v1` error envelope
//!   `{"error":{"code","message","retry_after_ms"?,"row"?}}` and the
//!   code → HTTP-status mapping.
//! - [`request`] — typed request bodies (`POST /v1/compare`, `/drill`,
//!   `/gi`, `/cube/slice`, `/ingest`, `/compare/batch`).
//! - [`response`] — typed response bodies.
//! - [`rows`] — the `/v1/ingest` body decoded once into a flat table
//!   of labels borrowed from the body ([`LabelRows`]), and the one
//!   writer of an ingest body.
//! - `wire` — the one codec and JSON writer of the whole stack
//!   (server, coordinator, CLI): each wire struct is declared once, with
//!   every field's key and kind, and gets its equality, encoder and
//!   decoder from that declaration.
//! - [`internal`] — shard-internal wire types for cluster mode
//!   (`/internal/*`): base64 carriage of encoded stores and schema
//!   datasets between om-server shards and the om-cluster coordinator.
//!
//! Every type round-trips: `parse(x.encode()) == x` (non-finite floats
//! all encode as `null` and are treated as equal wire values).

// Request-path crate: a panic here is a 500 or a dead worker, so every
// panicking construct is denied outside unit tests. A site that cannot
// fire says why in `#[expect(clippy::indexing_slicing, reason = ...)]`;
// om-lint's tier-1 clippy test enforces both (docs/lint.md).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::string_slice
    )
)]

pub mod error;
pub mod internal;
pub mod json;
pub mod request;
pub mod response;
pub mod rows;

mod wire;

pub use error::{ErrorCode, ErrorEnvelope};
pub use internal::{
    b64_decode, b64_encode, ConditionWire, InternalCountRequest, InternalCountResponse,
    InternalGenerationResponse, InternalLevelRequest, InternalLevelResponse,
    InternalSchemaResponse, InternalStoreResponse,
};
pub use json::{Json, JsonError};
pub use request::{
    BatchItemRequest, BatchRequest, CompareRequest, DrillRequest, ExploreCompareBlock,
    ExploreRequest, GiRequest, IngestRequest, PathStep, SliceRequest,
};
pub use response::{
    AttrScoreWire, BatchItemResult, BatchResponse, CompareResponse, CoverageWire, DrillLevelWire,
    DrillResponse, ExceptionWire, ExploreCompareWire, ExploreCondWire, ExploreResponse,
    ExploreSummaryWire, GiResponse, InfluenceWire, IngestResponse, PairCellWire, PairDimWire,
    SliceResponse, SliceValueWire, TrendWire, ValueContributionWire,
};
pub use rows::{encode_rows, LabelRows};
