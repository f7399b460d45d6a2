//! Live incremental ingestion for the Opportunity Map store.
//!
//! The paper's pipeline is batch-offline: "more than 200 GB of data
//! every month", cubes generated "off-line, e.g., in the evening"
//! (Section III-B). This crate turns that nightly rebuild into a
//! continuously-updating store, exploiting the additivity the merge
//! algebra in `om-cube` already proves: `cube(A ∪ B) = cube(A) +
//! cube(B)` for disjoint record batches.
//!
//! Four pieces (see `docs/ingest.md` for the full design):
//!
//! * [`wal`] — a length+CRC-framed, segmented write-ahead log; a row is
//!   durable the moment its append returns.
//! * [`row`] — validation of live rows against the serving schema,
//!   binning numerics through the offline build's cut points.
//! * [`IngestHandle`] — the staging buffer and seal protocol: every
//!   `seal_rows` rows, the WAL rotates and the batch becomes a *sealed
//!   segment*, its rows transposed into an [`om_data::Dataset`].
//! * the compactor — a background thread folding each sealed segment
//!   into the master store ([`om_cube::CubeStore::fold`]) and publishing
//!   immutable generations through
//!   [`om_cube::SharedStore`], so queries never see a torn store.

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
mod ingest;
pub mod row;
pub mod wal;

pub use error::IngestError;
pub use ingest::{IngestConfig, IngestHandle, IngestStats};
pub use row::RowParser;
