//! Parallel execution layer for the comparator's hot path.
//!
//! The paper's Fig. 9 shows comparison time scaling linearly in the
//! number of attributes — each attribute's `M_i` is an independent read
//! of two rule-cube slices, which makes the loop embarrassingly
//! parallel. This crate supplies the machinery the engine routes through:
//!
//! * [`pool`] — a persistent worker pool (the om-server pool idiom:
//!   threads blocking on a crossbeam channel), shared by every request
//!   so parallel ranking never pays thread-spawn latency;
//! * [`rank`] — sharded ranking: the candidate-attribute set is split
//!   into contiguous shards, each scored against one pinned store, and
//!   the per-shard score vectors are concatenated back into store order
//!   before the canonical sort. Serial and parallel execution share the
//!   `normalize → score_candidate → assemble` stages of om-compare, so
//!   output is **byte-identical to serial by construction**;
//! * [`batch`] — shared-scan comparison batches (the COMPARE /
//!   smart-drill-down shape: one parent population, many children): items
//!   sharing a base population gather sub-population slices once per
//!   cube pass, and drill items sharing a condition-path prefix reuse
//!   both the conditioned records and the per-level comparison, with
//!   per-item budget propagation and partial results on deadline.

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

pub mod batch;
pub mod config;
pub mod pool;
pub mod rank;

pub use batch::{run_batch, BatchItem, BatchOutcome, DrillSource, DrillWalk};
pub use config::ExecConfig;
pub use pool::Executor;
pub use rank::{gather_in_order, rank_parallel, StoreRef};
