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

// Request-path crate: panics here become 500s or worker deaths, so
// unwrap/expect are lint-visible outside unit tests (om-lint's
// panic-path check enforces the same rule with suppression reasons).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod config;
pub mod pool;
pub mod rank;

pub use batch::{run_batch, BatchItem, BatchOutcome, DrillSource, DrillWalk};
pub use config::ExecConfig;
pub use pool::Executor;
pub use rank::{gather_in_order, rank_parallel, StoreRef};
