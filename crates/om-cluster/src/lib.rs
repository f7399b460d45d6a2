//! Sharded scale-out for the Opportunity Map engine.
//!
//! A cluster is N om-server **shards**, each owning a hash-routed
//! partition of the record set, plus one **coordinator** that serves
//! the existing typed `/v1/*` API unchanged. The coordinator answers a
//! request by fanning out to the shards over HTTP, merging the partial
//! cube stores with the merge algebra (`cube(A) ⊕ cube(B) ==
//! cube(A ∪ B)`), and running the *same* single-node engine code over
//! the merged store — which is what makes a coordinator response
//! byte-identical to a single node holding the union of the partitions.
//!
//! The deterministic pieces, in module order:
//!
//! * [`router`] — the stable row hash that assigns every record to
//!   exactly one partition (and each partition to an ordered replica
//!   set), identical across processes and restarts;
//! * [`client`] — a small blocking HTTP/1.1 client whose per-shard
//!   timeout bounds the whole request (a lagging shard becomes a typed
//!   partial-failure envelope, never a hang);
//! * [`health`] — per-replica circuit breakers plus the jittered
//!   backoff schedule that pace retries against suspect shards;
//! * [`coordinator`] — the [`coordinator::Coordinator`], an
//!   `om_server::ops::EngineOps` implementation that epoch-pins one
//!   store generation per partition before merging, fails over between
//!   replicas, and refuses mixed-generation merges;
//! * [`metrics`] — the `om_cluster_*` counters rendered into the
//!   coordinator's `/metrics`.
//!
//! With `replicas >= 2` every partition is served by R shards: ingest
//! writes to all live replicas (recovered replicas are caught up from
//! the coordinator's replay queue), reads fail over between them, and a
//! partition is only unavailable when *all* of its replicas are down —
//! at which point an `allow_partial` request still gets a typed partial
//! answer carrying a coverage envelope.

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

pub mod client;
pub mod coordinator;
pub mod health;
pub mod metrics;
pub mod partition;
pub mod router;

pub use client::{ShardClient, ShardError};
pub use coordinator::{ClusterConfig, Coordinator};
pub use health::{backoff_delay, Admission, Health, HealthConfig};
pub use metrics::ClusterMetrics;
pub use partition::{partition_dataset, partition_rows};
pub use router::{replica_set, route_fields, row_hash};
