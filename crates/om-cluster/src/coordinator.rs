//! The coordinator: the `/v1` API served by distributed merge.
//!
//! A [`Coordinator`] implements the primitives of
//! `om_server::ops::EngineOps` — the same seam the resident single-node
//! backend implements — by fanning out to its shard processes and
//! merging their partials:
//!
//! * **Replicated partitions.** The topology is `partitions x replicas`
//!   shard processes: `shard_addrs` lists them partition-block by
//!   partition-block, and [`crate::router::replica_set`] maps each
//!   partition to its ordered replica set. With `replicas == 1` (the
//!   default) every behavior below degenerates to the unreplicated
//!   cluster, byte for byte.
//! * **Epoch pinning.** Every store-backed read (compare, GI, slice,
//!   batch) first pins one published generation per *partition*, then
//!   fetches each partition's full store *at that pinned generation*
//!   (`/internal/store?expect=G`). A replica that republished in
//!   between answers `409` and the whole read re-pins — a merged store
//!   can therefore never mix generations. The merged store is cached
//!   keyed by the per-partition generation vector, and steady-state
//!   reads fan out only the cheap generation poll. Replicas of a
//!   partition seal at identical row *counts*, but not at identical
//!   rows: two batches posted concurrently can reach two replicas in
//!   opposite orders, so one generation can name different store
//!   bytes on different replicas until ingest stops and the counts
//!   converge (ROADMAP item 24, a sequenced batch log per partition).
//! * **Retry, failover, hedging.** Each replica address carries a
//!   consecutive-failure circuit breaker ([`crate::health`]). A
//!   transport failure is retried on the same replica under capped,
//!   jittered exponential backoff, then the read fails over to the next
//!   replica in preference order; open breakers are skipped outright
//!   and half-open probes are replayed missed ingest rows before the
//!   replica serves reads again. When `hedge_after` is set, a store
//!   fetch that runs past the threshold fires a hedged duplicate at the
//!   next replica and the first success wins. A partition is only
//!   *down* when every replica is exhausted.
//! * **Degraded partial answers.** A request that opted in with
//!   `allow_partial` answers from the live partitions when some
//!   partition is down, attaching a coverage envelope (partitions
//!   answered, share of rows covered, the missing shard addresses).
//!   Without the opt-in — and always, when *every* partition is down —
//!   the failure stays a `503` envelope naming the partition, with a
//!   `Retry-After` hint derived from the soonest breaker half-open
//!   time. Partial merges are never cached.
//! * **Deterministic merge.** Partials merge in partition order with
//!   the cube merge algebra (`cube(A) ⊕ cube(B) == cube(A ∪ B)`), and
//!   failures gather with om-exec's earliest-partition-error-wins rule
//!   ([`om_exec::gather_in_order`]) — the response does not depend on
//!   which shard answered first on the wire.
//! * **Identical engine code.** The coordinator holds a zero-row
//!   engine twin built from the shards' own schema, and every `/v1`
//!   read is `EngineOps`'s provided method running that twin's code —
//!   name resolution, comparator, miners, batch executor, explore —
//!   over what the coordinator supplies: the merged store
//!   ([`EngineOps::pin_store`]) and the drill population
//!   ([`EngineOps::drill_root`]). Nothing about compare, drill, GI,
//!   batch or explore is implemented here, which is why full-coverage
//!   coordinator responses (results *and* error messages) are
//!   byte-identical to a single node holding the union of the
//!   partitions. The only sanctioned divergences are availability
//!   errors a single node cannot have (a partition down or lagging, a
//!   generation race that never settles); those surface as `503`
//!   envelopes, or as partial answers when the caller opted in.
//! * **Drill-down.** The coordinator's [`DrillPopulation`] answers
//!   `level_store` with `/internal/level` fan-outs (merged per level)
//!   and `descend` with the schema's validity check plus an
//!   `/internal/count` emptiness probe, each with the same per-replica
//!   failover; the walk over it is the engine's. A conditioned level
//!   asks for the drill's anchor only (`?anchor=A`): each shard fills
//!   the 1-D cubes and the anchor's pair cubes in one masked scan —
//!   2n−1 scan units, what a single node's level scans — and the merged
//!   partial store is cached under a key that names the anchor. The
//!   unconditioned root level is the one level every anchor shares, so
//!   it is asked for whole (every pair) and fetched once. Drill levels
//!   read the shards' immutable *base* partitions — exactly as a single
//!   node drills its base dataset — so level stores are generation-free
//!   and cacheable.
//! * **Ingest.** A batch arrives decoded once, as a
//!   [`om_api::LabelRows`] table whose labels borrow the request body.
//!   One pass over it validates every row against the shared schema
//!   (identical `bad_row` envelopes, all-or-nothing), hashes it with the
//!   stable row hash ([`crate::router`]) and files its *index* under its
//!   partition. Each partition's body is written straight from the
//!   borrowed rows ([`om_api::encode_rows`]) and posted to every live
//!   replica of that partition. The partition acks when at least one
//!   replica acked; only a replica that missed the write gets owned
//!   copies of its rows, queued and replayed when it recovers (the
//!   replay probes the replica's durable row count first, so a write
//!   whose ack was lost is never double-applied). Failed replica writes
//!   are *not* retried in place — replay-on-recovery is the idempotent
//!   path. Acks report `accepted` as the minimum and `rows_total` as
//!   the maximum across a partition's replicas, summed over partitions;
//!   the reported generation is the maximum across touched shards.
//!   Cross-partition atomicity is not guaranteed: a mid-batch partition
//!   failure leaves the rows accepted by other partitions durable in
//!   their WALs.
//!
//! The coordinator assumes every shard runs the default engine
//! configuration (the cluster tooling starts shards that way); the
//! comparator/miner thresholds it applies to merged stores come from
//! the same defaults.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use om_api::{
    b64_decode, encode_rows, ConditionWire, CoverageWire, ErrorCode, ErrorEnvelope, IngestResponse,
    InternalCountRequest, InternalCountResponse, InternalGenerationResponse, InternalLevelRequest,
    InternalLevelResponse, InternalSchemaResponse, InternalStoreResponse, LabelRows,
};
use om_compare::{CompareError, Descent, DrillPopulation};
use om_cube::persist::decode_store;
use om_cube::CubeStore;
use om_data::persist::decode_dataset;
use om_data::{Schema, ValueId};
use om_engine::fail::Seam;
use om_engine::{
    fail, Budget, Condition, EngineConfig, FaultError, OpportunityMap, SharedStore, StoreSnapshot,
};
use om_exec::gather_in_order;
use om_ingest::RowParser;
use om_server::metrics::Exposition;
use om_server::ops::{ingest_envelope, EngineOps, IngestAck, OpsError, RootPopulation};

use crate::client::{ShardClient, ShardError};
use crate::health::{backoff_delay, Admission, Health, HealthConfig};
use crate::metrics::ClusterMetrics;
use crate::router::{replica_set, route_fields};

/// How a coordinator reaches and treats its shards.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shard endpoints (`host:port`), grouped partition by partition:
    /// with R replicas, addresses `[p*R, (p+1)*R)` serve partition `p`.
    /// The order is part of the cluster identity: routing and merging
    /// both use it.
    pub shard_addrs: Vec<String>,
    /// Replication factor: how many consecutive addresses serve each
    /// partition. `shard_addrs.len()` must be a multiple of it.
    pub replicas: usize,
    /// Per-shard whole-request timeout; a replica that exceeds it is
    /// retried, failed over, or reported in a `503` envelope.
    pub shard_timeout: Duration,
    /// `Retry-After` hint attached to overload envelopes when no
    /// breaker supplies a sharper one, in seconds.
    pub retry_after_secs: u64,
    /// How many times a store read re-pins when shards republish
    /// mid-fan-out before giving up with an overload envelope.
    pub stale_retries: u32,
    /// Same-replica retries after a transport failure before failing
    /// over to the next replica.
    pub fetch_retries: u32,
    /// First-retry backoff; each further retry doubles it (with jitter).
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Consecutive failures that open a replica's circuit breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before half-opening a probe.
    pub breaker_open: Duration,
    /// When set, a store fetch still pending after this long fires a
    /// hedged duplicate at the next replica (first success wins).
    pub hedge_after: Option<Duration>,
    /// Whether `/v1/ingest` is live (requires shards started with
    /// ingest WALs).
    pub ingest: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            shard_addrs: Vec::new(),
            replicas: 1,
            shard_timeout: Duration::from_secs(30),
            retry_after_secs: 1,
            stale_retries: 3,
            fetch_retries: 2,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(1),
            breaker_threshold: 3,
            breaker_open: Duration::from_secs(2),
            hedge_after: None,
            ingest: false,
        }
    }
}

/// A resolved condition path, as a hashable cache key.
type CondKey = Vec<(usize, ValueId)>;

fn cond_key(conditions: &[Condition]) -> CondKey {
    conditions.iter().map(|c| (c.attr, c.value)).collect()
}

fn wire_conditions(conditions: &[Condition]) -> Vec<ConditionWire> {
    conditions
        .iter()
        .map(|c| ConditionWire {
            attr: c.attr as u64,
            value: u64::from(c.value),
        })
        .collect()
}

/// Drill-level stores are cached per (condition path, attribute set,
/// anchor — `None` for the whole root level); clear-on-cap keeps a
/// pathological request mix from growing without bound while leaving
/// the common session shapes fully cached.
const LEVEL_CACHE_CAP: usize = 512;

type LevelCache = HashMap<(CondKey, Vec<usize>, Option<usize>), Arc<CubeStore>>;

/// One replica's catch-up state: rows it missed while down, plus a
/// flag marking a replay in flight. Rows stay queued until the replay
/// *succeeds*, so concurrent callers never mistake a mid-replay
/// replica for a caught-up one — and the replayer does its network
/// round trips without holding this lock.
#[derive(Default)]
struct CatchupQueue {
    rows: Vec<Vec<String>>,
    in_flight: bool,
}

/// Why one replica did not serve a partition's call; the `503` names
/// each, in the order tried.
enum ReplicaFailure {
    /// The call reached the replica and failed there.
    Shard(ShardError),
    /// The replica's circuit breaker is open; it was not tried.
    BreakerOpen,
    /// Another caller is replaying the replica's missed rows; it was not
    /// tried (contention is not evidence of unhealth).
    CatchupBusy,
    /// Replaying the replica's missed rows failed.
    CatchupFailed(ShardError),
    /// A failpoint aborted the attempt.
    Failpoint(FaultError),
    /// The hedged store-fetch worker running the call panicked.
    FetchPanicked,
}

impl fmt::Display for ReplicaFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Shard(e) => write!(f, "{e}"),
            Self::BreakerOpen => f.write_str("circuit breaker open (recent failures); skipped"),
            Self::CatchupBusy => f.write_str("catch-up replay in progress; skipped"),
            Self::CatchupFailed(e) => write!(f, "catch-up replay failed: {e}"),
            Self::Failpoint(e) => write!(f, "failpoint: {e}"),
            Self::FetchPanicked => f.write_str("store fetch worker panicked"),
        }
    }
}

/// Every replica of one partition was skipped or exhausted, or the
/// worker walking them panicked; carries the evidence for the `503`
/// envelope.
struct PartitionDown {
    partition: usize,
    /// `(global shard index, failure)`, in the order tried.
    failures: Vec<(usize, ReplicaFailure)>,
    /// The partition's fan-out worker panicked: whatever its replicas
    /// answered was lost with it, so no replica is named.
    worker_panicked: bool,
}

impl PartitionDown {
    /// The replica's envelope when the walk ended on a 4xx: the request
    /// is at fault, and every replica would answer the same.
    fn request_fault(&self) -> Option<&ErrorEnvelope> {
        match self.failures.last() {
            Some((_, ReplicaFailure::Shard(ShardError::Status { status, envelope })))
                if (400..500).contains(status) =>
            {
                Some(envelope)
            }
            _ => None,
        }
    }
}

/// One store-fetch outcome at a pinned generation.
enum Fetch {
    Fresh(Box<CubeStore>),
    /// The replica republished since the poll: not a failure, a re-pin.
    Stale,
}

/// A single `/internal/store?expect=G` attempt against one replica —
/// the unit both the sequential and the hedged fetch paths run.
fn fetch_store_once(
    shard: &ShardClient,
    expect: u64,
    metrics: &ClusterMetrics,
) -> Result<Fetch, ShardError> {
    // The seam stands for a failed fetch, so it fails like one.
    fail::inject(Seam::ClusterFetch).map_err(|e| ShardError::Io(e.to_string()))?;
    let body = match shard.call("GET", &format!("/internal/store?expect={expect}"), None) {
        Ok(body) => body,
        Err(ShardError::Status { status: 409, .. }) => return Ok(Fetch::Stale),
        Err(e) => return Err(e),
    };
    ClusterMetrics::add(&metrics.store_bytes_total, body.len() as u64);
    let resp = InternalStoreResponse::parse(&body).map_err(ShardError::Io)?;
    let bytes = b64_decode(&resp.store_b64).map_err(ShardError::Io)?;
    let store = decode_store(Bytes::from(bytes))
        .map_err(|e| ShardError::Io(format!("store decode failed: {e}")))?;
    Ok(Fetch::Fresh(Box::new(store)))
}

/// An ingest batch of no rows: a pure read of a replica's durable row
/// count.
const EMPTY_BATCH: &str = "{\"rows\":[]}";

/// `POST /v1/ingest` with `body` to one replica, its ack decoded.
fn post_ingest(shard: &ShardClient, body: &str) -> Result<IngestResponse, ShardError> {
    let reply = shard.call("POST", "/v1/ingest", Some(body))?;
    IngestResponse::parse(&reply).map_err(ShardError::Io)
}

/// Record one hedged-fetch outcome in the shared breaker and counters.
/// A free function over `Arc`-shared state because hedge workers can
/// outlive the fetch that spawned them: the coordinator returns on the
/// first success, and a loser's result landing after that must *still*
/// be reported — an unreported half-open probe wedges its breaker at
/// Deny (and a worker's failure must open breakers even when nobody is
/// listening).
fn record_fetch_outcome(
    health: &Health,
    metrics: &ClusterMetrics,
    g: usize,
    result: &Result<Fetch, ReplicaFailure>,
) {
    match result {
        // Fresh and Stale (409) both prove the replica transport is
        // healthy; so does a 4xx, where only the request is at fault.
        Ok(_) => health.record_success(g),
        Err(ReplicaFailure::Shard(ShardError::Status { status, .. }))
            if (400..500).contains(status) =>
        {
            health.record_success(g);
        }
        Err(_) => note_failure(health, metrics, g),
    }
}

/// Record one replica failure in its breaker and the counters.
fn note_failure(health: &Health, metrics: &ClusterMetrics, g: usize) {
    ClusterMetrics::add(&metrics.shard_errors_total, 1);
    if health.record_failure(g) {
        ClusterMetrics::add(&metrics.breaker_opens_total, 1);
    }
}

/// The coordinator for one shard topology. See the module docs.
pub struct Coordinator {
    shards: Vec<ShardClient>,
    /// Zero-row engine twin built from the shards' schema: resolves
    /// names, carries the shared configs and runs every read with the
    /// exact single-node code (and error messages).
    om: OpportunityMap,
    parser: RowParser,
    n_partitions: usize,
    replicas: usize,
    retry_after_secs: u64,
    stale_retries: u32,
    fetch_retries: u32,
    backoff_base: Duration,
    backoff_cap: Duration,
    hedge_after: Option<Duration>,
    ingest: bool,
    /// One circuit breaker per shard address (shared with detached
    /// hedge workers).
    health: Arc<Health>,
    /// Monotonic salt decorrelating concurrent backoff sleeps.
    backoff_salt: AtomicU64,
    /// Per-replica rows that missed a write (replica down at ingest
    /// time), replayed in order when the replica recovers.
    catchup: Vec<Mutex<CatchupQueue>>,
    /// Per-partition base-partition row count (fixed at connect).
    part_base_rows: Vec<u64>,
    /// Per-partition authoritative live-ingested row count: the highest
    /// `rows_total` any replica acked.
    part_ingested: Vec<AtomicU64>,
    /// Merged full store, keyed by the pinned per-partition generation
    /// vector. Only full-coverage merges are cached.
    merged: Mutex<Option<(Vec<u64>, Arc<StoreSnapshot>)>>,
    /// Merged drill-level stores (generation-free; see module docs).
    levels: Mutex<LevelCache>,
    /// Conditioned base-partition row counts, summed across partitions.
    counts: Mutex<HashMap<CondKey, u64>>,
    metrics: Arc<ClusterMetrics>,
}

impl Coordinator {
    /// Connect to the shards: fetch and cross-check their schemas,
    /// bootstrap the zero-row engine twin, and record each partition's
    /// base row count (the denominator of coverage envelopes).
    ///
    /// # Errors
    /// Unreachable shards, shards that disagree on the schema, an
    /// address list that does not tile into `partitions x replicas`, or
    /// a schema the engine cannot host.
    pub fn connect(config: ClusterConfig) -> Result<Self, String> {
        if config.replicas == 0 {
            return Err("replication factor must be at least 1".to_owned());
        }
        if config.shard_addrs.is_empty() {
            return Err("cluster needs at least one shard".to_owned());
        }
        if !config.shard_addrs.len().is_multiple_of(config.replicas) {
            return Err(format!(
                "{} shard address(es) do not tile into whole partitions at replication \
                 factor {}; the address list must be partitions x replicas",
                config.shard_addrs.len(),
                config.replicas
            ));
        }
        let shards: Vec<ShardClient> = config
            .shard_addrs
            .iter()
            .map(|a| ShardClient::new(a.clone(), config.shard_timeout))
            .collect();
        let n_partitions = shards.len() / config.replicas;
        let mut schema_b64 = String::new();
        for (i, shard) in shards.iter().enumerate() {
            let body = shard
                .call("GET", "/internal/schema", None)
                .map_err(|e| format!("shard {i} ({}): schema fetch failed: {e}", shard.addr()))?;
            let resp = InternalSchemaResponse::parse(&body)
                .map_err(|e| format!("shard {i} ({}): bad schema response: {e}", shard.addr()))?;
            if i == 0 {
                schema_b64 = resp.dataset_b64;
            } else if schema_b64 != resp.dataset_b64 {
                return Err(format!(
                    "shard {i} ({}) disagrees with shard 0 on the schema; \
                     every shard must be partitioned from the same dataset",
                    shard.addr()
                ));
            }
        }
        let bytes = b64_decode(&schema_b64)
            .map_err(|e| format!("shard schema is not valid base64: {e}"))?;
        let zero = decode_dataset(Bytes::from(bytes))
            .map_err(|e| format!("shard schema dataset failed to decode: {e}"))?;
        let om = OpportunityMap::build(zero, EngineConfig::default())
            .map_err(|e| format!("coordinator engine bootstrap failed: {e}"))?;
        let parser = RowParser::new(om.dataset().schema().clone(), om.cut_points())
            .map_err(|e| format!("coordinator row parser bootstrap failed: {e}"))?;
        let empty_count = InternalCountRequest {
            conditions: Vec::new(),
        }
        .encode();
        let mut part_base_rows = Vec::with_capacity(n_partitions);
        for p in 0..n_partitions {
            let g = replica_set(p, n_partitions, config.replicas)
                .first()
                .copied()
                .unwrap_or(p);
            let Some(shard) = shards.get(g) else {
                return Err(format!("partition {p} has no replica at index {g}"));
            };
            let body = shard
                .call("POST", "/internal/count", Some(&empty_count))
                .map_err(|e| format!("shard {g} ({}): base count failed: {e}", shard.addr()))?;
            let count = InternalCountResponse::parse(&body)
                .map_err(|e| format!("shard {g} ({}): bad count response: {e}", shard.addr()))?
                .count;
            part_base_rows.push(count);
        }
        let metrics = Arc::new(ClusterMetrics::default());
        metrics.shards.store(shards.len() as u64, Ordering::Relaxed);
        metrics
            .partitions
            .store(n_partitions as u64, Ordering::Relaxed);
        metrics
            .replicas
            .store(config.replicas as u64, Ordering::Relaxed);
        let health = Arc::new(Health::new(
            shards.len(),
            HealthConfig {
                threshold: config.breaker_threshold,
                open_for: config.breaker_open,
                // A legitimate probe is bounded by the catch-up replay
                // (two round trips) plus the request itself, each
                // clamped to the whole-request timeout.
                probe_timeout: config
                    .shard_timeout
                    .saturating_mul(3)
                    .saturating_add(config.breaker_open),
            },
        ));
        let catchup = (0..shards.len())
            .map(|_| Mutex::new(CatchupQueue::default()))
            .collect();
        // Catch-up queues are in-memory only: a coordinator restart
        // drops any rows queued for a down replica. Cross-check the
        // replicas' durable row counts here so a partition whose
        // replicas diverged while no coordinator was watching is
        // refused instead of silently serving mismatched stores (the
        // generation-pinned merge relies on replicas sealing at
        // identical row counts; see the module doc for what that does
        // not guarantee), and seed the per-partition targets
        // from the durable counts rather than zero.
        let mut part_ingested_seed = vec![0u64; n_partitions];
        if config.ingest {
            for (p, seed) in part_ingested_seed.iter_mut().enumerate() {
                let mut agreed: Option<(usize, u64)> = None;
                for g in replica_set(p, n_partitions, config.replicas) {
                    let Some(shard) = shards.get(g) else { continue };
                    let rows = post_ingest(shard, EMPTY_BATCH)
                        .map_err(|e| {
                            format!("shard {g} ({}): ingest probe failed: {e}", shard.addr())
                        })?
                        .rows_total;
                    match agreed {
                        None => agreed = Some((g, rows)),
                        Some((g0, rows0)) if rows0 != rows => {
                            return Err(format!(
                                "partition {p} replicas disagree on durable ingested rows: \
                                 shard {g0} has {rows0}, shard {g} ({}) has {rows}; the \
                                 replicas diverged while no coordinator was replaying missed \
                                 writes — re-seed the lagging replica from its peer's WAL \
                                 before reconnecting",
                                shard.addr()
                            ));
                        }
                        Some(_) => {}
                    }
                }
                *seed = agreed.map_or(0, |(_, rows)| rows);
            }
        }
        let part_ingested = part_ingested_seed.into_iter().map(AtomicU64::new).collect();
        Ok(Self {
            shards,
            om,
            parser,
            n_partitions,
            replicas: config.replicas,
            retry_after_secs: config.retry_after_secs,
            stale_retries: config.stale_retries,
            fetch_retries: config.fetch_retries,
            backoff_base: config.backoff_base,
            backoff_cap: config.backoff_cap,
            hedge_after: config.hedge_after,
            ingest: config.ingest,
            health,
            backoff_salt: AtomicU64::new(0),
            catchup,
            part_base_rows,
            part_ingested,
            merged: Mutex::new(None),
            levels: Mutex::new(HashMap::new()),
            counts: Mutex::new(HashMap::new()),
            metrics,
        })
    }

    /// Number of shard processes in the topology.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of partitions (shards divided by the replication factor).
    #[must_use]
    pub fn n_partitions(&self) -> usize {
        self.n_partitions
    }

    /// The replication factor.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The coordinator's counters (rendered into `/metrics`).
    #[must_use]
    pub fn cluster_metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// Shard addresses the coordinator currently considers degraded:
    /// breaker not closed, or queued catch-up rows not yet replayed.
    /// Empty means every replica is healthy and fully caught up — the
    /// cluster tooling polls this to wait for a rejoin to settle.
    #[must_use]
    pub fn degraded_addrs(&self) -> Vec<String> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(g, _)| {
                !self.health.is_closed(*g)
                    || self
                        .catchup
                        .get(*g)
                        .is_some_and(|q| !q.lock().rows.is_empty())
            })
            .map(|(_, s)| s.addr().to_owned())
            .collect()
    }

    fn shard_addr(&self, i: usize) -> &str {
        self.shards.get(i).map_or("?", ShardClient::addr)
    }

    fn overloaded(&self, message: String) -> ErrorEnvelope {
        ErrorEnvelope {
            retry_after_ms: Some(self.retry_after_secs.saturating_mul(1000)),
            ..ErrorEnvelope::new(ErrorCode::Overloaded, message)
        }
    }

    /// The envelope for a downed partition. A replica's 4xx envelope is
    /// the request's fault, so it reaches the client as the shard wrote
    /// it. Otherwise it is a `503`: at replication factor 1 the message
    /// is the legacy single-shard form; above it, the partition is named
    /// with every replica's evidence. The `Retry-After` hint is the
    /// soonest any involved breaker half-opens, falling back to the
    /// static hint when none is open.
    fn partition_envelope(&self, op: &str, down: &PartitionDown) -> ErrorEnvelope {
        if let Some(envelope) = down.request_fault() {
            return envelope.clone();
        }
        let members = replica_set(down.partition, self.n_partitions, self.replicas);
        let retry_after_ms = self
            .health
            .min_retry_after(members.iter().copied())
            .map_or(self.retry_after_secs.saturating_mul(1000), |d| {
                (u64::try_from(d.as_millis()).unwrap_or(u64::MAX)).max(1)
            });
        let message = match down.failures.as_slice() {
            _ if down.worker_panicked => format!(
                "partition {} is unavailable for {op}: its fan-out worker panicked",
                down.partition
            ),
            [(g, why)] if self.replicas == 1 => {
                format!(
                    "shard {g} ({}) failed during {op}: {why}",
                    self.shard_addr(*g)
                )
            }
            failures => {
                let evidence: Vec<String> = failures
                    .iter()
                    .map(|(g, why)| format!("replica {g} ({}): {why}", self.shard_addr(*g)))
                    .collect();
                format!(
                    "partition {} is unavailable for {op} (all {} replica(s) failed): {}",
                    down.partition,
                    members.len(),
                    evidence.join("; ")
                )
            }
        };
        ErrorEnvelope {
            retry_after_ms: Some(retry_after_ms),
            ..ErrorEnvelope::new(ErrorCode::Overloaded, message)
        }
    }

    /// Replay rows a replica missed while it was down, before it serves
    /// anything else. The replica's durable `rows_total` is probed
    /// first (an empty ingest batch is a pure stats read) and only the
    /// genuinely missing tail is resent — a write whose ack was lost is
    /// never double-applied.
    ///
    /// The network round trips run *outside* the queue lock: the lock
    /// is taken only to snapshot the queue (setting `in_flight`) and to
    /// commit the outcome. Rows stay queued until the replay succeeds,
    /// and concurrent callers see `in_flight` and skip the replica —
    /// so a mid-replay replica is never mistaken for a caught-up one
    /// and never accepts new direct writes out of order.
    fn flush_catchup(&self, g: usize, shard: &ShardClient) -> Result<(), ReplicaFailure> {
        if !self.ingest {
            return Ok(());
        }
        let Some(slot) = self.catchup.get(g) else {
            return Ok(());
        };
        let batch = {
            let mut queue = slot.lock();
            if queue.in_flight {
                return Err(ReplicaFailure::CatchupBusy);
            }
            if queue.rows.is_empty() {
                return Ok(());
            }
            queue.in_flight = true;
            queue.rows.clone()
        };
        let result = self.replay_missed_rows(g, shard, &batch);
        let mut queue = slot.lock();
        queue.in_flight = false;
        match result {
            Ok(()) => {
                // Drop exactly the snapshot we replayed; rows queued
                // while the replay was in flight stay for the next one.
                let replayed = batch.len().min(queue.rows.len());
                queue.rows.drain(..replayed);
                Ok(())
            }
            Err(e) => {
                // The breaker has its own lock; never take it under
                // the queue's.
                drop(queue);
                note_failure(&self.health, &self.metrics, g);
                Err(ReplicaFailure::CatchupFailed(e))
            }
        }
    }

    /// The network half of [`Self::flush_catchup`]: probe the replica's
    /// durable row count, resend only the tail it actually lacks.
    fn replay_missed_rows(
        &self,
        g: usize,
        shard: &ShardClient,
        batch: &[Vec<String>],
    ) -> Result<(), ShardError> {
        let have = post_ingest(shard, EMPTY_BATCH)?.rows_total;
        let target = self
            .part_ingested
            .get(g / self.replicas.max(1))
            .map_or(0, |t| t.load(Ordering::Relaxed));
        let missing = usize::try_from(target.saturating_sub(have))
            .unwrap_or(usize::MAX)
            .min(batch.len());
        if missing > 0 {
            let tail = batch.get(batch.len() - missing..).unwrap_or_default();
            post_ingest(shard, &encode_rows(tail.iter().map(Vec::as_slice)))?;
            ClusterMetrics::add(&self.metrics.catchup_rows_total, missing as u64);
        }
        Ok(())
    }

    /// Admit replica `g` through its breaker and replay its missed
    /// rows: `Ok` when it may serve, else why it was skipped.
    fn admit_replica(&self, g: usize, shard: &ShardClient) -> Result<(), ReplicaFailure> {
        match self.health.admit(g) {
            Admission::Deny => return Err(ReplicaFailure::BreakerOpen),
            Admission::Probe => ClusterMetrics::add(&self.metrics.breaker_probes_total, 1),
            Admission::Allow => {}
        }
        self.flush_catchup(g, shard)
    }

    /// Walk one partition's replicas in preference order: admit each
    /// through [`Self::admit_replica`], then run `f` with same-replica
    /// retries under capped jittered backoff before failing over to the
    /// next replica.
    fn try_replicas<T>(
        &self,
        partition: usize,
        f: impl Fn(&ShardClient) -> Result<T, ShardError>,
    ) -> Result<T, PartitionDown> {
        let members = replica_set(partition, self.n_partitions, self.replicas);
        let mut failures: Vec<(usize, ReplicaFailure)> = Vec::new();
        'replicas: for (k, &g) in members.iter().enumerate() {
            let Some(shard) = self.shards.get(g) else {
                continue;
            };
            if let Err(why) = self.admit_replica(g, shard) {
                failures.push((g, why));
                continue;
            }
            let mut attempt = 0u32;
            loop {
                // Per-attempt seam: bounds the retry ladder under chaos
                // and gives tests a hook between attempts.
                if let Err(e) = fail::inject(Seam::ClusterReplicaRetry) {
                    failures.push((g, ReplicaFailure::Failpoint(e)));
                    break;
                }
                match f(shard) {
                    Ok(v) => {
                        self.health.record_success(g);
                        return Ok(v);
                    }
                    Err(e @ ShardError::Status { status, .. }) if (400..500).contains(&status) => {
                        // The replica answered — its transport is fine;
                        // only the request is at fault. Recording the
                        // success matters for a half-open probe, which
                        // would otherwise stay wedged at Deny.
                        self.health.record_success(g);
                        failures.push((g, ReplicaFailure::Shard(e)));
                        break 'replicas;
                    }
                    Err(e) => {
                        note_failure(&self.health, &self.metrics, g);
                        // Stop retrying a replica whose breaker just
                        // opened — it will only burn the backoff budget.
                        if attempt >= self.fetch_retries || !self.health.is_closed(g) {
                            failures.push((g, ReplicaFailure::Shard(e)));
                            break;
                        }
                        ClusterMetrics::add(&self.metrics.retries_total, 1);
                        let salt = self.backoff_salt.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(backoff_delay(
                            self.backoff_base,
                            self.backoff_cap,
                            attempt,
                            salt,
                        ));
                        attempt += 1;
                    }
                }
            }
            if k + 1 < members.len() {
                ClusterMetrics::add(&self.metrics.failovers_total, 1);
            }
        }
        Err(PartitionDown {
            partition,
            failures,
            worker_panicked: false,
        })
    }

    /// Run `f(partition)` once per partition, concurrently, and return
    /// the per-partition results in partition order.
    fn fan_out_partitions<T: Send>(
        &self,
        f: impl Fn(usize) -> Result<T, PartitionDown> + Sync,
    ) -> Vec<Result<T, PartitionDown>> {
        ClusterMetrics::add(&self.metrics.fanouts_total, 1);
        std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = (0..self.n_partitions)
                .map(|p| scope.spawn(move || f(p)))
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(p, h)| {
                    h.join().unwrap_or_else(|_| {
                        Err(PartitionDown {
                            partition: p,
                            failures: Vec::new(),
                            worker_panicked: true,
                        })
                    })
                })
                .collect()
        })
    }

    /// Earliest-partition-error-wins gather: the reported failure is
    /// the lowest-numbered failing partition, independent of wire
    /// timing.
    fn gather_parts<T>(
        &self,
        op: &str,
        results: Vec<Result<T, PartitionDown>>,
    ) -> Result<Vec<T>, ErrorEnvelope> {
        let indexed = results
            .into_iter()
            .map(|r| r.map_err(|down| (down.partition, down)));
        gather_in_order(indexed).map_err(|(_, down)| self.partition_envelope(op, &down))
    }

    /// Fetch one partition's store at the pinned generation, failing
    /// over between replicas — hedged when configured.
    fn fetch_partition_store(&self, partition: usize, expect: u64) -> Result<Fetch, PartitionDown> {
        match self.hedge_after {
            Some(hedge_after) if self.replicas > 1 => {
                self.fetch_partition_store_hedged(partition, expect, hedge_after)
            }
            _ => self.try_replicas(partition, |shard| {
                fetch_store_once(shard, expect, &self.metrics)
            }),
        }
    }

    /// Launch the next admissible candidate's fetch on a detached
    /// worker. Returns `true` when a worker was actually launched.
    ///
    /// Admission happens *here*, at launch time — never for candidates
    /// that may end up unlaunched. A half-open probe admitted up front
    /// but abandoned by an early return would leave its breaker wedged
    /// at Deny forever. The worker records its own outcome in the
    /// shared breaker, so even results arriving after the coordinator
    /// stopped listening are reported.
    fn launch_hedged_fetch(
        &self,
        candidates: &[usize],
        next: &mut usize,
        failures: &mut Vec<(usize, ReplicaFailure)>,
        expect: u64,
        tx: &mpsc::Sender<(usize, Result<Fetch, ReplicaFailure>)>,
    ) -> bool {
        while let Some(&g) = candidates.get(*next) {
            *next += 1;
            let Some(shard) = self.shards.get(g) else {
                continue;
            };
            if let Err(why) = self.admit_replica(g, shard) {
                failures.push((g, why));
                continue;
            }
            let shard = shard.clone();
            let tx = tx.clone();
            let health = Arc::clone(&self.health);
            let metrics = Arc::clone(&self.metrics);
            std::thread::spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fetch_store_once(&shard, expect, &metrics).map_err(ReplicaFailure::Shard)
                }))
                .unwrap_or(Err(ReplicaFailure::FetchPanicked));
                record_fetch_outcome(&health, &metrics, g, &result);
                let _ = tx.send((g, result));
            });
            return true;
        }
        false
    }

    /// The hedged store fetch: the preferred replica goes first; if it
    /// is still pending after `hedge_after`, the next replica is raced
    /// against it and the first success wins. Losers run on until their
    /// whole-request deadline and record their own breaker outcomes, so
    /// the early return never strands an admitted probe.
    fn fetch_partition_store_hedged(
        &self,
        partition: usize,
        expect: u64,
        hedge_after: Duration,
    ) -> Result<Fetch, PartitionDown> {
        let candidates = replica_set(partition, self.n_partitions, self.replicas);
        let mut failures: Vec<(usize, ReplicaFailure)> = Vec::new();
        let (tx, rx) = mpsc::channel::<(usize, Result<Fetch, ReplicaFailure>)>();
        let mut next = 0usize;
        let mut pending = 0usize;
        'race: loop {
            while pending == 0 {
                if !self.launch_hedged_fetch(&candidates, &mut next, &mut failures, expect, &tx) {
                    break 'race;
                }
                pending += 1;
            }
            // While unlaunched candidates remain, wait only the hedge
            // threshold; afterwards, workers are bounded by the client's
            // whole-request deadline, so a generous wait terminates.
            let wait = if next < candidates.len() {
                hedge_after
            } else {
                self.backoff_cap.max(Duration::from_secs(60))
            };
            // Health outcomes are recorded by the workers themselves
            // (see `launch_hedged_fetch`); this loop only steers.
            match rx.recv_timeout(wait) {
                Ok((_, Ok(fetch))) => return Ok(fetch),
                Ok((g, Err(why @ ReplicaFailure::Shard(ShardError::Status { status, .. }))))
                    if (400..500).contains(&status) =>
                {
                    // A 4xx is the request's fault: every replica would
                    // answer identically, so hedging further is futile.
                    failures.push((g, why));
                    break;
                }
                Ok((g, Err(why))) => {
                    pending -= 1;
                    failures.push((g, why));
                }
                // `pending` is at least 1 here, so a timeout only ever
                // launches the next hedge.
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if next < candidates.len()
                        && self.launch_hedged_fetch(
                            &candidates,
                            &mut next,
                            &mut failures,
                            expect,
                            &tx,
                        )
                    {
                        ClusterMetrics::add(&self.metrics.hedges_total, 1);
                        pending += 1;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        Err(PartitionDown {
            partition,
            failures,
            worker_panicked: false,
        })
    }

    /// The coverage envelope for a partial answer: which partitions
    /// answered, the share of the cluster's rows they hold, and the
    /// addresses behind the gaps.
    fn coverage_for(&self, answered: &[bool]) -> CoverageWire {
        let mut total_rows = 0u64;
        let mut covered_rows = 0u64;
        let mut partitions_answered = 0u64;
        let mut missing_partitions: Vec<u64> = Vec::new();
        let mut missing_shards: Vec<String> = Vec::new();
        for p in 0..self.n_partitions {
            let rows = self.part_base_rows.get(p).copied().unwrap_or(0)
                + self
                    .part_ingested
                    .get(p)
                    .map_or(0, |t| t.load(Ordering::Relaxed));
            total_rows += rows;
            if answered.get(p).copied().unwrap_or(false) {
                covered_rows += rows;
                partitions_answered += 1;
            } else {
                missing_partitions.push(p as u64);
                for g in replica_set(p, self.n_partitions, self.replicas) {
                    missing_shards.push(self.shard_addr(g).to_owned());
                }
            }
        }
        let rows_covered_pct = if total_rows == 0 {
            100.0 * partitions_answered as f64 / (self.n_partitions.max(1)) as f64
        } else {
            100.0 * covered_rows as f64 / total_rows as f64
        };
        CoverageWire {
            partitions_total: self.n_partitions as u64,
            partitions_answered,
            rows_covered_pct,
            missing_partitions,
            missing_shards,
        }
    }

    /// Pin one generation per partition and return the merged store at
    /// exactly that generation vector (cached across requests when the
    /// coverage is full). With `allow_partial`, partitions whose every
    /// replica is down are skipped and reported in the returned
    /// coverage envelope instead of failing the read — unless *every*
    /// partition is down, which is always an error.
    fn pinned_store_with(
        &self,
        allow_partial: bool,
    ) -> Result<(Arc<StoreSnapshot>, Option<CoverageWire>), ErrorEnvelope> {
        for _ in 0..=self.stale_retries {
            // Phase 1: pin a generation per partition via any live
            // replica.
            let polls = self.fan_out_partitions(|p| {
                self.try_replicas(p, |shard| {
                    let body = shard.call("GET", "/internal/generation", None)?;
                    InternalGenerationResponse::parse(&body)
                        .map(|r| r.generation)
                        .map_err(ShardError::Io)
                })
            });
            let mut gens: Vec<Option<u64>> = Vec::with_capacity(polls.len());
            let mut first_down: Option<PartitionDown> = None;
            for poll in polls {
                match poll {
                    Ok(g) => gens.push(Some(g)),
                    Err(down) => {
                        if !allow_partial || down.request_fault().is_some() {
                            return Err(self.partition_envelope("generation poll", &down));
                        }
                        if first_down.is_none() {
                            first_down = Some(down);
                        }
                        gens.push(None);
                    }
                }
            }
            if gens.iter().all(Option::is_none) {
                let down = first_down.unwrap_or(PartitionDown {
                    partition: 0,
                    failures: Vec::new(),
                    worker_panicked: false,
                });
                return Err(self.partition_envelope("generation poll", &down));
            }
            // Full coverage at an unchanged generation vector: serve
            // the cached merge without any store fetch.
            if gens.iter().all(Option::is_some) {
                let key: Vec<u64> = gens.iter().map(|g| g.unwrap_or(0)).collect();
                if let Some((pinned, snap)) = self.merged.lock().clone() {
                    if pinned == key {
                        return Ok((snap, None));
                    }
                }
            }
            // Phase 2: fetch each live partition's store at its pinned
            // generation (hedged when configured).
            let fetched = self.fan_out_partitions(|p| match gens.get(p).copied().flatten() {
                None => Ok(None),
                Some(expect) => self.fetch_partition_store(p, expect).map(Some),
            });
            let mut parts: Vec<Option<Fetch>> = Vec::with_capacity(fetched.len());
            for r in fetched {
                match r {
                    Ok(opt) => parts.push(opt),
                    Err(down) => {
                        if !allow_partial || down.request_fault().is_some() {
                            return Err(self.partition_envelope("store fetch", &down));
                        }
                        parts.push(None);
                    }
                }
            }
            if parts.iter().any(|p| matches!(p, Some(Fetch::Stale))) {
                ClusterMetrics::add(&self.metrics.stale_retries_total, 1);
                continue;
            }
            if parts.iter().all(Option::is_none) {
                return Err(self.overloaded(
                    "every partition became unavailable during the store fetch; retry".to_owned(),
                ));
            }
            // Phase 3: merge in partition order.
            let mut answered: Vec<bool> = Vec::with_capacity(parts.len());
            let mut merged: Option<CubeStore> = None;
            for part in parts {
                let Some(Fetch::Fresh(part)) = part else {
                    answered.push(false);
                    continue;
                };
                answered.push(true);
                merged = Some(match merged {
                    None => *part,
                    Some(acc) => acc.merge(&part).map_err(|e| {
                        ErrorEnvelope::new(
                            ErrorCode::Internal,
                            format!("shard store merge failed: {e}"),
                        )
                    })?,
                });
            }
            let Some(merged) = merged else {
                return Err(ErrorEnvelope::new(
                    ErrorCode::Internal,
                    "cluster produced no shard stores",
                ));
            };
            let snap = SharedStore::new(merged).snapshot();
            ClusterMetrics::add(&self.metrics.store_refreshes_total, 1);
            if answered.iter().all(|&a| a) {
                let key: Vec<u64> = gens.iter().map(|g| g.unwrap_or(0)).collect();
                *self.merged.lock() = Some((key, Arc::clone(&snap)));
                return Ok((snap, None));
            }
            ClusterMetrics::add(&self.metrics.partial_answers_total, 1);
            let coverage = self.coverage_for(&answered);
            return Ok((snap, Some(coverage)));
        }
        Err(self.overloaded(format!(
            "cluster store generations kept moving across {} pins (live ingestion racing the \
             fan-out); retry",
            u64::from(self.stale_retries) + 1
        )))
    }

    /// Merged drill-level store over the shards' conditioned *base*
    /// partitions (generation-free; see module docs). A conditioned
    /// level demands `anchor`'s cubes only; the root level, which every
    /// anchor shares, demands every pair and is fetched once.
    fn cluster_level_store(
        &self,
        conditions: &[Condition],
        attrs: &[usize],
        anchor: usize,
    ) -> Result<Arc<CubeStore>, ErrorEnvelope> {
        let anchor = (!conditions.is_empty()).then_some(anchor);
        let key = (cond_key(conditions), attrs.to_vec(), anchor);
        if let Some(hit) = self.levels.lock().get(&key) {
            ClusterMetrics::add(&self.metrics.level_cache_hits_total, 1);
            return Ok(Arc::clone(hit));
        }
        ClusterMetrics::add(&self.metrics.level_cache_misses_total, 1);
        let path = match anchor {
            Some(anchor) => format!("/internal/level?anchor={anchor}"),
            None => "/internal/level".to_owned(),
        };
        let request = InternalLevelRequest {
            conditions: wire_conditions(conditions),
            attrs: attrs.iter().map(|&a| a as u64).collect(),
        }
        .encode();
        let parts = self.gather_parts(
            "drill-level fan-out",
            self.fan_out_partitions(|p| {
                self.try_replicas(p, |shard| {
                    let body = shard.call("POST", &path, Some(&request))?;
                    ClusterMetrics::add(&self.metrics.level_bytes_total, body.len() as u64);
                    let resp = InternalLevelResponse::parse(&body).map_err(ShardError::Io)?;
                    let bytes = b64_decode(&resp.store_b64).map_err(ShardError::Io)?;
                    decode_store(Bytes::from(bytes))
                        .map_err(|e| ShardError::Io(format!("level store decode failed: {e}")))
                })
            }),
        )?;
        let mut parts = parts.into_iter();
        let Some(mut acc) = parts.next() else {
            return Err(ErrorEnvelope::new(
                ErrorCode::Internal,
                "cluster produced no level stores",
            ));
        };
        for part in parts {
            acc = acc.merge(&part).map_err(|e| {
                ErrorEnvelope::new(
                    ErrorCode::Internal,
                    format!("level store merge failed: {e}"),
                )
            })?;
        }
        let merged = Arc::new(acc);
        let mut cache = self.levels.lock();
        if cache.len() >= LEVEL_CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, Arc::clone(&merged));
        Ok(merged)
    }

    /// Conditioned base-partition row count, summed across partitions.
    fn cluster_count(&self, conditions: &[Condition]) -> Result<u64, ErrorEnvelope> {
        let key = cond_key(conditions);
        if let Some(&hit) = self.counts.lock().get(&key) {
            return Ok(hit);
        }
        let request = InternalCountRequest {
            conditions: wire_conditions(conditions),
        }
        .encode();
        let counts = self.gather_parts(
            "count fan-out",
            self.fan_out_partitions(|p| {
                self.try_replicas(p, |shard| {
                    let body = shard.call("POST", "/internal/count", Some(&request))?;
                    InternalCountResponse::parse(&body)
                        .map(|r| r.count)
                        .map_err(ShardError::Io)
                })
            }),
        )?;
        let total: u64 = counts.iter().sum();
        let mut cache = self.counts.lock();
        if cache.len() >= LEVEL_CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, total);
        Ok(total)
    }

    /// Write one partition's sub-batch — the rows of `rows` at the
    /// indices `picked` — to every live replica. The body is written
    /// straight from the borrowed labels. The partition acks when at
    /// least one replica acked; replicas that missed a non-empty write
    /// get owned copies of the rows queued for replay. Failed writes
    /// are *not* retried in place — replay-on-recovery probes the
    /// replica's durable row count first and is therefore safe against
    /// lost acks, where an in-place retry could double-apply.
    fn ingest_partition(
        &self,
        partition: usize,
        rows: &LabelRows<'_>,
        picked: &[usize],
    ) -> Result<IngestAck, PartitionDown> {
        let sub = picked.iter().filter_map(|&i| rows.row(i));
        let body = encode_rows(sub.clone());
        let mut failures: Vec<(usize, ReplicaFailure)> = Vec::new();
        let mut missed: Vec<usize> = Vec::new();
        let mut ack: Option<IngestAck> = None;
        for g in replica_set(partition, self.n_partitions, self.replicas) {
            let Some(shard) = self.shards.get(g) else {
                continue;
            };
            // Per-replica seam: a skipped replica is a miss, queued for
            // catch-up replay like any other write failure.
            let admitted = fail::inject(Seam::ClusterIngestReplica)
                .map_err(ReplicaFailure::Failpoint)
                .and_then(|()| self.admit_replica(g, shard));
            if let Err(why) = admitted {
                failures.push((g, why));
                missed.push(g);
                continue;
            }
            match post_ingest(shard, &body) {
                Ok(replica_ack) => {
                    self.health.record_success(g);
                    ack = Some(match ack {
                        None => IngestAck {
                            accepted: replica_ack.accepted,
                            rows_total: replica_ack.rows_total,
                            generation: replica_ack.generation,
                        },
                        Some(prev) => IngestAck {
                            accepted: prev.accepted.min(replica_ack.accepted),
                            rows_total: prev.rows_total.max(replica_ack.rows_total),
                            generation: prev.generation.max(replica_ack.generation),
                        },
                    });
                }
                Err(e @ ShardError::Status { status, .. }) if (400..500).contains(&status) => {
                    // The batch itself is bad: every replica would
                    // reject it identically, so fail the partition
                    // without queueing anything. The replica answered,
                    // though — record the success so a half-open probe
                    // closes instead of wedging at Deny.
                    self.health.record_success(g);
                    failures.push((g, ReplicaFailure::Shard(e)));
                    return Err(PartitionDown {
                        partition,
                        failures,
                        worker_panicked: false,
                    });
                }
                Err(e) => {
                    note_failure(&self.health, &self.metrics, g);
                    failures.push((g, ReplicaFailure::Shard(e)));
                    missed.push(g);
                }
            }
        }
        let Some(ack) = ack else {
            return Err(PartitionDown {
                partition,
                failures,
                worker_panicked: false,
            });
        };
        if let Some(total) = self.part_ingested.get(partition) {
            total.fetch_max(ack.rows_total, Ordering::Relaxed);
        }
        if !picked.is_empty() {
            for g in missed {
                if let Some(queue) = self.catchup.get(g) {
                    let owned: Vec<Vec<String>> = sub
                        .clone()
                        .map(|row| row.iter().map(|f| f.as_ref().to_owned()).collect())
                        .collect();
                    queue.lock().rows.extend(owned);
                }
            }
        }
        Ok(ack)
    }
}

/// The distributed [`DrillPopulation`]: levels are merged shard
/// partials, descent is a schema validity probe plus a cluster-wide
/// emptiness count. A shard failure mid-walk is stashed as the `/v1`
/// envelope; the walk carries a placeholder [`CompareError`] out and
/// the caller swaps it for [`RootPopulation::take_failure`].
struct ClusterPopulation<'a> {
    co: &'a Coordinator,
    /// The compared attribute: the cubes a conditioned level demands.
    anchor: usize,
    conditions: Vec<Condition>,
    failure: Option<ErrorEnvelope>,
}

impl ClusterPopulation<'_> {
    fn fan_out_failed(&mut self, env: ErrorEnvelope) -> CompareError {
        let carrier = CompareError::Fault(FaultError::Injected(format!(
            "cluster fan-out failed: {}",
            env.message
        )));
        self.failure = Some(env);
        carrier
    }
}

impl DrillPopulation for ClusterPopulation<'_> {
    fn schema(&self) -> &Schema {
        self.co.om.dataset().schema()
    }

    fn level_store(&mut self, attrs: Vec<usize>) -> Result<Arc<CubeStore>, CompareError> {
        match self
            .co
            .cluster_level_store(&self.conditions, &attrs, self.anchor)
        {
            Ok(store) => Ok(store),
            Err(env) => Err(self.fan_out_failed(env)),
        }
    }

    fn descend(&mut self, condition: Condition) -> Result<Descent, CompareError> {
        // Each condition costs a cluster-wide count; the seam bounds the
        // walk the same way compare.drill-level bounds levels.
        if let Err(e) = fail::inject(Seam::ClusterValidatePrefix) {
            let env = self
                .co
                .overloaded(format!("prefix validation aborted: {e}"));
            return Err(self.fan_out_failed(env));
        }
        // Validity first — the schema-only check a single node's narrow
        // applies — then emptiness, summed over the partitions.
        if let Err(e) = self
            .schema()
            .check_condition(condition.attr, condition.value)
        {
            return Ok(Descent::Invalid(e));
        }
        let mut probe = self.conditions.clone();
        probe.push(condition);
        match self.co.cluster_count(&probe) {
            Ok(0) => Ok(Descent::Empty),
            Ok(_) => {
                self.conditions = probe;
                Ok(Descent::Narrowed)
            }
            Err(env) => Err(self.fan_out_failed(env)),
        }
    }
}

impl RootPopulation for ClusterPopulation<'_> {
    fn take_failure(&mut self) -> Option<ErrorEnvelope> {
        self.failure.take()
    }
}

impl EngineOps for Coordinator {
    fn engine(&self) -> &OpportunityMap {
        &self.om
    }

    fn pin_store(
        &self,
        allow_partial: bool,
        _budget: &Budget,
    ) -> Result<(Arc<StoreSnapshot>, Option<CoverageWire>), OpsError> {
        Ok(self.pinned_store_with(allow_partial)?)
    }

    fn drill_root(&self, anchor: usize) -> Result<Box<dyn RootPopulation + '_>, OpsError> {
        Ok(Box::new(ClusterPopulation {
            co: self,
            anchor,
            conditions: Vec::new(),
            failure: None,
        }))
    }

    fn ingest_enabled(&self) -> bool {
        self.ingest
    }

    fn ingest_table(&self, rows: &LabelRows<'_>) -> Result<IngestAck, OpsError> {
        if !self.ingest {
            return Err(ErrorEnvelope::new(
                ErrorCode::NotFound,
                "live ingestion is not enabled (start the server with an ingest WAL)",
            )
            .into());
        }
        // One pass over the table: validate each row against the shared
        // schema (all-or-nothing with the exact single-node bad_row
        // envelope, so no shard ever sees a batch its siblings would
        // reject), and route it by index. No row is copied.
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); self.n_partitions];
        for (i, row) in rows.iter().enumerate() {
            self.parser
                .validate_fields(row, i + 1)
                .map_err(|e| OpsError::Envelope(ingest_envelope(&e)))?;
            if let Some(part) = parts.get_mut(route_fields(row, self.n_partitions)) {
                part.push(i);
            }
        }
        ClusterMetrics::add(&self.metrics.ingest_rows_routed_total, rows.len() as u64);
        // Every partition gets a write fan-out — an empty batch for
        // partitions the router assigned nothing. The ack's
        // `rows_total` is cumulative per partition, so the cluster-wide
        // total is only right if every partition reports.
        let acks = self
            .gather_parts(
                "ingest fan-out",
                self.fan_out_partitions(|p| {
                    let picked = parts.get(p).map(Vec::as_slice).unwrap_or(&[]);
                    self.ingest_partition(p, rows, picked)
                }),
            )
            .map_err(OpsError::Envelope)?;
        let mut ack = IngestAck {
            accepted: 0,
            rows_total: 0,
            generation: 0,
        };
        for part_ack in acks {
            ack.accepted += part_ack.accepted;
            ack.rows_total += part_ack.rows_total;
            // Shard generations advance independently; report the
            // furthest one (documented divergence from a single node's
            // scalar generation).
            ack.generation = ack.generation.max(part_ack.generation);
        }
        Ok(ack)
    }

    fn write_metrics(&self, out: &mut Exposition) {
        self.metrics
            .breaker_open
            .store(self.health.open_count(), Ordering::Relaxed);
        self.metrics.write(out);
    }
}
