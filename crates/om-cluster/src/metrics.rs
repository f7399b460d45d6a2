//! Coordinator counters, written into `/metrics` by om-server's
//! [`Exposition`].
//!
//! Same conventions as om-server's own registry: monotonic atomics,
//! relaxed ordering (these are operator telemetry, not synchronization).

use std::sync::atomic::{AtomicU64, Ordering};

use om_server::metrics::Exposition;

/// The `om_cluster_*` series.
#[derive(Debug, Default)]
pub struct ClusterMetrics {
    /// Number of shard processes in the topology (a gauge; set once at
    /// connect — `partitions * replicas`).
    pub shards: AtomicU64,
    /// Number of partitions in the topology (a gauge; set at connect).
    pub partitions: AtomicU64,
    /// Replication factor (a gauge; set at connect).
    pub replicas: AtomicU64,
    /// Shard fan-outs performed (one per distributed operation, not per
    /// shard request).
    pub fanouts_total: AtomicU64,
    /// Shard requests that failed (transport error or non-2xx).
    pub shard_errors_total: AtomicU64,
    /// Same-replica retries after a transport failure (each one paid a
    /// capped, jittered backoff first).
    pub retries_total: AtomicU64,
    /// Failovers to the next replica after a replica was exhausted.
    pub failovers_total: AtomicU64,
    /// Hedged store fetches fired because the preferred replica ran
    /// past the hedge latency threshold.
    pub hedges_total: AtomicU64,
    /// Breakers currently not closed (a gauge; refreshed on render).
    pub breaker_open: AtomicU64,
    /// Breaker transitions into the open state.
    pub breaker_opens_total: AtomicU64,
    /// Half-open probes admitted against suspect replicas.
    pub breaker_probes_total: AtomicU64,
    /// Store fetches retried because a shard moved generations between
    /// the pin poll and the fetch.
    pub stale_retries_total: AtomicU64,
    /// Merged-store rebuilds (a cache miss on the pinned generation
    /// vector).
    pub store_refreshes_total: AtomicU64,
    /// Drill-level stores served from the coordinator's merge cache.
    pub level_cache_hits_total: AtomicU64,
    /// Drill-level stores that required a shard fan-out and merge.
    pub level_cache_misses_total: AtomicU64,
    /// Bytes of `200` response bodies received from shards on
    /// `/internal/level` (the base64 JSON as it crossed the socket).
    pub level_bytes_total: AtomicU64,
    /// The same for `/internal/store`.
    pub store_bytes_total: AtomicU64,
    /// Rows routed to shards by live ingestion.
    pub ingest_rows_routed_total: AtomicU64,
    /// Rows replayed to a recovered replica that missed writes.
    pub catchup_rows_total: AtomicU64,
    /// Degraded-mode answers served with a coverage envelope
    /// (`allow_partial` requests that skipped dead partitions).
    pub partial_answers_total: AtomicU64,
}

impl ClusterMetrics {
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Write the cluster families into the coordinator's `/metrics`.
    pub fn write(&self, out: &mut Exposition) {
        for (name, counter) in [
            ("om_cluster_shards", &self.shards),
            ("om_cluster_partitions", &self.partitions),
            ("om_cluster_replicas", &self.replicas),
            ("om_cluster_fanouts_total", &self.fanouts_total),
            ("om_cluster_shard_errors_total", &self.shard_errors_total),
            ("om_cluster_retries_total", &self.retries_total),
            ("om_cluster_failovers_total", &self.failovers_total),
            ("om_cluster_hedges_total", &self.hedges_total),
            ("om_cluster_breaker_open", &self.breaker_open),
            ("om_cluster_breaker_opens_total", &self.breaker_opens_total),
            (
                "om_cluster_breaker_probes_total",
                &self.breaker_probes_total,
            ),
            ("om_cluster_stale_retries_total", &self.stale_retries_total),
            (
                "om_cluster_store_refreshes_total",
                &self.store_refreshes_total,
            ),
            (
                "om_cluster_level_cache_hits_total",
                &self.level_cache_hits_total,
            ),
            (
                "om_cluster_level_cache_misses_total",
                &self.level_cache_misses_total,
            ),
            ("om_cluster_level_bytes_total", &self.level_bytes_total),
            ("om_cluster_store_bytes_total", &self.store_bytes_total),
            (
                "om_cluster_ingest_rows_routed_total",
                &self.ingest_rows_routed_total,
            ),
            ("om_cluster_catchup_rows_total", &self.catchup_rows_total),
            (
                "om_cluster_partial_answers_total",
                &self.partial_answers_total,
            ),
        ] {
            out.scalar(name, counter.load(Ordering::Relaxed));
        }
    }
}

#[cfg(test)]
mod tests {
    use om_server::metrics::families;

    use super::*;

    #[test]
    fn renders_every_series() {
        let m = ClusterMetrics::default();
        m.shards.store(4, Ordering::Relaxed);
        ClusterMetrics::add(&m.fanouts_total, 3);
        ClusterMetrics::add(&m.retries_total, 2);
        ClusterMetrics::add(&m.hedges_total, 1);
        let mut out = Exposition::default();
        m.write(&mut out);
        let text = out.finish();
        assert_eq!(families(&text).unwrap().len(), 20, "{text}");
        assert!(text.starts_with("# TYPE om_cluster_shards gauge\nom_cluster_shards 4\n"));
        assert!(text.contains("\nom_cluster_fanouts_total 3\n"));
        assert!(text.contains("\nom_cluster_retries_total 2\n"));
        assert!(text.contains("\nom_cluster_hedges_total 1\n"));
        assert!(text.contains("# TYPE om_cluster_retries_total counter\n"));
    }
}
