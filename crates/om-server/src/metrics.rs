//! Lock-free server counters, a fixed-bucket latency histogram, and the
//! one `/metrics` text writer.
//!
//! Everything is a relaxed `AtomicU64`: workers record without
//! coordination and `/metrics` renders a consistent-enough snapshot.
//! Percentiles are interpolated within fixed microsecond buckets, which
//! bounds memory at a few hundred bytes regardless of request volume.
//! Every family a body carries, the server's, ingest's and a
//! coordinator's, goes through [`Exposition`].

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use om_engine::IngestStats;

/// The endpoints the daemon serves, used as metric labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Healthz,
    Metrics,
    Compare,
    Drill,
    Gi,
    CubeSlice,
    Ingest,
    /// `/v1/compare/batch`.
    Batch,
    /// `/v1/explore`.
    Explore,
    /// Anything else (404s and parse failures).
    Other,
}

impl Endpoint {
    /// All endpoints in render order.
    pub const ALL: [Endpoint; 10] = [
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Compare,
        Endpoint::Drill,
        Endpoint::Gi,
        Endpoint::CubeSlice,
        Endpoint::Ingest,
        Endpoint::Batch,
        Endpoint::Explore,
        Endpoint::Other,
    ];

    /// Classify a decoded request path.
    #[must_use]
    pub fn classify(path: &str) -> Self {
        match path {
            "/healthz" => Endpoint::Healthz,
            "/metrics" => Endpoint::Metrics,
            "/v1/compare" => Endpoint::Compare,
            "/v1/drill" => Endpoint::Drill,
            "/v1/gi" => Endpoint::Gi,
            "/v1/cube/slice" => Endpoint::CubeSlice,
            "/v1/ingest" => Endpoint::Ingest,
            "/v1/compare/batch" => Endpoint::Batch,
            "/v1/explore" => Endpoint::Explore,
            _ => Endpoint::Other,
        }
    }

    /// The metric label of this endpoint.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Compare => "compare",
            Endpoint::Drill => "drill",
            Endpoint::Gi => "gi",
            Endpoint::CubeSlice => "cube_slice",
            Endpoint::Ingest => "ingest",
            Endpoint::Batch => "compare_batch",
            Endpoint::Explore => "explore",
            Endpoint::Other => "other",
        }
    }
}

/// Upper bounds (µs) of the latency buckets; the last bucket is +inf.
const BUCKET_BOUNDS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

/// Fixed-bucket latency histogram with interpolated percentiles.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    /// Record one latency observation.
    pub fn record_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        #[expect(
            clippy::indexing_slicing,
            reason = "idx ≤ BOUNDS.len(); buckets has len+1 slots"
        )]
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0 < q < 1`) in µs, linearly interpolated within
    /// its bucket; `None` with no observations.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if cumulative + in_bucket >= target {
                let lo = idx
                    .checked_sub(1)
                    .and_then(|i| BUCKET_BOUNDS_US.get(i))
                    .copied()
                    .unwrap_or(0);
                let hi = BUCKET_BOUNDS_US.get(idx).copied().unwrap_or(lo * 2);
                // Position of the target rank within this bucket.
                let frac = if in_bucket == 0 {
                    0.0
                } else {
                    (target - cumulative) as f64 / in_bucket as f64
                };
                return Some(lo + ((hi - lo) as f64 * frac) as u64);
            }
            cumulative += in_bucket;
        }
        // Unreachable with a consistent count, but racing increments can
        // leave the sum of buckets momentarily behind `count`.
        Some(BUCKET_BOUNDS_US.last().copied().unwrap_or(0))
    }

    /// The rendered quantiles, p50, p95 and p99 in µs (0 when empty).
    fn quantiles(&self) -> [(&'static str, u64); 3] {
        [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)]
            .map(|(name, q)| (name, self.quantile_us(q).unwrap_or(0)))
    }
}

/// All counters of one server instance.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: [AtomicU64; Endpoint::ALL.len()],
    errors: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    panics_caught: AtomicU64,
    queue_depth: AtomicU64,
    latency: Histogram,
    explore_steps: AtomicU64,
    explore_summaries: AtomicU64,
    explore_budget_exhausted: AtomicU64,
    explore_latency: Histogram,
}

impl Metrics {
    /// Index of `endpoint` in the `requests` array. Exhaustive match:
    /// every variant has a slot by construction, nothing to search or
    /// panic over.
    fn slot(endpoint: Endpoint) -> usize {
        match endpoint {
            Endpoint::Healthz => 0,
            Endpoint::Metrics => 1,
            Endpoint::Compare => 2,
            Endpoint::Drill => 3,
            Endpoint::Gi => 4,
            Endpoint::CubeSlice => 5,
            Endpoint::Ingest => 6,
            Endpoint::Batch => 7,
            Endpoint::Explore => 8,
            Endpoint::Other => 9,
        }
    }

    /// Count one request against its endpoint.
    pub fn record_request(&self, endpoint: Endpoint) {
        #[expect(
            clippy::indexing_slicing,
            reason = "slot() < ALL.len() by exhaustive match"
        )]
        self.requests[Self::slot(endpoint)].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one non-2xx response.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request's wall-clock latency.
    pub fn record_latency_us(&self, us: u64) {
        self.latency.record_us(us);
    }

    /// Count a connection rejected because the admission queue was full.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a request that ran out of its engine budget.
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a handler panic caught by the worker's isolation barrier.
    pub fn record_panic_caught(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one finished `/v1/explore` answer: greedy steps executed,
    /// summaries served, whether the budget cut it short, and the
    /// exploration's own wall-clock latency.
    pub fn record_explore(&self, steps: u64, summaries: u64, truncated: bool, us: u64) {
        self.explore_steps.fetch_add(steps, Ordering::Relaxed);
        self.explore_summaries
            .fetch_add(summaries, Ordering::Relaxed);
        if truncated {
            self.explore_budget_exhausted
                .fetch_add(1, Ordering::Relaxed);
        }
        self.explore_latency.record_us(us);
    }

    /// Count a `/v1/explore` whose budget expired before any summary
    /// finished (the request answered with an overload envelope).
    pub fn record_explore_exhausted(&self) {
        self.explore_budget_exhausted
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A connection entered the admission queue.
    pub fn queue_enter(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker picked a connection off the admission queue.
    pub fn queue_leave(&self) {
        // Saturating: a racing render between enter/leave only ever sees
        // a depth that momentarily existed, never an underflow.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| d.checked_sub(1));
    }

    /// Requests seen for `endpoint`.
    #[must_use]
    pub fn requests(&self, endpoint: Endpoint) -> u64 {
        #[expect(
            clippy::indexing_slicing,
            reason = "slot() < ALL.len() by exhaustive match"
        )]
        self.requests[Self::slot(endpoint)].load(Ordering::Relaxed)
    }

    /// Total error responses.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Connections shed at admission so far.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Requests that exceeded their engine budget so far.
    #[must_use]
    pub fn deadline_exceeded(&self) -> u64 {
        self.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Handler panics caught so far.
    #[must_use]
    pub fn panics_caught(&self) -> u64 {
        self.panics_caught.load(Ordering::Relaxed)
    }

    /// Connections currently waiting in the admission queue.
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Write the server's own families into a `/metrics` body.
    pub fn write(&self, out: &mut Exposition) {
        let n = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let requests = Endpoint::ALL.map(|e| (e.label(), self.requests(e)));
        out.labeled("om_requests_total", "endpoint", requests);
        out.scalar("om_errors_total", n(&self.errors));
        out.scalar("om_shed_total", n(&self.shed));
        out.scalar("om_deadline_exceeded_total", n(&self.deadline_exceeded));
        out.scalar("om_panics_caught_total", n(&self.panics_caught));
        out.scalar("om_queue_depth", n(&self.queue_depth));
        out.scalar("om_latency_samples_total", self.latency.count());
        out.labeled("om_latency_us", "quantile", self.latency.quantiles());
        out.scalar("om_explore_steps_total", n(&self.explore_steps));
        out.scalar("om_explore_summaries_total", n(&self.explore_summaries));
        out.scalar(
            "om_explore_budget_exhausted_total",
            n(&self.explore_budget_exhausted),
        );
        out.scalar(
            "om_explore_latency_samples_total",
            self.explore_latency.count(),
        );
        out.labeled(
            "om_explore_latency_us",
            "quantile",
            self.explore_latency.quantiles(),
        );
    }
}

/// Write a live ingestor's families into a `/metrics` body.
pub fn write_ingest(out: &mut Exposition, stats: &IngestStats) {
    out.scalar("om_ingest_rows_total", stats.rows_total);
    out.scalar(
        "om_ingest_segments_sealed_total",
        stats.segments_sealed_total,
    );
    out.scalar("om_compactions_total", stats.compactions_total);
    out.scalar("om_ingest_merge_failures_total", stats.merge_failures_total);
    out.scalar("om_store_generation", stats.store_generation);
    out.scalar("om_wal_bytes", stats.wal_bytes);
}

/// The text exposition served at `/metrics`, the one place its lines
/// are formatted. Each family is one `# TYPE` line (`counter` for a
/// `_total` name, `gauge` otherwise) followed by its samples.
#[derive(Debug, Default)]
pub struct Exposition(String);

impl Exposition {
    /// A family with one unlabelled sample.
    pub fn scalar(&mut self, name: &str, value: u64) {
        self.declare(name);
        let _ = writeln!(self.0, "{name} {value}");
    }

    /// A family with one sample per `(label value, sample value)` pair,
    /// all keyed by `label`.
    pub fn labeled<'a>(
        &mut self,
        name: &str,
        label: &str,
        samples: impl IntoIterator<Item = (&'a str, u64)>,
    ) {
        self.declare(name);
        for (key, value) in samples {
            let _ = writeln!(self.0, "{name}{{{label}=\"{key}\"}} {value}");
        }
    }

    fn declare(&mut self, name: &str) {
        let kind = if name.ends_with("_total") {
            "counter"
        } else {
            "gauge"
        };
        let _ = writeln!(self.0, "# TYPE {name} {kind}");
    }

    /// The finished body.
    #[must_use]
    pub fn finish(self) -> String {
        self.0
    }
}

/// The family names of a `/metrics` body in order, if it keeps the
/// exposition's grammar: every family opens with one
/// `# TYPE <name> counter|gauge` line, every other line is a sample
/// `<name>[{labels}] <u64>` of the family opened last, and no family
/// opens twice.
///
/// # Errors
/// The first line that breaks the grammar.
pub fn families(text: &str) -> Result<Vec<&str>, String> {
    let mut families: Vec<&str> = Vec::new();
    for line in text.lines() {
        let well_formed = match line.strip_prefix("# TYPE ").map(|d| d.split_once(' ')) {
            Some(Some((name, "counter" | "gauge"))) => {
                let fresh = !families.contains(&name);
                families.push(name);
                fresh && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
            }
            Some(_) => false,
            None => line.rsplit_once(' ').is_some_and(|(series, value)| {
                let name = match series.strip_suffix("\"}") {
                    Some(labeled) => labeled.split_once('{').filter(|(_, l)| l.contains("=\"")),
                    None => Some((series, "")),
                };
                value.parse::<u64>().is_ok() && name.map(|(n, _)| n) == families.last().copied()
            }),
        };
        if !well_formed {
            return Err(format!("malformed /metrics line {line:?}"));
        }
    }
    Ok(families)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(m: &Metrics) -> String {
        let mut out = Exposition::default();
        m.write(&mut out);
        out.finish()
    }

    #[test]
    fn endpoint_classification() {
        assert_eq!(Endpoint::classify("/v1/compare"), Endpoint::Compare);
        assert_eq!(Endpoint::classify("/v1/drill"), Endpoint::Drill);
        assert_eq!(Endpoint::classify("/v1/gi"), Endpoint::Gi);
        assert_eq!(Endpoint::classify("/v1/cube/slice"), Endpoint::CubeSlice);
        assert_eq!(Endpoint::classify("/v1/ingest"), Endpoint::Ingest);
        assert_eq!(Endpoint::classify("/v1/compare/batch"), Endpoint::Batch);
        assert_eq!(Endpoint::classify("/v1/explore"), Endpoint::Explore);
        for retired in [
            "/nope",
            "/compare",
            "/drill",
            "/gi",
            "/cube/slice",
            "/ingest",
        ] {
            assert_eq!(Endpoint::classify(retired), Endpoint::Other, "{retired}");
        }
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record_us(80); // bucket (50, 100]
        }
        h.record_us(400_000); // bucket (250k, 500k]
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_us(0.5).unwrap();
        assert!((50..=100).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_us(0.99).unwrap();
        assert!((50..=100).contains(&p99), "p99 = {p99}");
        // The single outlier dominates only beyond rank 99.
        let p995 = h.quantile_us(0.995).unwrap();
        assert!(p995 > 250_000, "p99.5 = {p995}");
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        assert_eq!(Histogram::default().quantile_us(0.5), None);
    }

    #[test]
    fn overflow_bucket_counts() {
        let h = Histogram::default();
        h.record_us(10_000_000);
        assert_eq!(h.count(), 1);
        assert!(h.quantile_us(0.5).unwrap() >= 1_000_000);
    }

    #[test]
    fn render_contains_all_series() {
        let m = Metrics::default();
        m.record_request(Endpoint::Compare);
        m.record_request(Endpoint::Compare);
        m.record_error();
        m.record_latency_us(120);
        let text = render(&m);
        assert!(text.contains("om_requests_total{endpoint=\"compare\"} 2"));
        assert!(text.contains("om_requests_total{endpoint=\"drill\"} 0"));
        assert!(text.contains("om_errors_total 1"));
        assert!(text.contains("om_latency_samples_total 1"));
        assert!(text.contains("om_latency_us{quantile=\"0.99\"}"));
    }

    #[test]
    fn overload_counters_render() {
        let m = Metrics::default();
        m.record_shed();
        m.record_shed();
        m.record_deadline_exceeded();
        m.record_panic_caught();
        m.queue_enter();
        m.queue_enter();
        m.queue_leave();
        let text = render(&m);
        assert!(text.contains("om_shed_total 2"));
        assert!(text.contains("om_deadline_exceeded_total 1"));
        assert!(text.contains("om_panics_caught_total 1"));
        assert!(text.contains("om_queue_depth 1"));
    }

    #[test]
    fn explore_counters_render() {
        let m = Metrics::default();
        m.record_explore(5, 5, false, 800);
        m.record_explore(2, 2, true, 1_500);
        m.record_explore_exhausted();
        let text = render(&m);
        assert!(text.contains("om_explore_steps_total 7"));
        assert!(text.contains("om_explore_summaries_total 7"));
        assert!(text.contains("om_explore_budget_exhausted_total 2"));
        assert!(text.contains("om_explore_latency_samples_total 2"));
        assert!(text.contains("om_explore_latency_us{quantile=\"0.99\"}"));
    }

    #[test]
    fn queue_depth_never_underflows() {
        let m = Metrics::default();
        m.queue_leave();
        assert_eq!(m.queue_depth(), 0);
        m.queue_enter();
        m.queue_leave();
        m.queue_leave();
        assert_eq!(m.queue_depth(), 0);
    }

    #[test]
    fn every_family_is_typed_once_before_its_samples() {
        let text = render(&Metrics::default());
        assert_eq!(families(&text).unwrap().len(), 13, "{text}");
        assert!(text.starts_with("# TYPE om_requests_total counter\nom_requests_total{"));
        assert!(text.contains("# TYPE om_queue_depth gauge\nom_queue_depth 0\n"));
    }

    #[test]
    fn families_rejects_what_the_writer_never_emits() {
        for bad in [
            "om_shed_total 0\n",
            "# TYPE om_a_total counter\nom_b_total 0\n",
            "# TYPE om_a_total counter\n# TYPE om_a_total counter\n",
            "# TYPE om_a_total histogram\n",
            "# TYPE om_a_total counter\nom_a_total -1\n",
            "# TYPE om_a_total counter\nom_a_total{x} 1\n",
        ] {
            assert!(families(bad).is_err(), "{bad:?}");
        }
    }
}
