//! The compiled-in contract: workload and metric names, units, bounds.
//! `BENCHMARK.json` is this table written out (`spec --emit`), and
//! `spec --check` proves the file still says what the program prints.

use om_api::Json;

use crate::workload::{Op, Workload, RUN_SECONDS};

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median a metric may
    /// worsen by before a change counts as a regression.
    pub bound: Option<f64>,
}

fn e2e(name: &str, unit: &'static str, better: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name: name.to_owned(),
        unit,
        better,
        bound: Some(bound),
    }
}

/// The end-to-end metrics; every workload reports all of them.
///
/// Both bounds are wider than ISSUE 12's (0.20 and 0.05), because the
/// contract rejects a benchmark whose spread over ten seeds exceeds a
/// bound or whose median moves by more than it between two sets
/// (`perfbench/README.md` has the measurements). `setup_s` has the widest
/// bound the contract allows, as the contract asks: it is one sample per
/// run, it cannot move to the per-layer list, and between two sets of ten
/// runs twenty minutes apart its median moved by up to 24.5 % with the
/// host. `peak_rss_mb` on `wide_single` moves in steps of 11 MB during
/// the ingest phase (about one store generation the allocator keeps or
/// returns): 642-677 MB, an IQR/median of up to 0.048.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        e2e("setup_s", "s", "lower", 0.25),
        e2e("peak_rss_mb", "MB", "lower", 0.10),
    ]
}

/// The client-side timings of the read and ingest phases: (name, unit,
/// better). ISSUE 12 proposed them as end-to-end metrics with a bound of
/// 0.15 each. On the reference host, over ten seeds, every one of them
/// had an IQR/median above 0.15 on some workload; at one seed seven to ten of them, depending on the hour (the
/// host slows by a quarter for a minute at a time, and a run's whole
/// read phase with it; `perfbench/README.md` has the tables). The time
/// cap on a run leaves no room for more rounds. By the issue's own rule
/// they are per-layer metrics, `client.<name>`, and carry no bound.
pub const CLIENT_TIMINGS: [(&str, &str, &str); 10] = [
    ("compare_p50_ms", "ms", "lower"),
    ("drill_p50_ms", "ms", "lower"),
    ("explore_p50_ms", "ms", "lower"),
    ("batch_p50_ms", "ms", "lower"),
    ("gi_p50_ms", "ms", "lower"),
    ("slice_p50_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("ingest_rows_per_s", "1/s", "higher"),
    ("refresh_read_p50_ms", "ms", "lower"),
];

/// (name, unit, better) of every per-layer metric except the
/// per-operation client ones, which [`per_layer`] spells out.
const LAYER: &[(&str, &str, &str)] = &[
    ("om-discretize.discretize_ms", "ms", "lower"),
    ("om-cube.store_build_ms", "ms", "lower"),
    ("om-cube.index_build_ms", "ms", "lower"),
    ("om-cube.store_bytes", "B", "lower"),
    ("om-cube.index_bytes", "B", "lower"),
    ("om-cube.narrow_us", "us", "lower"),
    ("om-cube.count_us", "us", "lower"),
    ("om-cube.anchored_scan_ms", "ms", "lower"),
    ("om-cube.rows_selected_per_scan", "count", "lower"),
    ("om-cube.lazy_pair_builds", "count", "lower"),
    ("om-cube.encode_store_ms", "ms", "lower"),
    ("om-cube.decode_store_ms", "ms", "lower"),
    ("om-cube.store_wire_bytes", "B", "lower"),
    ("om-cube.merge_ms", "ms", "lower"),
    ("om-cube.delta_build_ms", "ms", "lower"),
    ("om-cube.merge_from_ms", "ms", "lower"),
    ("om-compare.rank_ms", "ms", "lower"),
    ("om-compare.attrs_scored_per_rank", "count", "lower"),
    ("om-compare.drill_ms", "ms", "lower"),
    ("om-exec.rank_parallel_ms.w1", "ms", "lower"),
    ("om-exec.rank_parallel_ms.wN", "ms", "lower"),
    ("om-exec.batch_ms", "ms", "lower"),
    ("om-exec.batch_shared_ratio", "ratio", "lower"),
    ("om-explore.explore_ms", "ms", "lower"),
    ("om-explore.explore_compare_ms", "ms", "lower"),
    ("om-gi.report_ms", "ms", "lower"),
    ("om-engine.build_ms", "ms", "lower"),
    ("om-engine.compare_ms", "ms", "lower"),
    ("om-engine.drill_ms", "ms", "lower"),
    ("om-engine.explore_ms", "ms", "lower"),
    ("om-engine.batch_ms", "ms", "lower"),
    ("om-engine.gi_ms", "ms", "lower"),
    ("om-engine.slice_us", "us", "lower"),
    ("om-engine.unattributed_ms", "ms", "lower"),
    ("om-api.request_parse_us", "us", "lower"),
    ("om-api.response_encode_us.compare", "us", "lower"),
    ("om-api.response_bytes.compare", "B", "lower"),
    ("om-api.response_encode_us.batch", "us", "lower"),
    ("om-api.ingest_parse_us_per_row", "us", "lower"),
    ("om-server.transport_us", "us", "lower"),
    ("om-server.connect_us", "us", "lower"),
    ("om-server.http_parse_us", "us", "lower"),
    ("om-server.write_us", "us", "lower"),
    ("om-server.ops_per_s.c2", "1/s", "higher"),
    ("om-server.shed_total", "count", "lower"),
    ("om-server.deadline_exceeded_total", "count", "lower"),
    ("om-server.errors_total", "count", "lower"),
    ("om-server.panics_caught_total", "count", "lower"),
    ("om-ingest.append_rows_per_s", "1/s", "higher"),
    ("om-ingest.append_rows_per_s.nosync", "1/s", "higher"),
    ("om-ingest.append_labeled_rows_per_s", "1/s", "higher"),
    ("om-ingest.seal_ms", "ms", "lower"),
    ("om-ingest.flush_ms", "ms", "lower"),
    ("om-ingest.wal_bytes_per_row", "B", "lower"),
    ("om-ingest.segments_sealed", "count", "lower"),
    ("om-ingest.compactions", "count", "lower"),
    ("om-ingest.merge_failures", "count", "lower"),
    ("om-ingest.recovery_replay_ms", "ms", "lower"),
    ("om-ingest.read_p50_ms.under_ingest", "ms", "lower"),
    ("om-cluster.partition_ms", "ms", "lower"),
    ("om-cluster.connect_ms", "ms", "lower"),
    ("om-cluster.generation_poll_us", "us", "lower"),
    ("om-cluster.steady_pin_us", "us", "lower"),
    ("om-cluster.store_fetch_ms", "ms", "lower"),
    ("om-cluster.store_fetch_bytes", "B", "lower"),
    ("om-cluster.refresh_ms", "ms", "lower"),
    ("om-cluster.level_fanout_ms", "ms", "lower"),
    ("om-cluster.drill_hit_ms", "ms", "lower"),
    ("om-cluster.level_cache_hit_share", "ratio", "higher"),
    ("om-cluster.shard_requests_per_op", "count", "lower"),
    ("om-cluster.store_refreshes", "count", "lower"),
    ("om-cluster.stale_retries", "count", "lower"),
    ("om-cluster.retries", "count", "lower"),
    ("om-cluster.hedges", "count", "lower"),
    ("om-cluster.shard_errors", "count", "lower"),
    ("om-cluster.ingest_route_rows_per_s", "1/s", "higher"),
    ("om-cluster.slice_p50_ms.p1", "ms", "lower"),
    ("om-cluster.slice_p50_ms.p2", "ms", "lower"),
    ("om-cluster.slice_p50_ms.p4", "ms", "lower"),
    ("client.compare_p99_ms", "ms", "lower"),
    ("client.slice_p99_ms", "ms", "lower"),
    ("client.refresh_read_n", "count", "higher"),
    ("client.compare_during_ingest_p50_ms", "ms", "lower"),
    ("client.bytes_received", "B", "lower"),
    ("client.attempted_total", "count", "higher"),
    ("client.failed_total", "count", "lower"),
    ("bench.generate_s", "s", "lower"),
    ("bench.ref_spin_us", "us", "lower"),
    ("bench.ref_spin_p90_over_p50", "ratio", "lower"),
    ("bench.tracing_overhead_share", "ratio", "lower"),
];

/// Every per-layer metric, in print order. They carry no bound.
pub fn per_layer() -> Vec<MetricDef> {
    let plain = |name: String, unit, better| MetricDef {
        name,
        unit,
        better,
        bound: None,
    };
    let mut out: Vec<MetricDef> = LAYER
        .iter()
        .filter(|(n, ..)| !n.starts_with("client.") && !n.starts_with("bench."))
        .map(|&(n, u, b)| plain(n.to_owned(), u, b))
        .collect();
    for (name, unit, better) in CLIENT_TIMINGS {
        out.push(plain(format!("client.{name}"), unit, better));
    }
    for op in Op::ALL {
        out.push(plain(format!("client.{}_p95_ms", op.name()), "ms", "lower"));
        out.push(plain(format!("client.{}_n", op.name()), "count", "higher"));
        out.push(plain(
            format!("client.{}_p75_over_p25", op.name()),
            "ratio",
            "lower",
        ));
    }
    out.extend(
        LAYER
            .iter()
            .filter(|(n, ..)| n.starts_with("client.") || n.starts_with("bench."))
            .map(|&(n, u, b)| plain(n.to_owned(), u, b)),
    );
    out
}

/// The driver's command, from the root of a checkout.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

fn s(text: &str) -> Json {
    Json::Str(text.to_owned())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn metric_json(m: &MetricDef) -> Json {
    let mut fields = vec![
        ("name", s(&m.name)),
        ("unit", s(m.unit)),
        ("better", s(m.better)),
    ];
    if let Some(b) = m.bound {
        fields.push(("bound", Json::Num(b)));
    }
    obj(fields)
}

/// `BENCHMARK.json` as the compiled-in tables define it.
pub fn benchmark_json() -> Json {
    obj(vec![
        ("command", Json::Arr(COMMAND.iter().map(|c| s(c)).collect())),
        ("paths", Json::Arr(vec![s("perfbench")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name())), ("why", s(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(metric_json).collect()),
        ),
    ])
}

/// One top-level key per line, so the file diffs well.
pub fn render_benchmark_json() -> String {
    let Json::Obj(fields) = benchmark_json() else {
        unreachable!("benchmark_json builds an object");
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        let sep = if i + 1 == fields.len() { "" } else { "," };
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 == items.len() { "" } else { "," };
                    out.push_str(&format!("    {}{comma}\n", item.encode()));
                }
                out.push_str(&format!("  ]{sep}\n"));
            }
            other => out.push_str(&format!("  \"{key}\": {}{sep}\n", other.encode())),
        }
    }
    out.push_str("}\n");
    out
}

/// Compare the compiled-in tables with a `BENCHMARK.json` on disk.
pub fn check_against(file_text: &str) -> Result<(), String> {
    let on_disk = Json::parse(file_text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let compiled = benchmark_json();
    if on_disk == compiled {
        return Ok(());
    }
    // Name what differs: a stale metric list is the likely cause.
    for key in [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ] {
        if on_disk.get(key) != compiled.get(key) {
            return Err(format!(
                "BENCHMARK.json key {key:?} differs from the compiled-in spec; regenerate it with `om-perfbench spec --emit`"
            ));
        }
    }
    Err("BENCHMARK.json has keys the compiled-in spec does not".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|m| m.name)
            .collect();
        assert!(end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(
            per_layer().len() <= 128,
            "{} per-layer metrics",
            per_layer().len()
        );
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for w in Workload::ALL {
            assert!(w.why().len() <= 200, "{}", w.name());
        }
    }

    #[test]
    fn the_rendered_file_round_trips_and_checks() {
        let text = render_benchmark_json();
        assert_eq!(Json::parse(&text).unwrap(), benchmark_json());
        assert_eq!(check_against(&text), Ok(()));
        let stale = text.replace("drill_p50_ms", "drill_p51_ms");
        assert!(check_against(&stale).unwrap_err().contains("per_layer"));
        assert!(text.len() < 64 * 1024);
    }
}
