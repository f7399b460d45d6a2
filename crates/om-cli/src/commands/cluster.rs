//! `opmap cluster` — spawn a loopback sharded cluster and drive load.
//!
//! The harness provisions a cluster end to end, the same way a real
//! deployment would:
//!
//! 1. build the prepared (discretized) dataset once,
//! 2. split it into hash-routed partitions ([`om_cluster::partition_dataset`]),
//! 3. spawn `--replicas` `opmap serve --data-bin <part>` **processes**
//!    per partition on ephemeral ports (scraping the announced address;
//!    replicas of a partition share the partition bytes but own their
//!    WAL),
//! 4. run the coordinator in-process over those shards,
//! 5. drive a deterministic mix of compare / drill / gi / slice / batch
//!    (and, with `--ingest`, live row) requests at the coordinator.
//!
//! `--verify` additionally runs a single-node server over the *union*
//! of the partitions and asserts every coordinator response is
//! byte-identical to the single node's — the cluster's core contract.
//!
//! `--chaos` exercises the fault-tolerance machinery end to end. With
//! replication it kills one replica of **every** partition mid-load and
//! the load must keep answering 200 (retry, breaker, failover); the
//! victims are later respawned **on their original ports** (std's
//! listener sets `SO_REUSEADDR` on Unix, so the fixed topology rebinds
//! cleanly) and re-join through breaker probes and catch-up replay.
//! After the load, it kills *all* replicas of the last partition and
//! asserts both failure shapes: the default all-or-nothing typed `503`
//! naming the lost partition, and — when more than one partition
//! exists — the `allow_partial` degraded `200` carrying a coverage
//! envelope.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use om_cluster::{partition_dataset, replica_set, ClusterConfig, Coordinator, ShardClient};
use om_data::persist::encode_dataset;
use om_engine::{EngineConfig, IngestConfig, IngestHandle, OpportunityMap};
use om_server::{Server, ServerConfig};

use crate::args::Parsed;
use crate::{CliError, CliResult};

const HELP: &str = "\
opmap cluster — loopback sharded cluster: shard processes + coordinator

Partitions a synthetic dataset across `--shards` partitions by the
stable row hash, spawns `--replicas` `opmap serve` processes per
partition, runs the merging coordinator in-process, and drives a
deterministic mixed workload (compare, drill, gi, slice, batch, and —
with --ingest — live rows) at the coordinator's /v1/* API.

OPTIONS:
  --shards <n>       Partitions to spawn [4]
  --replicas <r>     Shard processes (replicas) per partition [1]
  --records <n>      Synthetic dataset size [20000]
  --seed <n>         Synthetic dataset seed [7]
  --requests <n>     Mixed requests to drive (100000+ for a load run) [5000]
  --seal-rows <n>    Ingested rows between synchronized seal rounds: the
                     harness seals every shard and the verification twin
                     together once this many rows have landed (a shard
                     never seals on its own — independent seal points
                     would make mid-load visibility diverge from the
                     single-node twin) [4096]
  --verify           Also run a single-node server over the union and
                     assert every response is byte-identical
  --chaos            Kill one replica per partition mid-load (the load
                     must keep answering 200 at --replicas 2+), respawn
                     them on their original ports and re-join; then kill
                     a whole partition and assert the typed 503 and the
                     allow_partial coverage envelope
  --ingest           Give every shard a WAL and route live rows by hash

EXIT STATUS: non-zero if any verification or chaos assertion fails.";

/// One spawned `opmap serve` shard process.
struct Shard {
    child: Child,
    addr: String,
    bin: PathBuf,
    wal: Option<PathBuf>,
    seal_rows: usize,
}

impl Shard {
    /// Spawn `opmap serve --data-bin <bin>` and scrape the announced
    /// address. With `pin: None` the shard binds an ephemeral port;
    /// with `pin: Some(addr)` it must rebind exactly that address (a
    /// chaos respawn keeping the coordinator's topology fixed).
    fn spawn(
        bin: &Path,
        wal: Option<&Path>,
        pin: Option<&str>,
        seal_rows: usize,
    ) -> Result<Shard, CliError> {
        let exe = std::env::current_exe()
            .map_err(|e| CliError::Failed(format!("cannot locate own executable: {e}")))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .arg("--data-bin")
            .arg(bin)
            .args(["--addr", pin.unwrap_or("127.0.0.1:0")])
            .args(["--budget-ms", "0", "--workers", "2"])
            .args(["--seal-rows", &seal_rows.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(dir) = wal {
            cmd.arg("--ingest-wal").arg(dir);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| CliError::Failed(format!("cannot spawn shard process: {e}")))?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| CliError::Failed("shard stdout not captured".into()))?;
        let mut reader = BufReader::new(stdout);
        let addr = loop {
            let mut line = String::new();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| CliError::Failed(format!("cannot read shard stdout: {e}")))?;
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(CliError::Failed(
                    "shard process exited before announcing its port".into(),
                ));
            }
            if let Some(rest) = line.trim().strip_prefix("om-server listening on http://") {
                break rest.to_owned();
            }
        };
        // Keep draining so the child never blocks on a full stdout pipe.
        std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        Ok(Shard {
            child,
            addr,
            bin: bin.to_path_buf(),
            wal: wal.map(Path::to_path_buf),
            seal_rows,
        })
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Respawn this shard on its original address (same partition
    /// bytes, same WAL). The rebind can race the dying listener, so a
    /// few attempts are allowed.
    fn respawn(&mut self) -> Result<(), CliError> {
        let mut last = None;
        for _ in 0..10 {
            match Shard::spawn(
                &self.bin,
                self.wal.as_deref(),
                Some(&self.addr),
                self.seal_rows,
            ) {
                Ok(fresh) => {
                    *self = fresh;
                    return Ok(());
                }
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(Duration::from_millis(200));
                }
            }
        }
        Err(last.unwrap_or_else(|| CliError::Failed("shard respawn failed".into())))
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.kill();
    }
}

fn compare_request(v1: &str, v2: &str) -> om_api::CompareRequest {
    om_api::CompareRequest {
        attr: "PhoneModel".into(),
        v1: v1.into(),
        v2: v2.into(),
        class: "dropped".into(),
        allow_partial: None,
    }
}

/// The deterministic request mix: `(path, body, is_ingest)` for slot `i`.
/// Rows per ingest batch in the mixed workload (one batch per 12
/// requests); the seal-round cadence is counted in these.
const INGEST_BATCH_ROWS: usize = 4;

fn request_for(i: usize, ingest_rows: &[Vec<String>]) -> (String, String, bool) {
    let drill = |path: Vec<om_api::PathStep>| om_api::DrillRequest {
        attr: "PhoneModel".into(),
        v1: "ph1".into(),
        v2: "ph2".into(),
        class: "dropped".into(),
        depth: Some(2),
        min_score: None,
        path,
    };
    match i % 12 {
        0 => (
            "/v1/compare".into(),
            compare_request("ph1", "ph2").encode(),
            false,
        ),
        1 => (
            "/v1/compare".into(),
            compare_request("ph1", "ph3").encode(),
            false,
        ),
        2 => (
            "/v1/compare".into(),
            compare_request("ph3", "ph4").encode(),
            false,
        ),
        3 => (
            "/v1/compare".into(),
            compare_request("ph2", "ph4").encode(),
            false,
        ),
        4 => ("/v1/drill".into(), drill(Vec::new()).encode(), false),
        5 => (
            "/v1/drill".into(),
            drill(vec![om_api::PathStep {
                attr: "TimeOfCall".into(),
                value: "morning".into(),
            }])
            .encode(),
            false,
        ),
        6 => (
            "/v1/gi".into(),
            om_api::GiRequest {
                top: Some(5),
                allow_partial: None,
            }
            .encode(),
            false,
        ),
        7 => (
            "/v1/cube/slice".into(),
            om_api::SliceRequest {
                attr: "PhoneModel".into(),
                by: Some("TimeOfCall".into()),
            }
            .encode(),
            false,
        ),
        8 => (
            "/v1/compare/batch".into(),
            om_api::BatchRequest {
                items: vec![
                    om_api::BatchItemRequest::Compare {
                        req: compare_request("ph1", "ph2"),
                        budget_ms: None,
                    },
                    om_api::BatchItemRequest::Compare {
                        req: compare_request("ph2", "ph1"),
                        budget_ms: None,
                    },
                    om_api::BatchItemRequest::Drill {
                        req: drill(vec![om_api::PathStep {
                            attr: "TimeOfCall".into(),
                            value: "evening".into(),
                        }]),
                        budget_ms: None,
                    },
                ],
            }
            .encode(),
            false,
        ),
        9 => (
            "/v1/explore".into(),
            om_api::ExploreRequest {
                slice: Vec::new(),
                k: 6,
                max_conditions: None,
                budget_ms: None,
                compare: None,
            }
            .encode(),
            false,
        ),
        10 => (
            "/v1/explore".into(),
            om_api::ExploreRequest {
                slice: Vec::new(),
                k: 4,
                max_conditions: None,
                budget_ms: None,
                compare: Some(om_api::ExploreCompareBlock {
                    attr: "PhoneModel".into(),
                    v1: "ph1".into(),
                    v2: "ph2".into(),
                    class: "dropped".into(),
                }),
            }
            .encode(),
            false,
        ),
        _ if !ingest_rows.is_empty() => {
            // Rotate through distinct 4-row windows of the sample rows.
            let start = (i / 12 * INGEST_BATCH_ROWS) % ingest_rows.len();
            let rows: Vec<Vec<String>> = (0..INGEST_BATCH_ROWS)
                .map(|k| ingest_rows[(start + k) % ingest_rows.len()].clone())
                .collect();
            (
                "/v1/ingest".into(),
                om_api::IngestRequest { rows }.encode(),
                true,
            )
        }
        _ => (
            "/v1/compare".into(),
            compare_request("ph1", "ph4").encode(),
            false,
        ),
    }
}

/// Extract verbatim field labels of the first `n` rows of a prepared
/// dataset, for replay through live ingestion.
fn sample_rows(ds: &om_data::Dataset, n: usize) -> Result<Vec<Vec<String>>, CliError> {
    let schema = ds.schema();
    let mut rows = Vec::with_capacity(n.min(ds.n_rows()));
    for r in 0..n.min(ds.n_rows()) {
        let mut row = Vec::with_capacity(schema.n_attributes());
        for a in 0..schema.n_attributes() {
            let ids = ds.categorical(a)?;
            let label = ids
                .get(r)
                .and_then(|&id| schema.attribute(a).domain().label(id))
                .ok_or_else(|| CliError::Failed(format!("row {r} attr {a} has no label")))?;
            row.push(label.to_owned());
        }
        rows.push(row);
    }
    Ok(rows)
}

fn percentile(sorted_us: &[u128], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)] as f64 / 1000.0
}

/// Entry point for `opmap cluster`.
///
/// # Errors
/// Usage errors for bad flags; failures if a shard cannot start, a
/// verification diverges, or a chaos assertion fails.
pub fn run(parsed: &mut Parsed, out: &mut dyn Write) -> CliResult {
    if parsed.switch("help") {
        writeln!(out, "{HELP}").ok();
        return Ok(());
    }
    let n_partitions = parsed.parse_or("shards", 4usize)?;
    if n_partitions == 0 {
        return Err(CliError::Usage("--shards must be at least 1".into()));
    }
    let replicas = parsed.parse_or("replicas", 1usize)?;
    if replicas == 0 {
        return Err(CliError::Usage("--replicas must be at least 1".into()));
    }
    let records = parsed.parse_or("records", 20_000usize)?;
    let seed = parsed.parse_or("seed", 7u64)?;
    let requests = parsed.parse_or("requests", 5_000usize)?;
    let seal_rows = parsed.parse_or("seal-rows", 4096usize)?;
    if seal_rows == 0 {
        return Err(CliError::Usage("--seal-rows must be at least 1".into()));
    }
    let verify = parsed.switch("verify");
    let chaos = parsed.switch("chaos");
    let ingest = parsed.switch("ingest");
    parsed.reject_unknown()?;

    // Arm OM_FAILPOINTS on the coordinator side too (shard child
    // processes arm their own registry in `serve`). A malformed entry is
    // a usage error before any shard starts.
    om_engine::fail::init_from_env().map_err(CliError::Usage)?;

    let work = std::env::temp_dir().join(format!(
        "om-cluster-run-{}-{seed}-{n_partitions}x{replicas}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work)
        .map_err(|e| CliError::Failed(format!("cannot create {work:?}: {e}")))?;

    let opts = RunOptions {
        n_partitions,
        replicas,
        records,
        seed,
        requests,
        seal_rows,
        verify,
        chaos,
        ingest,
    };
    let result = run_inner(out, &opts, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

struct RunOptions {
    n_partitions: usize,
    replicas: usize,
    records: usize,
    seed: u64,
    requests: usize,
    seal_rows: usize,
    verify: bool,
    chaos: bool,
    ingest: bool,
}

#[allow(clippy::too_many_lines)]
fn run_inner(out: &mut dyn Write, opts: &RunOptions, work: &Path) -> CliResult {
    let RunOptions {
        n_partitions,
        replicas,
        records,
        seed,
        requests,
        seal_rows,
        verify,
        chaos,
        ingest,
    } = *opts;
    // 1. One centrally-prepared dataset; the union engine doubles as
    //    the single-node verification twin.
    writeln!(out, "building {records}-record dataset (seed {seed})…").ok();
    let ds = om_synth::paper_scenario(records, seed).0;
    let twin = Arc::new(OpportunityMap::build(ds, EngineConfig::default())?);
    let ingest_rows = sample_rows(twin.dataset(), 256)?;

    // 2. Hash-partition and provision one binary partition per
    //    partition; replicas share the bytes.
    let parts = partition_dataset(twin.dataset(), n_partitions)?;
    let mut bins = Vec::new();
    for (i, part) in parts.iter().enumerate() {
        let path = work.join(format!("part-{i}.bin"));
        std::fs::write(&path, encode_dataset(part))
            .map_err(|e| CliError::Failed(format!("cannot write {path:?}: {e}")))?;
        bins.push(path);
    }

    // 3. Spawn the shard processes on ephemeral ports, partition block
    //    by partition block (replica r of partition p is global index
    //    p * replicas + r — the layout the coordinator's router
    //    expects).
    let mut shards = Vec::new();
    for p in 0..n_partitions {
        for r in 0..replicas {
            let bin = bins
                .get(p)
                .ok_or_else(|| CliError::Failed(format!("no partition bin for {p}")))?;
            let wal = ingest.then(|| work.join(format!("wal-{p}-{r}")));
            // Natural seals are disabled (threshold no batch reaches):
            // generations advance only at the harness's synchronized
            // seal rounds, keeping every replica's — and the twin's —
            // visible store in lockstep between rounds.
            let shard = Shard::spawn(bin, wal.as_deref(), None, usize::MAX)?;
            writeln!(
                out,
                "partition {p} replica {r}: pid {} on http://{} ({} rows)",
                shard.child.id(),
                shard.addr,
                parts.get(p).map_or(0, om_data::Dataset::n_rows)
            )
            .ok();
            shards.push(shard);
        }
    }

    // 4. Coordinator in-process, serving the same typed /v1 API. A
    //    typed handle is kept alongside the server's trait object so
    //    chaos can poll `degraded_addrs` while the server answers load.
    let server_config = || ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        engine_budget: None,
        ..ServerConfig::default()
    };
    let coordinator = Arc::new(
        Coordinator::connect(ClusterConfig {
            shard_addrs: shards.iter().map(|s| s.addr.clone()).collect(),
            replicas,
            ingest,
            // Chaos kills replicas outright (connection refused, not
            // slowness): tight backoff keeps the degraded window fast
            // while the breaker is still warming up.
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
            breaker_open: Duration::from_millis(500),
            ..ClusterConfig::default()
        })
        .map_err(|e| CliError::Failed(format!("coordinator cannot join cluster: {e}")))?,
    );
    let coord_server = Server::start_custom(Arc::clone(&coordinator) as _, server_config())
        .map_err(|e| CliError::Failed(format!("cannot start coordinator: {e}")))?;
    writeln!(
        out,
        "coordinator on http://{} over {n_partitions} partition(s) x {replicas} replica(s)",
        coord_server.local_addr()
    )
    .ok();

    // 5. Optional single-node twin over the union, for byte-identity.
    let twin_ingest = (verify && ingest)
        .then(|| {
            twin.start_ingest(&IngestConfig {
                sync_writes: false,
                seal_rows: usize::MAX,
                ..IngestConfig::new(work.join("wal-single"))
            })
        })
        .transpose()
        .map_err(|e| CliError::Failed(format!("cannot start twin ingestion: {e}")))?;
    let twin_server = verify
        .then(|| Server::start_with_ingest(Arc::clone(&twin), server_config(), twin_ingest.clone()))
        .transpose()
        .map_err(|e| CliError::Failed(format!("cannot start single-node twin: {e}")))?;

    let timeout = Duration::from_secs(60);
    let coord_client = ShardClient::new(coord_server.local_addr().to_string(), timeout);
    let twin_client = twin_server
        .as_ref()
        .map(|s| ShardClient::new(s.local_addr().to_string(), timeout));

    // 6. Drive the mixed load. With chaos and replication, one replica
    //    of every partition dies at the half-way mark and rejoins at
    //    the three-quarter mark — the load in between must never see a
    //    5xx.
    let replicated_chaos = chaos && replicas >= 2;
    let chaos_kill_at = requests / 2;
    let chaos_rejoin_at = requests - requests / 4;
    let mut victims: Vec<usize> = Vec::new();
    let mut rows_unsealed = 0usize;
    let mut latencies_us: Vec<u128> = Vec::with_capacity(requests);
    let mut bytes_total: u64 = 0;
    let mut verified: u64 = 0;
    let started = Instant::now();
    for i in 0..requests {
        if replicated_chaos && i == chaos_kill_at {
            victims = (0..n_partitions)
                .filter_map(|p| replica_set(p, n_partitions, replicas).first().copied())
                .collect();
            for &g in &victims {
                if let Some(shard) = shards.get_mut(g) {
                    writeln!(
                        out,
                        "chaos: killing shard {g} (pid {}) on {}",
                        shard.child.id(),
                        shard.addr
                    )
                    .ok();
                    shard.kill();
                }
            }
        }
        if replicated_chaos && i == chaos_rejoin_at {
            for &g in &victims {
                if let Some(shard) = shards.get_mut(g) {
                    shard.respawn()?;
                    writeln!(out, "chaos: shard {g} respawned on http://{}", shard.addr).ok();
                }
            }
            settle(out, &coordinator, &coord_client, &shards, ingest)?;
            if ingest {
                // The victims just caught up on the rows they missed;
                // seal everywhere so the byte-compared load resumes
                // from an aligned visible store.
                flush_round(&shards, twin_ingest.as_ref(), timeout)?;
                rows_unsealed = 0;
            }
        }
        let (path, body, is_ingest) = request_for(i, if ingest { &ingest_rows } else { &[] });
        let t = Instant::now();
        let (status, response) = coord_client
            .post(&path, &body)
            .map_err(|e| CliError::Failed(format!("request {i} ({path}) failed: {e}")))?;
        latencies_us.push(t.elapsed().as_micros());
        bytes_total += response.len() as u64;
        if status != 200 {
            return Err(CliError::Failed(format!(
                "request {i} ({path}) answered HTTP {status}: {response}"
            )));
        }
        if let Some(tc) = &twin_client {
            let (ts, tr) = tc
                .post(&path, &body)
                .map_err(|e| CliError::Failed(format!("twin request {i} ({path}) failed: {e}")))?;
            if is_ingest {
                // Acks agree on counts; the generation counter is
                // per-shard and intentionally not byte-compared.
                let ca = om_api::IngestResponse::parse(&response)
                    .map_err(|e| CliError::Failed(format!("bad cluster ack: {e}")))?;
                let ta = om_api::IngestResponse::parse(&tr)
                    .map_err(|e| CliError::Failed(format!("bad twin ack: {e}")))?;
                if (ca.accepted, ca.rows_total) != (ta.accepted, ta.rows_total) {
                    return Err(CliError::Failed(format!(
                        "ingest divergence at request {i}: cluster accepted {}/{}, twin {}/{}",
                        ca.accepted, ca.rows_total, ta.accepted, ta.rows_total
                    )));
                }
            } else if (status, response.as_str()) != (ts, tr.as_str()) {
                return Err(CliError::Failed(format!(
                    "byte-identity violated at request {i} ({path}):\n cluster: HTTP {status}: {response}\n single:  HTTP {ts}: {tr}"
                )));
            }
            verified += 1;
        }
        if is_ingest {
            rows_unsealed += INGEST_BATCH_ROWS;
            // Seal rounds are suspended while chaos victims are down:
            // a dead replica cannot take part, and sealing around it
            // would desynchronize visibility until it rejoins.
            let kill_window = replicated_chaos && i >= chaos_kill_at && i < chaos_rejoin_at;
            if rows_unsealed >= seal_rows && !kill_window {
                flush_round(&shards, twin_ingest.as_ref(), timeout)?;
                rows_unsealed = 0;
            }
        }
    }
    let elapsed = started.elapsed();
    if replicated_chaos {
        let m = coordinator.cluster_metrics();
        for (needed, counter) in [
            ("failovers_total", &m.failovers_total),
            ("breaker_opens_total", &m.breaker_opens_total),
        ] {
            if counter.load(Ordering::Relaxed) == 0 {
                return Err(CliError::Failed(format!(
                    "chaos ran a full kill/rejoin cycle but the cluster's {needed} never moved"
                )));
            }
        }
        writeln!(
            out,
            "chaos: replicated survival held — zero 5xx with one replica of every partition down"
        )
        .ok();
    }

    // 7. Chaos, part two: lose *every* replica of the last partition
    //    and assert both contractual failure shapes.
    if chaos {
        whole_partition_loss(out, opts, &mut shards, &coordinator, &coord_client)?;
    }

    // 8. With live ingestion: seal and absorb everywhere, then prove the
    //    merged store still matches the single node (epoch re-pin).
    if ingest && verify {
        for shard in &shards {
            ShardClient::new(shard.addr.clone(), timeout)
                .call("POST", "/internal/flush", Some("{}"))
                .map_err(|e| CliError::Failed(format!("shard flush failed: {e}")))?;
        }
        if let Some(handle) = &twin_ingest {
            handle
                .flush()
                .map_err(|e| CliError::Failed(format!("twin flush failed: {e}")))?;
        }
        let (path, body, _) = request_for(0, &[]);
        let cluster = coord_client
            .post(&path, &body)
            .map_err(|e| CliError::Failed(format!("post-flush request failed: {e}")))?;
        let single = twin_client
            .as_ref()
            .map(|tc| tc.post(&path, &body))
            .transpose()
            .map_err(|e| CliError::Failed(format!("post-flush twin request failed: {e}")))?;
        if let Some(single) = single {
            if cluster != single {
                return Err(CliError::Failed(format!(
                    "post-ingest divergence: cluster {cluster:?} vs single {single:?}"
                )));
            }
            verified += 1;
        }
        writeln!(out, "post-ingest flush: merged store still byte-identical").ok();
    }

    // 9. Report.
    latencies_us.sort_unstable();
    let throughput = requests as f64 / elapsed.as_secs_f64();
    let (p50, p95, p99) = (
        percentile(&latencies_us, 0.50),
        percentile(&latencies_us, 0.95),
        percentile(&latencies_us, 0.99),
    );
    writeln!(
        out,
        "drove {requests} request(s) in {:.2}s: {throughput:.0} req/s, \
         latency p50 {p50:.2}ms p95 {p95:.2}ms p99 {p99:.2}ms, {bytes_total} byte(s)",
        elapsed.as_secs_f64()
    )
    .ok();
    if verify {
        writeln!(
            out,
            "verify: {verified} response(s) byte-identical to the single-node twin"
        )
        .ok();
    }

    if let Some(server) = twin_server {
        server.shutdown();
    }
    if let Some(handle) = twin_ingest {
        handle.shutdown();
    }
    coord_server.shutdown();
    Ok(())
}

/// One synchronized seal round: every shard (direct `/internal/flush`)
/// and the verification twin seal their staged rows together, so the
/// next generation pin sees the same row set everywhere. Shards never
/// seal on their own in this harness — independent seal points would
/// make the cluster's mid-load visibility diverge from the twin's.
fn flush_round(shards: &[Shard], twin: Option<&IngestHandle>, timeout: Duration) -> CliResult {
    for shard in shards {
        ShardClient::new(shard.addr.clone(), timeout)
            .call("POST", "/internal/flush", Some("{}"))
            .map_err(|e| CliError::Failed(format!("seal round: shard flush failed: {e}")))?;
    }
    if let Some(handle) = twin {
        handle
            .flush()
            .map_err(|e| CliError::Failed(format!("seal round: twin flush failed: {e}")))?;
    }
    Ok(())
}

/// Wait until the coordinator has healed: breaker probes readmit the
/// respawned replicas and queued catch-up rows replay. Reads only touch
/// a partition's preferred replica, so with ingest enabled an empty
/// ingest batch (a pure stats write that every replica receives) drives
/// the non-preferred breakers closed too; without ingest, a degraded
/// address that answers a direct probe is merely awaiting its next
/// on-demand breaker probe and counts as settled.
fn settle(
    out: &mut dyn Write,
    coordinator: &Arc<Coordinator>,
    coord_client: &ShardClient,
    shards: &[Shard],
    ingest: bool,
) -> CliResult {
    let probe = compare_request("ph1", "ph2").encode();
    let empty_batch = om_api::IngestRequest { rows: Vec::new() }.encode();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (mut status, _) = coord_client
            .post("/v1/compare", &probe)
            .map_err(|e| CliError::Failed(format!("settle probe failed: {e}")))?;
        if ingest {
            // A 503 here is expected while breakers are still open
            // after a whole-partition loss; keep probing until the
            // half-open window readmits the respawned replicas.
            let (ingest_status, _) = coord_client
                .post("/v1/ingest", &empty_batch)
                .map_err(|e| CliError::Failed(format!("settle ingest probe failed: {e}")))?;
            status = status.max(ingest_status);
        }
        let degraded = coordinator.degraded_addrs();
        if status == 200 && degraded.is_empty() {
            writeln!(
                out,
                "chaos: cluster settled (all replicas healthy and caught up)"
            )
            .ok();
            return Ok(());
        }
        if status == 200 && !ingest {
            let all_reachable = degraded.iter().all(|addr| {
                shards.iter().any(|s| s.addr == *addr)
                    && ShardClient::new(addr.clone(), Duration::from_secs(2))
                        .get("/internal/generation")
                        .is_ok_and(|(s, _)| s == 200)
            });
            if all_reachable {
                writeln!(
                    out,
                    "chaos: cluster settled ({} replica(s) await their next breaker probe)",
                    degraded.len()
                )
                .ok();
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(CliError::Failed(format!(
                "cluster did not settle after rejoin; still degraded: {degraded:?}"
            )));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Kill every replica of the last partition and assert both failure
/// contracts: the default all-or-nothing `503` (naming the shard at
/// replication factor 1, the partition above it) and — when other
/// partitions remain — the `allow_partial` degraded `200` with a
/// coverage envelope. The victims are then respawned and re-joined.
fn whole_partition_loss(
    out: &mut dyn Write,
    opts: &RunOptions,
    shards: &mut [Shard],
    coordinator: &Arc<Coordinator>,
    coord_client: &ShardClient,
) -> CliResult {
    let RunOptions {
        n_partitions,
        replicas,
        ingest,
        ..
    } = *opts;
    let victim_partition = n_partitions - 1;
    let members = replica_set(victim_partition, n_partitions, replicas);
    let mut victim_addrs = Vec::new();
    for &g in &members {
        if let Some(shard) = shards.get_mut(g) {
            writeln!(
                out,
                "chaos: killing shard {g} on {} (whole partition {victim_partition})",
                shard.addr
            )
            .ok();
            victim_addrs.push(shard.addr.clone());
            shard.kill();
        }
    }

    let probe = compare_request("ph1", "ph2").encode();
    let (status, body) = coord_client
        .post("/v1/compare", &probe)
        .map_err(|e| CliError::Failed(format!("chaos probe failed to send: {e}")))?;
    if status != 503 {
        return Err(CliError::Failed(format!(
            "chaos: cluster with partition {victim_partition} lost answered HTTP {status} (want 503): {body}"
        )));
    }
    let env = om_api::ErrorEnvelope::parse(&body)
        .map_err(|e| CliError::Failed(format!("chaos: 503 body is not an error envelope: {e}")))?;
    let expected_name = if replicas == 1 {
        format!(
            "shard {}",
            members.first().copied().unwrap_or(victim_partition)
        )
    } else {
        format!("partition {victim_partition}")
    };
    if !env.message.contains(&expected_name) {
        return Err(CliError::Failed(format!(
            "chaos: envelope does not name the lost {expected_name}: {}",
            env.message
        )));
    }
    if env.retry_after_ms.is_none() {
        return Err(CliError::Failed(
            "chaos: 503 envelope carries no retry_after_ms hint".into(),
        ));
    }
    writeln!(
        out,
        "chaos: typed 503 names the lost {expected_name}: {}",
        env.message
    )
    .ok();

    if n_partitions > 1 {
        let partial = om_api::CompareRequest {
            allow_partial: Some(true),
            ..compare_request("ph1", "ph2")
        }
        .encode();
        let (status, body) = coord_client
            .post("/v1/compare", &partial)
            .map_err(|e| CliError::Failed(format!("chaos partial probe failed to send: {e}")))?;
        if status != 200 {
            return Err(CliError::Failed(format!(
                "chaos: allow_partial answered HTTP {status} (want degraded 200): {body}"
            )));
        }
        let resp = om_api::CompareResponse::parse(&body).map_err(|e| {
            CliError::Failed(format!(
                "chaos: degraded 200 is not a compare response: {e}"
            ))
        })?;
        let Some(coverage) = resp.coverage else {
            return Err(CliError::Failed(
                "chaos: degraded answer carries no coverage envelope".into(),
            ));
        };
        let want_answered = (n_partitions - 1) as u64;
        if coverage.partitions_answered != want_answered
            || coverage.partitions_total != n_partitions as u64
            || !coverage
                .missing_partitions
                .contains(&(victim_partition as u64))
        {
            return Err(CliError::Failed(format!(
                "chaos: coverage envelope is wrong: {coverage:?} (want {want_answered}/{n_partitions} with partition {victim_partition} missing)"
            )));
        }
        for addr in &victim_addrs {
            if !coverage.missing_shards.contains(addr) {
                return Err(CliError::Failed(format!(
                    "chaos: coverage envelope does not name lost shard {addr}: {coverage:?}"
                )));
            }
        }
        if !(coverage.rows_covered_pct > 0.0 && coverage.rows_covered_pct < 100.0) {
            return Err(CliError::Failed(format!(
                "chaos: rows_covered_pct {:.3} is not a strict partial",
                coverage.rows_covered_pct
            )));
        }
        writeln!(
            out,
            "chaos: allow_partial answered from {want_answered}/{n_partitions} partition(s) \
             ({:.1}% of rows), naming {:?}",
            coverage.rows_covered_pct, coverage.missing_shards
        )
        .ok();
    }

    for &g in &members {
        if let Some(shard) = shards.get_mut(g) {
            shard.respawn()?;
            writeln!(out, "chaos: shard {g} respawned on http://{}", shard.addr).ok();
        }
    }
    settle(out, coordinator, coord_client, shards, ingest)?;

    // Back at full strength, allow_partial must change nothing: the
    // answer carries no coverage envelope at all.
    let partial = om_api::CompareRequest {
        allow_partial: Some(true),
        ..compare_request("ph1", "ph2")
    }
    .encode();
    let (status, body) = coord_client
        .post("/v1/compare", &partial)
        .map_err(|e| CliError::Failed(format!("post-rejoin partial probe failed: {e}")))?;
    if status != 200 || body.contains("\"coverage\"") {
        return Err(CliError::Failed(format!(
            "chaos: full-coverage allow_partial answer changed shape (HTTP {status}): {body}"
        )));
    }
    writeln!(
        out,
        "chaos: full-coverage allow_partial answer carries no coverage envelope"
    )
    .ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> (CliResult, String) {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut parsed = Parsed::parse(&argv).unwrap();
        let _ = parsed.command();
        let mut out = Vec::new();
        let r = run(&mut parsed, &mut out);
        (r, String::from_utf8(out).unwrap())
    }

    #[test]
    fn help_prints_options() {
        let (r, text) = run_args(&["cluster", "--help"]);
        assert!(r.is_ok());
        assert!(text.contains("--shards"));
        assert!(text.contains("--replicas"));
        assert!(text.contains("--verify"));
    }

    #[test]
    fn zero_shards_is_usage_error() {
        let (r, _) = run_args(&["cluster", "--shards", "0"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn zero_replicas_is_usage_error() {
        let (r, _) = run_args(&["cluster", "--replicas", "0"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn unknown_option_is_usage_error() {
        let (r, _) = run_args(&["cluster", "--typo", "x"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn percentiles_interpolate_sanely() {
        let us: Vec<u128> = (1..=100).map(|v| v * 1000).collect();
        assert!((percentile(&us, 0.50) - 50.0).abs() < 2.0);
        assert!((percentile(&us, 0.99) - 99.0).abs() < 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn request_mix_is_deterministic_and_valid_json() {
        let rows = vec![vec!["a".to_owned(); 3]];
        for i in 0..24 {
            let (path, body, _) = request_for(i, &rows);
            assert!(path.starts_with("/v1/"), "{path}");
            assert_eq!(request_for(i, &rows).1, body);
        }
        // Slots 9 and 10 exercise smart exploration, plain and compare.
        let (path, body, _) = request_for(9, &[]);
        assert_eq!(path, "/v1/explore");
        assert!(!body.contains("\"compare\""), "{body}");
        let (path, body, _) = request_for(10, &[]);
        assert_eq!(path, "/v1/explore");
        assert!(body.contains("\"compare\""), "{body}");
        // Without ingest rows, slot 11 degrades to a compare.
        let (path, _, is_ingest) = request_for(11, &[]);
        assert_eq!(path, "/v1/compare");
        assert!(!is_ingest);
        let (path, _, is_ingest) = request_for(11, &rows);
        assert_eq!(path, "/v1/ingest");
        assert!(is_ingest);
    }
}
