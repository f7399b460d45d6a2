//! One run of one workload: prelude → set-up → read phase → ingest
//! phase → teardown, with the oracle on every answer.
//!
//! Everything is fixed work: the schedule is a function of the seed and
//! `--seconds`, generation bumps come from the flush barrier after each
//! ingest POST, and one closed-loop client thread waits for each answer
//! before it asks the next question (an analyst at a screen).

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

use om_api::{CompareRequest, DrillRequest, IngestResponse, SliceRequest};
use om_server::ops::EngineOps;

use crate::client::{self, Reply};
use crate::layers;
use crate::oracle;
use crate::spec;
use crate::stack::{ms_since, replay, Engine, Res, Stack};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::workload::{
    schedule, Inputs, Op, Shape, Step, Workload, CHECKED_DRILLS, POOL, RUN_SECONDS,
};

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub shape: Shape,
    /// WAL segments go into `wal*` subdirectories of this one; nothing
    /// else in it is touched.
    pub out: PathBuf,
    /// Where the traced pass writes its spans as JSONL, if anywhere.
    pub spans: Option<PathBuf>,
}

pub struct Metric {
    pub name: String,
    /// `None`: the layer does not exist in this workload (om-cluster on
    /// one node), so nothing was measured.
    pub value: Option<f64>,
    pub unit: &'static str,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context lines: phase lengths, pool hash, sample counts.
    pub info: Vec<(String, String)>,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

/// The client side of a run: counts, samples, and the verified answers.
pub struct Session<'a> {
    pub addr: SocketAddr,
    pub inputs: &'a Inputs,
    /// The verified answer of pool entry `(op, index)` at the served
    /// generation; cleared by every generation bump.
    expected: HashMap<(Op, usize), String>,
    /// Client latency per kind, milliseconds, connect → last byte.
    pub samples: BTreeMap<Op, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub bytes_received: u64,
    /// `Some` in the traced pass: every request leaves its wire spans.
    pub tracer: Option<Tracer>,
}

impl<'a> Session<'a> {
    pub fn new(addr: SocketAddr, inputs: &'a Inputs) -> Self {
        Session {
            addr,
            inputs,
            expected: HashMap::new(),
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            bytes_received: 0,
            tracer: None,
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Send one request; a transport error is a failed operation.
    /// Returns the reply and the id of its root span when tracing.
    pub fn send(&mut self, op: Op, body: &str) -> Option<(Reply, Option<usize>)> {
        self.attempted += 1;
        let start_us = self.tracer.as_ref().map(Tracer::now_us);
        match client::post(self.addr, op.path(), body) {
            Ok(reply) => {
                self.bytes_received += reply.body.len() as u64;
                let root = self.tracer.as_mut().zip(start_us).map(|(tr, t0)| {
                    let req = tr.spans.len();
                    let t = reply.timing;
                    let root = tr.record(op.span_names().0, None, req, t0, t0 + t.total_us());
                    let t1 = t0 + t.connect_us;
                    let t2 = t1 + t.write_us;
                    tr.record("om-server.connect", Some(root), req, t0, t1);
                    tr.record("om-server.write", Some(root), req, t1, t2);
                    tr.record("om-server.read", Some(root), req, t2, t2 + t.read_us);
                    root
                });
                Some((reply, root))
            }
            Err(e) => {
                self.fail(format!("{}: transport error: {e}", op.path()));
                None
            }
        }
    }

    fn record(&mut self, op: Op, reply: &Reply) {
        self.samples
            .entry(op)
            .or_default()
            .push(reply.timing.total_us() / 1e3);
    }

    /// A pooled request whose answer must be byte-equal to the verified
    /// one; the first answer at a generation is verified by shape and
    /// kept (the caller checks it against the reference).
    pub fn pooled(&mut self, op: Op, index: usize, timed: bool) -> Option<(Reply, Option<usize>)> {
        let inputs = self.inputs;
        let body = &inputs.pools.of(op)[index].body;
        let (reply, root) = self.send(op, body)?;
        let verdict = match self.expected.get(&(op, index)) {
            Some(want) if reply.status == 200 && *want == reply.body => Ok(()),
            Some(_) => Err(format!(
                "{} #{index} differs from its verified answer (status {})",
                op.path(),
                reply.status
            )),
            None => oracle::verify(op, reply.status, &reply.body),
        };
        match verdict {
            Ok(()) => {
                if timed {
                    self.record(op, &reply);
                }
                self.expected
                    .entry((op, index))
                    .or_insert_with(|| reply.body.clone());
                Some((reply, root))
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Check every kept answer of `ops` against the in-process reference
    /// (parse → `EngineOps` → om-api encoding of the same request).
    pub fn check_against(&mut self, reference: &dyn EngineOps, ops: &[Op]) {
        let mut wrong = Vec::new();
        for (&(op, index), got) in &self.expected {
            if !ops.contains(&op) {
                continue;
            }
            let (status, want) = replay(reference, op, &self.inputs.pools.of(op)[index].body);
            if status != 200 || want != *got {
                wrong.push(format!(
                    "{} #{index} is not byte-equal to the in-process reference",
                    op.path()
                ));
            }
        }
        wrong.sort();
        for w in wrong {
            self.fail(w);
        }
    }

    /// The warm-up: every non-drill pool entry once, then the drills
    /// set aside for the reference check. The timed drills stay
    /// untouched.
    pub fn warm_up(&mut self) {
        for op in [Op::Compare, Op::Explore, Op::Batch, Op::Gi, Op::Slice] {
            for index in 0..POOL {
                self.pooled(op, index, false);
            }
        }
        for index in 0..CHECKED_DRILLS {
            self.pooled(Op::Drill, index, false);
        }
    }

    /// One read pass over `rounds`; returns (operations, wall seconds,
    /// CPU seconds). Drill answers are checked after the clock stops.
    pub fn read_pass(&mut self, rounds: &[Vec<Step>]) -> (u64, f64, f64) {
        let mut drills: Vec<Reply> = Vec::new();
        let before = self.attempted;
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        for step in rounds.iter().flatten() {
            if step.op == Op::Drill {
                let body = &self.inputs.pools.drill[step.index].body;
                if let Some((reply, _)) = self.send(Op::Drill, body) {
                    drills.push(reply);
                }
            } else {
                self.pooled(step.op, step.index, true);
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu0;
        for reply in &drills {
            match oracle::verify(Op::Drill, reply.status, &reply.body) {
                Ok(()) => self.record(Op::Drill, reply),
                Err(e) => self.fail(e),
            }
        }
        (self.attempted - before, wall, cpu)
    }

    /// Median over every timed sample of `op`.
    pub fn p50_ms(&self, op: Op) -> f64 {
        median(self.samples.get(&op).map_or(&[], Vec::as_slice))
    }
}

/// The client-side timings of a read pass `(operations, wall seconds,
/// CPU seconds)` and an ingest phase, by their `spec::CLIENT_TIMINGS`
/// names.
pub fn client_timing(
    name: &str,
    session: &Session<'_>,
    (ops, wall_s, cpu_s): (u64, f64, f64),
    ingest: &IngestPhase,
) -> f64 {
    match name {
        "compare_p50_ms" => session.p50_ms(Op::Compare),
        "drill_p50_ms" => session.p50_ms(Op::Drill),
        "explore_p50_ms" => session.p50_ms(Op::Explore),
        "batch_p50_ms" => session.p50_ms(Op::Batch),
        "gi_p50_ms" => session.p50_ms(Op::Gi),
        "slice_p50_ms" => session.p50_ms(Op::Slice),
        "ops_per_s" => ops as f64 / wall_s,
        "cpu_ms_per_op" => cpu_s * 1e3 / ops as f64,
        // Rows per second *to visible*: the POST and the flush barrier.
        "ingest_rows_per_s" => ingest.rows_acked as f64 / (ingest.post_s + ingest.flush_s),
        "refresh_read_p50_ms" => median(&ingest.refresh_ms),
        other => unreachable!("client timing {other} has no definition"),
    }
}

/// What the ingest phase measured.
#[derive(Default)]
pub struct IngestPhase {
    pub rows_acked: u64,
    pub post_s: f64,
    pub flush_s: f64,
    pub refresh_ms: Vec<f64>,
    pub during_ms: Vec<f64>,
}

/// The engine the served answers must equal byte for byte: the served
/// engine itself on one node; in `tall_cluster` a single-node engine
/// over the union, fed the same ingest rows.
pub enum Reference<'a> {
    Served(&'a Stack),
    Union(&'a Engine),
}

impl Reference<'_> {
    pub fn with_ops<T>(&self, f: impl FnOnce(&dyn EngineOps) -> T) -> T {
        match self {
            Reference::Served(stack) => stack.with_ops(f),
            Reference::Union(engine) => f(&engine.backend()),
        }
    }
}

/// `cycles` times: POST 2048 (512) rows → flush barrier on every engine
/// → the refresh read (first compare at the new generation) → three
/// more compares. Every one of the four reads is the first of its
/// request at that generation, so each is checked against the reference.
pub fn ingest_phase(
    session: &mut Session<'_>,
    stack: &Stack,
    reference: &Reference<'_>,
    cycles: std::ops::Range<usize>,
) -> Res<IngestPhase> {
    let mut out = IngestPhase::default();
    for c in cycles {
        let inputs = session.inputs;
        let rows = &inputs.ingest_rows[c];
        let t = Instant::now();
        let sent = session.send(Op::Ingest, &inputs.ingest_bodies[c]);
        let post_s = t.elapsed().as_secs_f64();
        let Some((reply, _)) = sent else { continue };
        let acked = oracle::verify(Op::Ingest, reply.status, &reply.body)
            .and_then(|()| IngestResponse::parse(&reply.body))
            .and_then(|ack| {
                if ack.accepted == rows.len() as u64 {
                    Ok(ack.accepted)
                } else {
                    Err(format!(
                        "ingest accepted {} of {} rows",
                        ack.accepted,
                        rows.len()
                    ))
                }
            });
        match acked {
            Ok(n) => {
                out.rows_acked += n;
                out.post_s += post_s;
                session.record(Op::Ingest, &reply);
            }
            Err(e) => {
                session.fail(e);
                continue;
            }
        }
        let t = Instant::now();
        stack.flush()?;
        out.flush_s += t.elapsed().as_secs_f64();
        if let Reference::Union(engine) = reference {
            engine
                .ingest
                .append_labeled(rows)
                .and_then(|_| engine.ingest.flush())
                .map_err(|e| format!("union engine ingest failed: {e}"))?;
        }
        session.expected.clear();
        for k in 0..4 {
            let index = (4 * c + k) % POOL;
            if let Some((reply, _)) = session.pooled(Op::Compare, index, false) {
                let ms = reply.timing.total_us() / 1e3;
                if k == 0 {
                    out.refresh_ms.push(ms);
                } else {
                    out.during_ms.push(ms);
                }
            }
        }
        reference.with_ops(|ops| session.check_against(ops, &[Op::Compare]));
    }
    Ok(out)
}

/// user+sys CPU of this process (every thread), in seconds.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks (100 Hz on
    // Linux); the command name may hold spaces, so count from its ')'.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// `VmHWM`: the peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `wal*` subdirectories of `--out` a run makes and removes again.
const WAL_DIRS: [&str; 6] = [
    "wal",
    "wal-union",
    "wal-scratch",
    "wal-p1",
    "wal-p2",
    "wal-p4",
];

fn remove_wal_dirs(out: &std::path::Path) {
    for dir in WAL_DIRS {
        let _ = std::fs::remove_dir_all(out.join(dir));
    }
}

/// Start the stack and warm it up: "`Dataset` in memory" → "every
/// warm-up request verified". One sample of two seconds or more; the
/// copy of the data the engine will own is made before the clock starts.
fn set_up<'a>(opts: &Opts, inputs: &'a Inputs, session: &mut Session<'a>) -> Res<(Stack, f64)> {
    let wal_root = opts.out.join("wal");
    let owned = (!opts.workload.is_cluster()).then(|| inputs.base.clone());
    let t = Instant::now();
    let stack = match owned {
        Some(base) => Stack::single(base, &wal_root)?,
        None => Stack::cluster(&inputs.prepared, 2, &wal_root)?,
    };
    session.addr = stack.addr;
    if opts.workload.is_cluster() {
        prime_root_level(&stack, inputs)?;
    }
    session.warm_up();
    Ok((stack, t.elapsed().as_secs_f64()))
}

/// A coordinator is ready for drills once it holds the merged root
/// level store, which the first drill of its life makes both shards
/// build (every pair cube, over every row) — longer than the default 2 s
/// engine budget allows on a busy host. Set-up waits for that store the
/// way a deployment waits on `/healthz`: a root-only drill, retried on
/// `overloaded`. These are readiness probes, not operations.
fn prime_root_level(stack: &Stack, inputs: &Inputs) -> Res<()> {
    let planted = inputs
        .planted
        .as_ref()
        .expect("tall workloads have a planted compare");
    let c = CompareRequest::parse(&planted.body)?;
    let body = DrillRequest {
        attr: c.attr,
        v1: c.v1,
        v2: c.v2,
        class: c.class,
        depth: Some(0),
        min_score: None,
        path: Vec::new(),
    }
    .encode();
    let mut last = String::new();
    for _ in 0..5 {
        let reply = client::post(stack.addr, Op::Drill.path(), &body)
            .map_err(|e| format!("readiness drill failed: {e}"))?;
        if reply.status == 200 {
            return Ok(());
        }
        last = format!("{}: {}", reply.status, reply.body);
    }
    Err(format!(
        "the coordinator never became ready for drills: {last}"
    ))
}

fn one_dim_slice(inputs: &Inputs) -> String {
    let schema = inputs.prepared.schema();
    let first = schema.non_class_indices()[0];
    SliceRequest {
        attr: schema.attribute(first).name().to_owned(),
        by: None,
    }
    .encode()
}

/// A set-up shorter than this is a sample too short to repeat.
const MIN_SETUP_S: f64 = 2.0;

/// A p50 over a mix of two populations (2 ms cache hits among 400 ms
/// misses reads p75/p25 = 200) is a number about neither.
const UNIMODAL_LIMIT: f64 = 2.0;

/// A violated guard fails the run rather than printing a number.
fn guards(opts: &Opts, session: &Session<'_>, setup_s: f64, refresh_n: usize) -> Res<()> {
    if opts.shape.smoke || opts.seconds < f64::from(RUN_SECONDS) {
        return Ok(());
    }
    for op in Op::ALL {
        let v = sorted(session.samples.get(&op).map_or(&[], Vec::as_slice));
        if v.len() < op.min_samples() {
            return Err(format!(
                "guard: {} has {} samples, fewer than {}",
                op.name(),
                v.len(),
                op.min_samples()
            ));
        }
        let ratio = percentile(&v, 75.0) / percentile(&v, 25.0);
        if ratio > UNIMODAL_LIMIT {
            return Err(format!(
                "guard: {} latencies are not unimodal (p75/p25 = {ratio:.2})",
                op.name()
            ));
        }
    }
    if refresh_n < Op::Ingest.min_samples() {
        return Err(format!("guard: only {refresh_n} refresh reads"));
    }
    if setup_s < MIN_SETUP_S {
        return Err(format!(
            "guard: setup_s = {setup_s:.3} s, shorter than {MIN_SETUP_S} s"
        ));
    }
    Ok(())
}

pub fn run(opts: &Opts) -> Res<Outcome> {
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("cannot create {:?}: {e}", opts.out))?;
    remove_wal_dirs(&opts.out);
    let outcome = run_phases(opts);
    remove_wal_dirs(&opts.out);
    outcome
}

fn run_phases(opts: &Opts) -> Res<Outcome> {
    let rounds = opts.shape.rounds_for(opts.seconds);

    // ---- prelude (untimed) ------------------------------------------
    let t = Instant::now();
    let inputs = Inputs::generate(opts.workload, opts.seed, &opts.shape, rounds);
    let generate_s = t.elapsed().as_secs_f64();
    let union = opts
        .workload
        .is_cluster()
        .then(|| Engine::build(inputs.prepared.clone(), opts.out.join("wal-union")))
        .transpose()?;

    // ---- set-up -------------------------------------------------------
    let placeholder: SocketAddr = ([127, 0, 0, 1], 0).into();
    let mut session = Session::new(placeholder, &inputs);
    let (stack, setup_s) = set_up(opts, &inputs, &mut session)?;
    let reference = match &union {
        Some(engine) => Reference::Union(engine),
        None => Reference::Served(&stack),
    };

    // ---- the oracle on the warm-up's answers -------------------------
    reference.with_ops(|ops| session.check_against(ops, &Op::READS));
    if let Some(planted) = &inputs.planted {
        match session.expected.get(&(Op::Compare, 0)) {
            Some(body) if inputs.pools.compare[0] == *planted => {
                if let Err(e) = oracle::planted_cause(body) {
                    session.fail(e);
                }
            }
            _ => session.fail("the planted-cause compare has no verified answer".to_owned()),
        }
    }

    let mut info = vec![
        ("workload".to_owned(), opts.workload.name().to_owned()),
        ("seed".to_owned(), opts.seed.to_string()),
        ("pool_hash".to_owned(), format!("{:016x}", inputs.hash())),
        ("rounds".to_owned(), rounds.to_string()),
        ("generate_s".to_owned(), format!("{generate_s:.3}")),
        ("setup_s".to_owned(), format!("{setup_s:.3}")),
    ];

    let metrics = if opts.trace {
        layers::traced_run(
            opts,
            &inputs,
            &stack,
            &reference,
            &mut session,
            rounds,
            generate_s,
        )?
    } else {
        // ---- read phase ------------------------------------------------
        let sched = schedule(opts.seed, rounds);
        let read = session.read_pass(&sched);
        // ---- ingest phase ----------------------------------------------
        let t = Instant::now();
        let ingest = ingest_phase(&mut session, &stack, &reference, 0..rounds)?;
        info.push(("read_phase_s".to_owned(), format!("{:.3}", read.1)));
        info.push((
            "ingest_phase_s".to_owned(),
            format!("{:.3}", ms_since(t) / 1e3),
        ));

        // (e) every acknowledged row is in the served store.
        let base_rows = inputs.base.n_rows() as u64;
        match client::post(stack.addr, Op::Slice.path(), &one_dim_slice(&inputs)) {
            Ok(reply) => match oracle::slice_total(&reply.body) {
                Ok(total) if total == base_rows + ingest.rows_acked => {}
                Ok(total) => session.fail(format!(
                    "total_records is {total}, not base {base_rows} + acknowledged {}",
                    ingest.rows_acked
                )),
                Err(e) => session.fail(e),
            },
            Err(e) => session.fail(format!("total_records read failed: {e}")),
        }
        guards(opts, &session, setup_s, ingest.refresh_ms.len())?;

        // The full phases' client timings, for the reader of this run;
        // the result line carries the traced run's (`client.<name>`).
        for (name, unit, _) in spec::CLIENT_TIMINGS {
            let value = client_timing(name, &session, read, &ingest);
            info.push((format!("client.{name}"), format!("{value:.4} {unit}")));
        }
        let value = |name: &str| -> f64 {
            match name {
                "setup_s" => setup_s,
                "peak_rss_mb" => peak_rss_mb(),
                other => unreachable!("end-to-end metric {other} has no definition"),
            }
        };
        spec::end_to_end()
            .into_iter()
            .map(|m| Metric {
                value: Some(value(&m.name)),
                name: m.name,
                unit: m.unit,
            })
            .collect()
    };

    for op in Op::ALL {
        let v = sorted(session.samples.get(&op).map_or(&[], Vec::as_slice));
        if !v.is_empty() {
            info.push((
                format!("samples.{}", op.name()),
                format!(
                    "n {} p25 {:.3} p75 {:.3} ms",
                    v.len(),
                    percentile(&v, 25.0),
                    percentile(&v, 75.0)
                ),
            ));
        }
    }
    let outcome = Outcome {
        correct: session.failed == 0,
        attempted: session.attempted,
        failed: session.failed,
        metrics,
        info,
        failures: std::mem::take(&mut session.failures),
    };
    drop(session);
    stack.shutdown();
    if let Some(engine) = union {
        engine.ingest.shutdown();
    }
    Ok(outcome)
}
