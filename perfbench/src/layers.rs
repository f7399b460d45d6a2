//! The traced run (`--trace 1`): every per-layer metric.
//!
//! An untraced quarter of the schedule gives the client-side numbers;
//! the next quarter, traced, goes over the wire with spans on and is
//! then replayed in-process, request by request, timing the calls into
//! each crate's public functions; a last block times the layer calls no
//! request reaches on its own (builds, codecs, WAL, cluster refresh).
//! A metric whose layer the workload does not have (om-cluster on one
//! node) is never set and is reported as not measured.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use om_api::{
    BatchItemRequest, BatchRequest, BatchResponse, CompareRequest, CompareResponse, DrillRequest,
    DrillResponse, ExploreRequest, ExploreResponse, GiRequest, GiResponse, IngestRequest,
    SliceRequest, SliceResponse,
};
use om_cluster::ShardClient;
use om_compare::{Comparator, ComparisonSpec, DrillConfig, SelectorPopulation};
use om_cube::persist::{decode_store, encode_store};
use om_cube::{ColumnIndex, CubeStore, CubeView, StoreBuildOptions};
use om_discretize::{discretize_all, Method};
use om_engine::{
    BatchItem, Budget, CompareNames, Condition, EngineConfig, ExploreQuery, IngestConfig,
    OpportunityMap,
};
use om_exec::{rank_parallel, ExecConfig, Executor};
use om_ingest::RowParser;
use om_server::metrics::Endpoint;
use om_server::ops::EngineOps;

use crate::client;
use crate::run::{client_timing, ingest_phase, Metric, Opts, Reference, Session};
use crate::spec;
use crate::stack::{ms_since, nproc, replay, Engine, Res, Stack};
use crate::stats::{median, percentile, sorted, supported_tail};
use crate::trace::{child_cover_us, self_time_us, Tracer};
use crate::workload::{schedule, Inputs, Op, Rng, POOL};

/// Metric values by name; what is never set was not measured.
#[derive(Default)]
struct Values(BTreeMap<String, f64>);

impl Values {
    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// Median milliseconds of `n` calls.
fn p50_ms<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let (out, ms) = timed(&mut f);
            std::hint::black_box(out);
            ms
        })
        .collect();
    median(&samples)
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// A fixed register-and-cache spin: how fast the host is right now.
fn ref_spin() -> f64 {
    let mut table = [0u32; 4096];
    let mut x: u64 = 88_172_645_463_325_252;
    let t = Instant::now();
    for _ in 0..400_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table[(x & 0xfff) as usize] += 1;
    }
    std::hint::black_box(&table);
    t.elapsed().as_secs_f64() * 1e6
}

/// Resolve a parsed compare request against the served schema.
fn spec_of(ops: &dyn EngineOps, c: &CompareRequest) -> Res<ComparisonSpec> {
    ops.spec_by_name(&c.attr, &c.v1, &c.v2, &c.class)
        .map_err(|_| format!("cannot resolve the comparison on {}", c.attr))
}

/// Replays one answered request in-process. First the server's own
/// route (parse → `EngineOps` → om-api encoding) answers it, for the
/// byte-equality check. Then the same three steps run one after the
/// other as the steps of an open `replay.<op>` root span, each ending
/// where the next begins. Last, the layer calls the engine call is made
/// of are replayed, bottom-up, and laid inside the engine span.
struct Replayer<'a> {
    stack: &'a Stack,
    budget: Budget,
    /// Milliseconds per replayed `om-*` call name: its span is clipped to
    /// the parent it is laid into, this is the time it took.
    calls: BTreeMap<&'static str, Vec<f64>>,
    /// Exact counts gathered along the way.
    rows_selected: Vec<f64>,
    attrs_scored: Vec<f64>,
    lazy_pair_builds: f64,
    response_bytes_compare: Vec<f64>,
}

fn compare_part(d: &DrillRequest) -> CompareRequest {
    CompareRequest {
        attr: d.attr.clone(),
        v1: d.v1.clone(),
        v2: d.v2.clone(),
        class: d.class.clone(),
        allow_partial: None,
    }
}

impl<'a> Replayer<'a> {
    fn new(stack: &'a Stack) -> Self {
        Replayer {
            stack,
            budget: Budget::unlimited(),
            calls: BTreeMap::new(),
            rows_selected: Vec::new(),
            attrs_scored: Vec::new(),
            lazy_pair_builds: 0.0,
            response_bytes_compare: Vec::new(),
        }
    }

    /// Time one layer call after the fact and lay it inside the closed
    /// span `parent`.
    fn replayed<T>(
        &mut self,
        tr: &mut Tracer,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let (out, ms) = timed(f);
        self.calls.entry(name).or_default().push(ms);
        (out, tr.nest_replayed(name, parent, ms * 1e3))
    }

    fn p50(&self, name: &str) -> f64 {
        median(self.calls.get(name).map_or(&[], Vec::as_slice))
    }

    /// Replay request `req`, which the server answered with `answer`.
    /// The replay's spans share the request id of the wire spans.
    fn replay(&mut self, tr: &mut Tracer, req: usize, op: Op, body: &str, answer: &str) -> Res<()> {
        let stack = self.stack;
        let (status, in_process) = stack.with_ops(|ops| replay(ops, op, body));
        if status != 200 {
            return Err(format!("the in-process route answered {status}"));
        }
        if in_process != answer {
            return Err("the answer is not byte-equal to the in-process route's".to_owned());
        }
        stack.with_ops(|ops| self.parts(tr, req, ops, op, body, answer))
    }

    /// parse → engine → encode as the steps of an open root, then the
    /// engine call's layers under the engine span. Nothing but the steps
    /// happens while the root is open: the root of a slice lasts ten
    /// microseconds.
    fn parts(
        &mut self,
        tr: &mut Tracer,
        req: usize,
        ops: &dyn EngineOps,
        op: Op,
        body: &str,
        answer: &str,
    ) -> Res<()> {
        let single = self.stack.front.is_none();
        let budget = self.budget.clone();
        let drill_config = DrillConfig {
            compare: ops.compare_config(),
            ..DrillConfig::default()
        };
        let root_name = op.span_names().1;
        match op {
            Op::Compare => {
                let wire = CompareResponse::parse(answer)?;
                let root = tr.open(root_name, None, req);
                let parsed = CompareRequest::parse(body);
                tr.step("om-api.parse", root);
                let c = parsed?;
                let result = ops.run_compare_by_name(&c.attr, &c.v1, &c.v2, &c.class, &budget);
                let engine = tr.step("om-engine.compare", root);
                let encoded = wire.encode();
                tr.step("om-api.encode.compare", root);
                tr.close(root);
                same(&encoded, answer)?;
                let result = result.map_err(|_| "engine compare failed".to_owned())?;
                self.attrs_scored
                    .push((result.ranked.len() + result.property_attrs.len()) as f64);
                self.response_bytes_compare.push(answer.len() as f64);
                if single {
                    let spec = spec_of(ops, &c)?;
                    let snapshot = ops.query_store(&budget).map_err(|_| "no store")?;
                    let config = ops.compare_config();
                    let _ = self.replayed(tr, engine, "om-compare.rank", || {
                        Comparator::with_config(&snapshot, config).compare_budgeted(&spec, &budget)
                    });
                } else {
                    self.polls(tr, engine);
                }
                Ok(())
            }
            Op::Drill => {
                let wire = DrillResponse::parse(answer)?;
                let root = tr.open(root_name, None, req);
                let parsed = DrillRequest::parse(body);
                tr.step("om-api.parse", root);
                let d = parsed?;
                let spec = spec_of(ops, &compare_part(&d))?;
                let path = d
                    .path
                    .iter()
                    .map(|s| ops.condition_by_name(&s.attr, &s.value))
                    .collect::<Result<Vec<Condition>, _>>()
                    .map_err(|_| "cannot resolve the drill path".to_owned())?;
                let item = BatchItem::Drill {
                    spec,
                    path: path.clone(),
                    budget_ms: None,
                };
                let ran = ops
                    .run_batch(std::slice::from_ref(&item), &drill_config, &budget)
                    .is_ok();
                let engine = tr.step("om-engine.drill", root);
                let encoded = wire.encode();
                tr.step("om-api.encode", root);
                tr.close(root);
                same(&encoded, answer)?;
                if !ran {
                    return Err("engine drill failed".to_owned());
                }
                if single {
                    self.drill_levels(tr, engine, &spec, &path)?;
                } else {
                    self.polls(tr, engine);
                }
                Ok(())
            }
            Op::Explore => {
                let wire = ExploreResponse::parse(answer)?;
                let root = tr.open(root_name, None, req);
                let parsed = ExploreRequest::parse(body);
                tr.step("om-api.parse", root);
                let e = parsed?;
                let query = ExploreQuery {
                    slice: Vec::new(),
                    k: e.k as usize,
                    max_conditions: None,
                    compare: e.compare.as_ref().map(|c| CompareNames {
                        attr: c.attr.clone(),
                        value_1: c.v1.clone(),
                        value_2: c.v2.clone(),
                        class: c.class.clone(),
                    }),
                };
                let ran = ops.run_explore(&query, &budget).is_ok();
                let engine = tr.step("om-engine.explore", root);
                let encoded = wire.encode();
                tr.step("om-api.encode", root);
                tr.close(root);
                same(&encoded, answer)?;
                if !ran {
                    return Err("engine explore failed".to_owned());
                }
                if single {
                    let snapshot = ops.query_store(&budget).map_err(|_| "no store")?;
                    let config = ops.compare_config();
                    let _ = self.replayed(tr, engine, "om-explore.explore_compare", || {
                        om_explore::explore(
                            &Executor::serial(),
                            &snapshot,
                            &config,
                            &query,
                            &budget,
                        )
                    });
                } else {
                    self.polls(tr, engine);
                }
                Ok(())
            }
            Op::Gi => {
                let wire = GiResponse::parse(answer)?;
                let root = tr.open(root_name, None, req);
                let parsed = GiRequest::parse(body);
                tr.step("om-api.parse", root);
                parsed?;
                let ran = ops.run_general_impressions(&budget).is_ok();
                let engine = tr.step("om-engine.gi", root);
                let encoded = wire.encode();
                tr.step("om-api.encode", root);
                tr.close(root);
                same(&encoded, answer)?;
                if !ran {
                    return Err("engine gi failed".to_owned());
                }
                if single {
                    let snapshot = ops.query_store(&budget).map_err(|_| "no store")?;
                    let config = EngineConfig::default();
                    let _ = self.replayed(tr, engine, "om-gi.report", || {
                        (
                            om_gi::mine_trends_budgeted(&snapshot, &config.trend, &budget),
                            om_gi::mine_exceptions_budgeted(&snapshot, &config.exception, &budget),
                            om_gi::mine_influence_budgeted(&snapshot, &budget),
                        )
                    });
                } else {
                    self.polls(tr, engine);
                }
                Ok(())
            }
            Op::Batch => {
                let wire = BatchResponse::parse(answer)?;
                let root = tr.open(root_name, None, req);
                let parsed = BatchRequest::parse(body);
                tr.step("om-api.parse", root);
                let items = parsed?
                    .items
                    .iter()
                    .map(|item| match item {
                        BatchItemRequest::Compare { req, .. } => {
                            spec_of(ops, req).map(|spec| BatchItem::Compare {
                                spec,
                                budget_ms: None,
                            })
                        }
                        BatchItemRequest::Drill { .. } => {
                            Err("the schedule sends no batch drill items".to_owned())
                        }
                    })
                    .collect::<Res<Vec<_>>>()?;
                let ran = ops.run_batch(&items, &drill_config, &budget).is_ok();
                let engine = tr.step("om-engine.batch", root);
                let encoded = wire.encode();
                tr.step("om-api.encode.batch", root);
                tr.close(root);
                same(&encoded, answer)?;
                if !ran {
                    return Err("engine batch failed".to_owned());
                }
                if single {
                    let om = &self.stack.nodes[0].engine.om;
                    let snapshot = om.store();
                    let kernel = om.kernel().map_err(err("kernel"))?;
                    self.replayed(tr, engine, "om-exec.batch", || {
                        om_exec::run_batch(
                            &Executor::serial(),
                            &snapshot,
                            kernel,
                            &drill_config.compare,
                            &drill_config,
                            &items,
                            &budget,
                        )
                    });
                } else {
                    self.polls(tr, engine);
                }
                Ok(())
            }
            Op::Slice => {
                let wire = SliceResponse::parse(answer)?;
                let root = tr.open(root_name, None, req);
                let parsed = SliceRequest::parse(body);
                tr.step("om-api.parse", root);
                let s = parsed?;
                let sliced = (|| -> Res<()> {
                    let attr = ops.attr_index(&s.attr).map_err(|_| "unknown attribute")?;
                    let store = ops.query_store(&budget).map_err(|_| "no store")?;
                    match &s.by {
                        None => {
                            let cube = store.one_dim(attr).map_err(err("one_dim"))?;
                            CubeView::from_cube(&cube).map_err(err("view"))?;
                        }
                        Some(by) => {
                            let by = ops.attr_index(by).map_err(|_| "unknown attribute")?;
                            store.pair(attr, by).map_err(err("pair"))?;
                        }
                    }
                    Ok(())
                })();
                let engine = tr.step("om-engine.slice", root);
                let encoded = wire.encode();
                tr.step("om-api.encode", root);
                tr.close(root);
                same(&encoded, answer)?;
                sliced?;
                if !single {
                    self.polls(tr, engine);
                }
                Ok(())
            }
            Op::Ingest => Err("ingest is not replayed (it would append the rows twice)".to_owned()),
        }
    }

    /// The calls a fixed-path drill is made of on one node: per level a
    /// bitmap AND, a popcount, one anchored masked scan, one ranking.
    fn drill_levels(
        &mut self,
        tr: &mut Tracer,
        engine: usize,
        spec: &ComparisonSpec,
        path: &[Condition],
    ) -> Res<()> {
        let om = Arc::clone(&self.stack.nodes[0].engine.om);
        let kernel = om.kernel().map_err(err("kernel"))?;
        let config = om.config().compare.clone();
        let budget = self.budget.clone();
        let mut selector = kernel.selector();
        for depth in 0..=path.len() {
            if depth > 0 {
                let c = path[depth - 1];
                let (narrowed, _) = self.replayed(tr, engine, "om-cube.narrow", || {
                    selector.narrow(c.attr, c.value)
                });
                selector = narrowed.map_err(err("narrow"))?;
            }
            let (count, _) = self.replayed(tr, engine, "om-cube.count", || selector.count());
            self.rows_selected.push(count as f64);
            let mut excluded = vec![spec.attr];
            excluded.extend(path[..depth].iter().map(|c| c.attr));
            let attrs = om_compare::candidate_attrs_in(kernel.schema(), spec.attr, &excluded);
            let (store, _) = self.replayed(tr, engine, "om-cube.anchored_scan", || {
                selector.build_store_anchored(Some(attrs), spec.attr)
            });
            let store = store.map_err(err("anchored scan"))?;
            let (ranked, _) = self.replayed(tr, engine, "om-compare.rank.level", || {
                Comparator::with_config(&store, config.clone()).compare_budgeted(spec, &budget)
            });
            self.lazy_pair_builds += store.lazy_builds() as f64;
            if ranked.is_err() {
                break; // conditioned data too thin: the walk ends here too
            }
        }
        Ok(())
    }

    /// What every coordinator read starts with: one generation poll per
    /// shard.
    fn polls(&mut self, tr: &mut Tracer, engine: usize) {
        for node in &self.stack.nodes {
            let shard = ShardClient::new(node.server.local_addr().to_string(), SHARD_TIMEOUT);
            let _ = self.replayed(tr, engine, "om-cluster.poll", || {
                shard.get("/internal/generation")
            });
        }
    }
}

const SHARD_TIMEOUT: Duration = Duration::from_secs(30);

fn same(encoded: &str, answer: &str) -> Res<()> {
    if encoded == answer {
        Ok(())
    } else {
        Err("om-api re-encoding of an answer is not byte-equal to it".to_owned())
    }
}

/// Compare `index` with spans off; its latency in milliseconds.
fn untraced_twin(session: &mut Session<'_>, index: usize) -> Option<f64> {
    let tracer = session.tracer.take();
    let sent = session.pooled(Op::Compare, index, false);
    session.tracer = tracer;
    sent.map(|(reply, _)| reply.timing.total_us() / 1e3)
}

fn client_metrics(v: &mut Values, session: &Session<'_>) {
    for op in Op::ALL {
        let s = sorted(session.samples.get(&op).map_or(&[], Vec::as_slice));
        let name = op.name();
        v.set(&format!("client.{name}_n"), s.len() as f64);
        if s.is_empty() {
            continue;
        }
        v.set(&format!("client.{name}_p95_ms"), supported_tail(&s, 95.0));
        v.set(
            &format!("client.{name}_p75_over_p25"),
            percentile(&s, 75.0) / percentile(&s, 25.0),
        );
        if matches!(op, Op::Compare | Op::Slice) {
            v.set(&format!("client.{name}_p99_ms"), supported_tail(&s, 99.0));
        }
    }
}

#[allow(clippy::too_many_arguments)]
pub fn traced_run<'a>(
    opts: &Opts,
    inputs: &'a Inputs,
    stack: &Stack,
    reference: &Reference<'_>,
    session: &mut Session<'a>,
    rounds: usize,
    generate_s: f64,
) -> Res<Vec<Metric>> {
    let mut v = Values::default();
    let single = stack.front.is_none();
    let budget = Budget::unlimited();
    v.set("bench.generate_s", generate_s);

    // ---- untraced quarter of the schedule: the client-side context ----
    let sched = schedule(opts.seed, rounds);
    let quarter = (rounds / 4).max(1);
    let read = session.read_pass(&sched[..quarter]);
    let plain_cycles = quarter;
    let ingest = ingest_phase(session, stack, reference, 0..plain_cycles)?;
    for (name, ..) in spec::CLIENT_TIMINGS {
        v.set(
            &format!("client.{name}"),
            client_timing(name, session, read, &ingest),
        );
    }
    client_metrics(&mut v, session);
    v.set("client.refresh_read_n", ingest.refresh_ms.len() as f64);
    v.set(
        "client.compare_during_ingest_p50_ms",
        median(&ingest.during_ms),
    );
    let untraced_slice_p50 = session.p50_ms(Op::Slice);
    // The ingest phase bumped the generation; reads below re-verify.

    // ---- traced quarter of the schedule ---------------------------------
    // First every request over the wire with spans on, then every one of
    // them again in-process: a replay between two wire requests would
    // leave the server's caches cold for the second, and the traced
    // latencies would measure that instead of the cost of the spans.
    session.tracer = Some(Tracer::default());
    let mut traced_compare_ms = Vec::new();
    let mut twin_compare_ms = Vec::new();
    let mut spins = Vec::new();
    let mut answered = Vec::new();
    let shard_requests_before = shard_requests(stack);
    for round in &sched[quarter..2 * quarter] {
        spins.push(ref_spin());
        for step in round {
            // The tracing overhead is read off twins: every compare is
            // sent once more with spans off, at the same moment and so
            // at the same host speed, before and after it by turns.
            let twin_first = twin_compare_ms.len() % 2 == 1;
            if step.op == Op::Compare && twin_first {
                twin_compare_ms.extend(untraced_twin(session, step.index));
            }
            let body = &inputs.pools.of(step.op)[step.index].body;
            let sent = if step.op == Op::Drill {
                session.send(Op::Drill, body)
            } else {
                session.pooled(step.op, step.index, false)
            };
            if step.op == Op::Compare && !twin_first {
                twin_compare_ms.extend(untraced_twin(session, step.index));
            }
            let Some((reply, Some(root))) = sent else {
                continue;
            };
            if step.op == Op::Compare {
                traced_compare_ms.push(reply.timing.total_us() / 1e3);
            }
            answered.push((*step, reply.body, root));
        }
    }
    let shard_requests_traced = shard_requests(stack) - shard_requests_before;
    let traced_ops = answered.len() as u64;
    let mut tr = session.tracer.take().expect("tracing is on");
    let mut replayer = Replayer::new(stack);
    for (step, wire_answer, root) in &answered {
        let body = &inputs.pools.of(step.op)[step.index].body;
        let req = tr.spans[*root].req;
        if let Err(e) = replayer.replay(&mut tr, req, step.op, body, wire_answer) {
            session.fail(format!("replay of {} #{}: {e}", step.op.path(), step.index));
        }
    }
    drop(answered);
    if let Some(path) = &opts.spans {
        tr.write_jsonl(path)
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }

    // Child spans must account for the in-process roots of every kind.
    let mut cover: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut unattributed = Vec::new();
    for s in &tr.spans {
        if s.parent.is_none() && s.name.starts_with("replay.") {
            let (covered, total) = cover.entry(s.name).or_default();
            *covered += child_cover_us(&tr.spans, s.id);
            *total += s.dur_us();
        }
        if single && s.name.starts_with("om-engine.") && s.name != "om-engine.slice" {
            unattributed.push(self_time_us(&tr.spans, s.id) / 1e3);
        }
    }
    for (name, (covered, total)) in cover {
        if covered / total < 0.9 {
            session.fail(format!(
                "child spans cover only {:.0} % of the {name} root spans",
                100.0 * covered / total
            ));
        }
    }
    let twin_p50 = median(&twin_compare_ms);
    v.set(
        "bench.tracing_overhead_share",
        (median(&traced_compare_ms) - twin_p50) / twin_p50,
    );
    let spins = sorted(&spins);
    v.set("bench.ref_spin_us", median(&spins));
    v.set(
        "bench.ref_spin_p90_over_p50",
        percentile(&spins, 90.0) / median(&spins),
    );

    // ---- per-layer values out of the replay ----------------------------
    // A call the workload never makes (the kernel under a coordinator)
    // leaves its metric unset.
    let r = &replayer;
    for (metric, call, scale) in [
        ("om-cube.narrow_us", "om-cube.narrow", 1e3),
        ("om-cube.count_us", "om-cube.count", 1e3),
        ("om-cube.anchored_scan_ms", "om-cube.anchored_scan", 1.0),
        ("om-compare.rank_ms", "om-compare.rank", 1.0),
        ("om-exec.batch_ms", "om-exec.batch", 1.0),
        (
            "om-explore.explore_compare_ms",
            "om-explore.explore_compare",
            1.0,
        ),
        ("om-gi.report_ms", "om-gi.report", 1.0),
        ("om-engine.compare_ms", "om-engine.compare", 1.0),
        ("om-engine.drill_ms", "om-engine.drill", 1.0),
        ("om-engine.explore_ms", "om-engine.explore", 1.0),
        ("om-engine.batch_ms", "om-engine.batch", 1.0),
        ("om-engine.gi_ms", "om-engine.gi", 1.0),
        ("om-engine.slice_us", "om-engine.slice", 1e3),
        ("om-api.request_parse_us", "om-api.parse", 1e3),
        (
            "om-api.response_encode_us.compare",
            "om-api.encode.compare",
            1e3,
        ),
        (
            "om-api.response_encode_us.batch",
            "om-api.encode.batch",
            1e3,
        ),
        ("om-cluster.generation_poll_us", "om-cluster.poll", 1e3),
    ] {
        // Replayed calls keep their own times; the steps of an answer
        // are spans.
        let ms: Vec<f64> = match r.calls.get(call) {
            Some(ms) => ms.clone(),
            None => tr.durations(call).iter().map(|us| us / 1e3).collect(),
        };
        if !ms.is_empty() {
            v.set(metric, median(&ms) * scale);
        }
    }
    if single {
        v.set("om-cube.rows_selected_per_scan", mean(&r.rows_selected));
        v.set("om-cube.lazy_pair_builds", r.lazy_pair_builds);
        // A batch is 8 comparisons: 1.0 means nothing was shared.
        v.set(
            "om-exec.batch_shared_ratio",
            r.p50("om-exec.batch") / (8.0 * r.p50("om-compare.rank")),
        );
        v.set("om-engine.unattributed_ms", median(&unattributed));
    } else {
        v.set(
            "om-cluster.shard_requests_per_op",
            shard_requests_traced as f64 / traced_ops.max(1) as f64,
        );
    }
    v.set("om-compare.attrs_scored_per_rank", mean(&r.attrs_scored));
    v.set(
        "om-api.response_bytes.compare",
        mean(&r.response_bytes_compare),
    );
    v.set(
        "om-server.connect_us",
        median(&tr.durations("om-server.connect")),
    );
    v.set(
        "om-server.write_us",
        median(&tr.durations("om-server.write")),
    );
    let replayed_slice_ms = median(
        &tr.durations("replay.slice")
            .iter()
            .map(|us| us / 1e3)
            .collect::<Vec<_>>(),
    );
    v.set(
        "om-server.transport_us",
        (untraced_slice_p50 - replayed_slice_ms) * 1e3,
    );

    // ---- the layer calls no request reaches on its own ------------------
    let om = &stack.nodes[0].engine.om;
    v.set(
        "om-engine.build_ms",
        stack.nodes.iter().map(|n| n.engine.build_ms).sum(),
    );
    build_layers(&mut v, inputs, om)?;
    exec_layers(&mut v, inputs, reference, &budget)?;
    api_and_server_layers(&mut v, inputs, stack)?;
    ingest_layers(&mut v, opts, inputs)?;
    if let Some(front) = &stack.front {
        let m = front.coordinator.cluster_metrics();
        let load =
            |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed) as f64;
        v.set("om-cluster.partition_ms", stack.partition_ms);
        v.set("om-cluster.connect_ms", stack.connect_ms);
        cluster_layers(
            &mut v,
            opts,
            inputs,
            stack,
            session,
            reference,
            plain_cycles,
        )?;
        let (hits, misses) = (
            load(&m.level_cache_hits_total),
            load(&m.level_cache_misses_total),
        );
        if hits + misses > 0.0 {
            v.set("om-cluster.level_cache_hit_share", hits / (hits + misses));
        }
        v.set("om-cluster.store_refreshes", load(&m.store_refreshes_total));
        v.set("om-cluster.stale_retries", load(&m.stale_retries_total));
        v.set("om-cluster.retries", load(&m.retries_total));
        v.set("om-cluster.hedges", load(&m.hedges_total));
        v.set("om-cluster.shard_errors", load(&m.shard_errors_total));
    }

    // Two threads at once: one appends, one reads.
    v.set(
        "om-ingest.read_p50_ms.under_ingest",
        read_under_ingest(inputs, stack)?,
    );
    v.set("om-server.ops_per_s.c2", two_clients(inputs, stack));

    let (mut sealed, mut compactions, mut merge_failures) = (0, 0, 0);
    for node in &stack.nodes {
        let s = node.engine.ingest.stats();
        sealed += s.segments_sealed_total;
        compactions += s.compactions_total;
        merge_failures += s.merge_failures_total;
    }
    v.set("om-ingest.segments_sealed", sealed as f64);
    v.set("om-ingest.compactions", compactions as f64);
    v.set("om-ingest.merge_failures", merge_failures as f64);
    let (mut shed, mut deadline, mut errors, mut panics) = (0, 0, 0, 0);
    for server in stack.servers() {
        let m = server.metrics();
        shed += m.shed();
        deadline += m.deadline_exceeded();
        errors += m.errors();
        panics += m.panics_caught();
    }
    v.set("om-server.shed_total", shed as f64);
    v.set("om-server.deadline_exceeded_total", deadline as f64);
    v.set("om-server.errors_total", errors as f64);
    v.set("om-server.panics_caught_total", panics as f64);
    v.set("client.bytes_received", session.bytes_received as f64);
    v.set("client.attempted_total", session.attempted as f64);
    v.set("client.failed_total", session.failed as f64);

    Ok(spec::per_layer()
        .into_iter()
        .map(|m| Metric {
            value: v.0.get(&m.name).copied(),
            name: m.name,
            unit: m.unit,
        })
        .collect())
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Requests the shards have answered so far, every endpoint.
fn shard_requests(stack: &Stack) -> u64 {
    stack
        .nodes
        .iter()
        .map(|n| {
            let m = n.server.metrics();
            Endpoint::ALL.iter().map(|&e| m.requests(e)).sum::<u64>()
        })
        .sum()
}

/// om-discretize, the cube-store and index builds, the store codec,
/// merge and the ingest delta: the offline half of the system.
fn build_layers(v: &mut Values, inputs: &Inputs, om: &OpportunityMap) -> Res<()> {
    let mut raw = inputs.base.clone();
    let (cuts, ms) = timed(|| discretize_all(&mut raw, &Method::EntropyMdl));
    cuts.map_err(err("discretize"))?;
    v.set("om-discretize.discretize_ms", ms);
    drop(raw);
    let no_index = StoreBuildOptions {
        index: false,
        ..StoreBuildOptions::default()
    };
    let (store, ms) = timed(|| CubeStore::build(&inputs.prepared, &no_index));
    let store = store.map_err(err("store build"))?;
    v.set("om-cube.store_build_ms", ms);
    v.set("om-cube.store_bytes", store.memory_bytes() as f64);
    let (index, ms) = timed(|| ColumnIndex::build(&inputs.prepared));
    v.set("om-cube.index_build_ms", ms);
    v.set(
        "om-cube.index_bytes",
        index.map_err(err("index build"))?.memory_bytes() as f64,
    );

    let (bytes, ms) = timed(|| encode_store(&store));
    let bytes = bytes.map_err(err("encode_store"))?;
    v.set("om-cube.encode_store_ms", ms);
    v.set("om-cube.store_wire_bytes", bytes.len() as f64);
    let (decoded, ms) = timed(|| decode_store(bytes));
    let mut decoded = decoded.map_err(err("decode_store"))?;
    v.set("om-cube.decode_store_ms", ms);
    let (merged, ms) = timed(|| store.merge(&decoded));
    merged.map_err(err("merge"))?;
    v.set("om-cube.merge_ms", ms);

    // What a seal does with one POST's rows, then what the compactor
    // does with the result.
    let rows: Vec<usize> = (0..inputs.ingest_rows[0].len()).collect();
    let batch = inputs.prepared.take_rows(&rows).map_err(err("take_rows"))?;
    let delta_opts = StoreBuildOptions {
        n_threads: 1,
        ..no_index
    };
    let (delta, ms) = timed(|| CubeStore::build(&batch, &delta_opts));
    let delta = delta.map_err(err("delta build"))?;
    v.set("om-cube.delta_build_ms", ms);
    let (folded, ms) = timed(|| decoded.merge_from(&delta));
    folded.map_err(err("merge_from"))?;
    v.set("om-cube.merge_from_ms", ms);
    std::hint::black_box(om.store_generation());
    Ok(())
}

/// om-compare's automated walk, om-exec at 1 and N workers, om-explore
/// without a comparison — over the reference engine's current store.
fn exec_layers(
    v: &mut Values,
    inputs: &Inputs,
    reference: &Reference<'_>,
    budget: &Budget,
) -> Res<()> {
    let om = match reference {
        Reference::Served(stack) => Arc::clone(&stack.nodes[0].engine.om),
        Reference::Union(engine) => Arc::clone(&engine.om),
    };
    let snapshot = om.store();
    let config = om.config().compare.clone();
    let specs = inputs.pools.compare[..8]
        .iter()
        .map(|r| {
            let c = CompareRequest::parse(&r.body)?;
            om.spec_by_name(&c.attr, &c.v1, &c.v2, &c.class)
                .map_err(err("spec"))
        })
        .collect::<Res<Vec<_>>>()?;
    for (name, workers) in [("w1", 1), ("wN", nproc())] {
        let exec = Executor::new(&ExecConfig { workers });
        let mut i = 0;
        let ms = p50_ms(16, || {
            i += 1;
            rank_parallel(&exec, &snapshot, &config, &specs[i % specs.len()], budget)
        });
        v.set(&format!("om-exec.rank_parallel_ms.{name}"), ms);
    }
    let plain = ExploreQuery::top_k(8);
    v.set(
        "om-explore.explore_ms",
        p50_ms(8, || {
            om_explore::explore(&Executor::serial(), &snapshot, &config, &plain, budget)
        }),
    );
    let kernel = om.kernel().map_err(err("kernel"))?;
    let walk = DrillConfig {
        compare: config.clone(),
        ..DrillConfig::default()
    };
    let (levels, ms) = timed(|| {
        let mut pop = SelectorPopulation::new(kernel.selector(), specs[0].attr);
        om_compare::drill_down_via(&mut pop, &specs[0], &walk, budget, |store, spec, budget| {
            Comparator::with_config(&store, config.clone()).compare_budgeted(spec, budget)
        })
    });
    levels.map_err(err("drill walk"))?;
    v.set("om-compare.drill_ms", ms);
    Ok(())
}

fn api_and_server_layers(v: &mut Values, inputs: &Inputs, stack: &Stack) -> Res<()> {
    let body = &inputs.ingest_bodies[0];
    let rows = inputs.ingest_rows[0].len() as f64;
    let ms = p50_ms(5, || IngestRequest::parse(body));
    v.set("om-api.ingest_parse_us_per_row", ms * 1e3 / rows);
    let compare = &inputs.pools.compare[0].body;
    let raw = format!(
        "POST /v1/compare HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{compare}",
        stack.addr,
        compare.len()
    );
    let ms = p50_ms(200, || om_server::http::parse_request(raw.as_bytes()));
    v.set("om-server.http_parse_us", ms * 1e3);
    Ok(())
}

/// om-ingest on a scratch engine over a sample, so the served store
/// keeps the row count the oracle expects.
fn ingest_layers(v: &mut Values, opts: &Opts, inputs: &Inputs) -> Res<()> {
    let n = inputs.prepared.n_rows().min(20_000);
    let sample = inputs
        .prepared
        .take_rows(&(0..n).collect::<Vec<_>>())
        .map_err(err("take_rows"))?;
    let dir = opts.out.join("wal-scratch");
    let scratch = Engine::build(sample, dir.join("sync"))?;
    let parser =
        RowParser::new(scratch.om.dataset().schema().clone(), &[]).map_err(err("parser"))?;
    let labeled = &inputs.ingest_rows[0];
    let ids = labeled
        .iter()
        .enumerate()
        .map(|(i, row)| parser.parse_fields(row, i + 1))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err("parse_fields"))?;
    let rows = ids.len() as f64;

    let (r, ms) = timed(|| scratch.ingest.append_rows(ids.clone()));
    r.map_err(err("append_rows"))?;
    v.set("om-ingest.append_rows_per_s", rows / (ms / 1e3));
    let stats = scratch.ingest.stats();
    v.set(
        "om-ingest.wal_bytes_per_row",
        stats.wal_bytes as f64 / stats.rows_total as f64,
    );
    let (r, ms) = timed(|| scratch.ingest.seal_now());
    r.map_err(err("seal_now"))?;
    v.set("om-ingest.seal_ms", ms);
    let (r, ms) = timed(|| scratch.ingest.append_labeled(labeled));
    r.map_err(err("append_labeled"))?;
    v.set("om-ingest.append_labeled_rows_per_s", rows / (ms / 1e3));
    let (r, ms) = timed(|| scratch.ingest.flush());
    r.map_err(err("flush"))?;
    v.set("om-ingest.flush_ms", ms);

    // Recovery: rows appended but never sealed are replayed at start.
    scratch
        .ingest
        .append_rows(ids.clone())
        .map_err(err("append_rows"))?;
    scratch.ingest.shutdown();
    let (handle, ms) = timed(|| {
        scratch
            .om
            .start_ingest(&IngestConfig::new(dir.join("sync")))
    });
    handle.map_err(err("recovery"))?.shutdown();
    v.set("om-ingest.recovery_replay_ms", ms);

    // The same append without fsync splits the device from the CPU.
    let nosync = scratch
        .om
        .start_ingest(&IngestConfig {
            sync_writes: false,
            ..IngestConfig::new(dir.join("nosync"))
        })
        .map_err(err("start_ingest"))?;
    let (r, ms) = timed(|| nosync.append_rows(ids));
    r.map_err(err("append_rows"))?;
    v.set("om-ingest.append_rows_per_s.nosync", rows / (ms / 1e3));
    nosync.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Compares from one thread while another ingests and flushes.
fn read_under_ingest(inputs: &Inputs, stack: &Stack) -> Res<f64> {
    let addr = stack.addr;
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut ms = Vec::new();
            let mut i = 0;
            while !done.load(std::sync::atomic::Ordering::SeqCst) || ms.len() < 8 {
                let body = &inputs.pools.compare[i % POOL].body;
                if let Ok(reply) = client::post(addr, Op::Compare.path(), body) {
                    ms.push(reply.timing.total_us() / 1e3);
                }
                i += 1;
            }
            median(&ms)
        });
        let mut result = Ok(());
        for body in inputs.ingest_bodies.iter().take(3) {
            result = client::post(addr, Op::Ingest.path(), body)
                .map_err(err("ingest under read"))
                .and_then(|_| stack.flush());
            if result.is_err() {
                break;
            }
        }
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        let p50 = reader
            .join()
            .map_err(|_| "reader thread panicked".to_owned())?;
        result.map(|()| p50)
    })
}

/// Two closed-loop clients for a short, fixed number of reads.
fn two_clients(inputs: &Inputs, stack: &Stack) -> f64 {
    const PER_CLIENT: usize = 100;
    let addr = stack.addr;
    let t = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..2 {
            scope.spawn(move || {
                for i in 0..PER_CLIENT {
                    let (op, pool) = if i % 2 == 0 {
                        (Op::Compare, &inputs.pools.compare)
                    } else {
                        (Op::Slice, &inputs.pools.slice)
                    };
                    let _ = client::post(addr, op.path(), &pool[(i + c) % POOL].body);
                }
            });
        }
    });
    (2 * PER_CLIENT) as f64 / t.elapsed().as_secs_f64()
}

/// What a coordinator pays beyond one node: pins, fetches, refreshes,
/// level fan-out, ingest routing, and how reads scale with partitions.
fn cluster_layers<'a>(
    v: &mut Values,
    opts: &Opts,
    inputs: &'a Inputs,
    stack: &Stack,
    session: &mut Session<'a>,
    reference: &Reference<'_>,
    next_cycle: usize,
) -> Res<()> {
    let front = stack.front.as_ref().expect("cluster workload");
    let coordinator = &front.coordinator;
    let budget = Budget::unlimited();
    v.set(
        "om-cluster.steady_pin_us",
        p50_ms(20, || coordinator.query_store(&budget)) * 1e3,
    );

    // One more generation: what the refresh read is made of.
    ingest_phase(session, stack, reference, next_cycle..next_cycle + 1)?;
    let shard = |i: usize| {
        ShardClient::new(
            stack.nodes[i].server.local_addr().to_string(),
            SHARD_TIMEOUT,
        )
    };
    let generation = stack.nodes[0].engine.om.store_generation();
    let (fetched, ms) = timed(|| shard(0).get(&format!("/internal/store?expect={generation}")));
    let (_, body) = fetched.map_err(err("store fetch"))?;
    v.set("om-cluster.store_fetch_ms", ms);
    v.set("om-cluster.store_fetch_bytes", body.len() as f64);
    ingest_phase(session, stack, reference, next_cycle + 1..next_cycle + 2)?;
    // The compare in that cycle already refreshed; bump once more and
    // time the pin that has to fetch, decode and merge.
    let rows = &inputs.ingest_rows[next_cycle + 2];
    let (routed, ms) = timed(|| coordinator.ingest_rows(rows));
    routed.map_err(|_| "coordinator ingest failed".to_owned())?;
    v.set(
        "om-cluster.ingest_route_rows_per_s",
        rows.len() as f64 / (ms / 1e3),
    );
    stack.flush()?;
    if let Reference::Union(engine) = reference {
        engine
            .ingest
            .append_labeled(rows)
            .and_then(|_| engine.ingest.flush())
            .map_err(err("union engine ingest"))?;
    }
    let (pinned, ms) = timed(|| coordinator.query_store(&budget));
    pinned.map_err(|_| "refresh pin failed".to_owned())?;
    v.set("om-cluster.refresh_ms", ms);

    // A conditioned level from both shards at once, then the same drill
    // again from the coordinator's level cache.
    let drill = &inputs.pools.drill[0].body;
    let d = DrillRequest::parse(drill)?;
    let c = coordinator
        .condition_by_name(&d.path[0].attr, &d.path[0].value)
        .map_err(|_| "cannot resolve the drill condition".to_owned())?;
    let schema = stack.nodes[0].engine.om.dataset().schema();
    let attrs: Vec<u64> = schema
        .non_class_indices()
        .into_iter()
        .filter(|&a| a != c.attr)
        .map(|a| a as u64)
        .collect();
    let level = om_api::InternalLevelRequest {
        conditions: vec![om_api::ConditionWire {
            attr: c.attr as u64,
            value: u64::from(c.value),
        }],
        attrs,
    }
    .encode();
    let (_, ms) = timed(|| {
        std::thread::scope(|scope| {
            for i in 0..stack.nodes.len() {
                let (level, shard) = (&level, shard(i));
                scope.spawn(move || shard.post("/internal/level", level));
            }
        });
    });
    v.set("om-cluster.level_fanout_ms", ms);
    let hit = client::post(stack.addr, Op::Drill.path(), drill).map_err(err("drill hit"))?;
    v.set("om-cluster.drill_hit_ms", hit.timing.total_us() / 1e3);

    // The same slices behind 1, 2 and 4 partitions of a sample.
    let n = inputs.prepared.n_rows().min(100_000);
    let sample = inputs
        .prepared
        .take_rows(&(0..n).collect::<Vec<_>>())
        .map_err(err("take_rows"))?;
    let mut rng = Rng::new(opts.seed);
    for partitions in [1, 2, 4] {
        let mini = Stack::cluster(
            &sample,
            partitions,
            &opts.out.join(format!("wal-p{partitions}")),
        )?;
        let ms: Vec<f64> = (0..60)
            .filter_map(|_| {
                let body = &inputs.pools.slice[rng.below(POOL)].body;
                client::post(mini.addr, Op::Slice.path(), body).ok()
            })
            .map(|r| r.timing.total_us() / 1e3)
            .collect();
        v.set(
            &format!("om-cluster.slice_p50_ms.p{partitions}"),
            median(&ms),
        );
        mini.shutdown();
    }
    Ok(())
}
