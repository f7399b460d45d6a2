//! Workloads: the seeded data, the request pools, and the fixed-work
//! schedule. Everything here is a pure function of (workload, seed,
//! shape): the same seed gives the same request bytes.

use om_api::{
    BatchItemRequest, BatchRequest, CompareRequest, DrillRequest, ExploreCompareBlock,
    ExploreRequest, GiRequest, IngestRequest, PathStep, SliceRequest,
};
use om_data::{Column, Dataset, ValueId};
use om_discretize::{discretize_all, CutPoints, Method};
use om_synth::{generate_call_log, generate_scaleup, CallLogConfig, Effect, ScaleUpConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WideSingle,
    TallSingle,
    TallCluster,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WideSingle,
        Workload::TallSingle,
        Workload::TallCluster,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WideSingle => "wide_single",
            Workload::TallSingle => "tall_single",
            Workload::TallCluster => "tall_cluster",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_tall(self) -> bool {
        self != Workload::WideSingle
    }

    pub fn is_cluster(self) -> bool {
        self == Workload::TallCluster
    }

    /// Why this workload is in the benchmark (`BENCHMARK.json` `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::WideSingle => "160 attrs x 100k rows on one om-server: attribute-bound (paper Fig. 9/10); ranking, 185 KB bodies and 12720 pair cubes dominate, transport is a few percent",
            Workload::TallSingle => "37 attrs x 1M rows on one om-server: row- and transport-bound; drills scan 1M rows while compare/gi/slice answer in about a millisecond; ranking changes barely show",
            Workload::TallCluster => "tall_single's inputs behind a 2-partition coordinator: the difference is om-cluster (generation polls, store fetch/decode/merge, level fan-out); engine changes should not show",
        }
    }
}

/// The request kinds the client times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    Compare,
    Drill,
    Explore,
    Batch,
    Gi,
    Slice,
    Ingest,
}

impl Op {
    pub const ALL: [Op; 7] = [
        Op::Compare,
        Op::Drill,
        Op::Explore,
        Op::Batch,
        Op::Gi,
        Op::Slice,
        Op::Ingest,
    ];
    /// The read-phase kinds, in schedule order.
    pub const READS: [Op; 6] = [
        Op::Compare,
        Op::Drill,
        Op::Explore,
        Op::Batch,
        Op::Gi,
        Op::Slice,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Compare => "compare",
            Op::Drill => "drill",
            Op::Explore => "explore",
            Op::Batch => "batch",
            Op::Gi => "gi",
            Op::Slice => "slice",
            Op::Ingest => "ingest",
        }
    }

    /// The root span of a request of this kind on the wire, and of its
    /// in-process replay.
    pub fn span_names(self) -> (&'static str, &'static str) {
        match self {
            Op::Compare => ("client.compare", "replay.compare"),
            Op::Drill => ("client.drill", "replay.drill"),
            Op::Explore => ("client.explore", "replay.explore"),
            Op::Batch => ("client.batch", "replay.batch"),
            Op::Gi => ("client.gi", "replay.gi"),
            Op::Slice => ("client.slice", "replay.slice"),
            Op::Ingest => ("client.ingest", "replay.ingest"),
        }
    }

    pub fn path(self) -> &'static str {
        match self {
            Op::Compare => "/v1/compare",
            Op::Drill => "/v1/drill",
            Op::Explore => "/v1/explore",
            Op::Batch => "/v1/compare/batch",
            Op::Gi => "/v1/gi",
            Op::Slice => "/v1/cube/slice",
            Op::Ingest => "/v1/ingest",
        }
    }

    /// Fewest samples a full-shape run must have behind this p50: 50 of
    /// a heavy operation (for ingest, 50 cycles and so 50 refresh reads),
    /// 400 of one that answers in about a millisecond.
    pub fn min_samples(self) -> usize {
        match self {
            Op::Compare | Op::Slice => 400,
            Op::Explore | Op::Batch | Op::Gi => 100,
            Op::Drill | Op::Ingest => 50,
        }
    }
}

/// Data and phase sizes. `full` is the benchmark; `smoke` proves the
/// plumbing in seconds and relaxes the sample-count guards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub smoke: bool,
    pub wide_attrs: usize,
    pub wide_rows: usize,
    pub tall_rows: usize,
    pub tall_extra_attrs: usize,
    /// Read-phase rounds, and ingest cycles, at `--seconds == RUN_SECONDS`.
    pub rounds: usize,
}

/// `run_seconds` of `BENCHMARK.json`: about the length of the measured
/// phases (read + ingest) at the full shape on the reference host. Work
/// is fixed, not time: `--seconds` scales the round count linearly and
/// no phase ever looks at a clock to decide when to stop.
pub const RUN_SECONDS: u32 = 30;

impl Shape {
    pub const FULL: Shape = Shape {
        smoke: false,
        wide_attrs: 160,
        wide_rows: 100_000,
        tall_rows: 1_000_000,
        tall_extra_attrs: 28,
        rounds: 50,
    };
    pub const SMOKE: Shape = Shape {
        smoke: true,
        wide_attrs: 40,
        wide_rows: 20_000,
        tall_rows: 60_000,
        tall_extra_attrs: 28,
        rounds: 4,
    };

    /// Rounds of the read schedule for a run of `seconds`. Each round
    /// holds one drill, and the ingest phase has as many cycles as the
    /// read phase has rounds: 50 of each at the full shape.
    pub fn rounds_for(&self, seconds: f64) -> usize {
        let scaled = self.rounds as f64 * seconds / f64::from(RUN_SECONDS);
        // The traced run splits the schedule in quarters and spends
        // three more ingest cycles on the cluster's refresh path.
        (scaled.round() as usize).max(4)
    }

    /// Rows per `POST /v1/ingest`: 512 on wide keeps the body under the
    /// server's default 1 MiB cap.
    pub fn ingest_rows(&self, workload: Workload) -> usize {
        match (workload.is_tall(), self.smoke) {
            (true, false) => 2048,
            (false, false) => 512,
            (true, true) => 256,
            (false, true) => 128,
        }
    }
}

/// splitmix64: all the randomness the pools and the schedule need.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One request of a pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub op: Op,
    pub body: String,
}

/// Entries per compare/explore/batch/gi/slice pool.
pub const POOL: usize = 16;
/// Drills the warm-up sends and checks byte for byte against the
/// reference engine; the timed drills come after them in the pool.
pub const CHECKED_DRILLS: usize = 4;

pub struct Pools {
    pub compare: Vec<Req>,
    pub explore: Vec<Req>,
    pub batch: Vec<Req>,
    pub gi: Vec<Req>,
    pub slice: Vec<Req>,
    /// Distinct, each used once; the first [`CHECKED_DRILLS`] are the
    /// warm-up's, the rest the schedule's.
    pub drill: Vec<Req>,
}

impl Pools {
    pub fn of(&self, op: Op) -> &[Req] {
        match op {
            Op::Compare => &self.compare,
            Op::Explore => &self.explore,
            Op::Batch => &self.batch,
            Op::Gi => &self.gi,
            Op::Slice => &self.slice,
            Op::Drill => &self.drill,
            Op::Ingest => &[],
        }
    }
}

/// Everything a run is fed: made from the seed, before any clock starts.
pub struct Inputs {
    /// The base records as generated (tall: two continuous attributes).
    pub base: Dataset,
    /// The base records discretized — what pools are drawn from, and
    /// what a cluster is partitioned from.
    pub prepared: Dataset,
    pub pools: Pools,
    /// One encoded `POST /v1/ingest` body per cycle.
    pub ingest_bodies: Vec<String>,
    /// The same rows as label vectors (the cluster's union engine is fed
    /// these in-process).
    pub ingest_rows: Vec<Vec<Vec<String>>>,
    /// The planted-cause compare (tall only): pool entry 0.
    pub planted: Option<Req>,
}

/// An attribute as the pools see it: its name and the values frequent
/// enough (>= 1 % of rows) that no comparison or condition runs thin.
struct AttrInfo {
    /// Index in the schema.
    index: usize,
    name: String,
    values: Vec<String>,
    /// The id and the share of rows of each of `values`.
    ids: Vec<ValueId>,
    shares: Vec<f64>,
}

fn frequent_values(ds: &Dataset) -> Vec<AttrInfo> {
    let schema = ds.schema();
    let floor = (ds.n_rows() / 100).max(1) as u64;
    schema
        .non_class_indices()
        .into_iter()
        .map(|a| {
            let counts = ds.value_counts(a).expect("prepared data is categorical");
            let attr = schema.attribute(a);
            let frequent: Vec<(ValueId, &str)> = attr
                .domain()
                .iter()
                .filter(|(id, _)| counts[*id as usize] >= floor)
                .collect();
            AttrInfo {
                index: a,
                name: attr.name().to_owned(),
                values: frequent
                    .iter()
                    .map(|(_, label)| (*label).to_owned())
                    .collect(),
                ids: frequent.iter().map(|(id, _)| *id).collect(),
                shares: frequent
                    .iter()
                    .map(|(id, _)| counts[*id as usize] as f64 / ds.n_rows() as f64)
                    .collect(),
            }
        })
        .collect()
}

/// Rows of `ds` holding value `va` of `a` and value `vb` of `b`.
fn rows_selected(ds: &Dataset, a: &AttrInfo, va: usize, b: &AttrInfo, vb: usize) -> usize {
    let col = |attr: &AttrInfo| {
        ds.categorical(attr.index)
            .expect("prepared data is categorical")
    };
    col(a)
        .iter()
        .zip(col(b))
        .filter(|(x, y)| **x == a.ids[va] && **y == b.ids[vb])
        .count()
}

fn pick_pair(rng: &mut Rng, values: &[String]) -> (String, String) {
    let i = rng.below(values.len());
    let j = (i + 1 + rng.below(values.len() - 1)) % values.len();
    (values[i].clone(), values[j].clone())
}

fn tall_dataset(n_records: usize, extra: usize, seed: u64) -> Dataset {
    // The effects of `om_synth::paper_scenario`, on wider data.
    generate_call_log(&CallLogConfig {
        n_records,
        seed,
        n_extra_attrs: extra,
        effects: vec![
            Effect::value("PhoneModel", "ph2", "dropped", 0.35),
            Effect::interaction("PhoneModel", "ph2", "TimeOfCall", "morning", "dropped", 2.2),
            Effect::value("NetworkLoad", "high", "dropped", 0.8),
        ],
        ..CallLogConfig::default()
    })
}

/// Render rows `range` of `raw` as the labels `/v1/ingest` takes: a
/// categorical value by its label, a continuous one by the label of the
/// bin the base build's cut points put it in.
fn label_rows(
    raw: &Dataset,
    cuts: &[(usize, CutPoints)],
    range: std::ops::Range<usize>,
) -> Vec<Vec<String>> {
    let schema = raw.schema();
    let bin_labels: Vec<Option<Vec<String>>> = (0..schema.n_attributes())
        .map(|a| {
            cuts.iter()
                .find(|(idx, _)| *idx == a)
                .map(|(_, c)| c.labels(3))
        })
        .collect();
    range
        .map(|r| {
            (0..schema.n_attributes())
                .map(|a| match raw.column(a) {
                    Column::Categorical(ids) => schema
                        .attribute(a)
                        .domain()
                        .label(ids[r])
                        .expect("generated id is in its domain")
                        .to_owned(),
                    Column::Continuous(xs) => {
                        let (_, c) = cuts
                            .iter()
                            .find(|(idx, _)| *idx == a)
                            .expect("every continuous attribute was discretized");
                        bin_labels[a].as_ref().expect("labels exist with cuts")[c.bin_of(xs[r])]
                            .clone()
                    }
                })
                .collect()
        })
        .collect()
}

impl Inputs {
    /// Generate base data, ingest rows, and pools for `rounds` rounds:
    /// one timed drill and one ingest cycle per round.
    pub fn generate(workload: Workload, seed: u64, shape: &Shape, rounds: usize) -> Inputs {
        let per_post = shape.ingest_rows(workload);
        let extra_rows = rounds * per_post;
        let (raw, base_rows) = if workload.is_tall() {
            let n = shape.tall_rows;
            (
                tall_dataset(n + extra_rows, shape.tall_extra_attrs, seed),
                n,
            )
        } else {
            let n = shape.wide_rows;
            let raw = generate_scaleup(&ScaleUpConfig {
                n_attrs: shape.wide_attrs,
                n_records: n + extra_rows,
                seed,
                ..ScaleUpConfig::default()
            });
            (raw, n)
        };
        let base_idx: Vec<usize> = (0..base_rows).collect();
        let base = raw.take_rows(&base_idx).expect("row indices in range");
        let mut prepared = base.clone();
        let cuts =
            discretize_all(&mut prepared, &Method::EntropyMdl).expect("generated data discretizes");

        let ingest_rows: Vec<Vec<Vec<String>>> = (0..rounds)
            .map(|c| {
                let start = base_rows + c * per_post;
                label_rows(&raw, &cuts, start..start + per_post)
            })
            .collect();
        let ingest_bodies = ingest_rows
            .iter()
            .map(|rows| IngestRequest { rows: rows.clone() }.encode())
            .collect();

        let planted = workload.is_tall().then(|| CompareRequest {
            attr: "PhoneModel".into(),
            v1: "ph1".into(),
            v2: "ph2".into(),
            class: "dropped".into(),
            allow_partial: None,
        });
        let pools = build_pools(&prepared, seed, rounds, planted.as_ref());
        Inputs {
            base,
            prepared,
            planted: planted.map(|_| pools.compare[0].clone()),
            pools,
            ingest_bodies,
            ingest_rows,
        }
    }

    /// FNV-1a over every request and ingest body: two workloads fed the
    /// same inputs hash equal.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |s: &str| {
            for b in s.bytes().chain([0u8]) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for op in Op::READS {
            for r in self.pools.of(op) {
                eat(&r.body);
            }
        }
        for b in &self.ingest_bodies {
            eat(b);
        }
        h
    }
}

fn build_pools(
    prepared: &Dataset,
    seed: u64,
    n_drills: usize,
    planted: Option<&CompareRequest>,
) -> Pools {
    let mut rng = Rng::new(seed ^ 0x0070_6f6f_6c73);
    let attrs = frequent_values(prepared);
    let classes: Vec<String> = prepared.schema().class().domain().labels()[1..].to_vec();
    let class_of = |i: usize| classes[i % classes.len()].clone();

    let mut comparable: Vec<&AttrInfo> = attrs.iter().filter(|a| a.values.len() >= 2).collect();
    rng.shuffle(&mut comparable);
    let mut compares: Vec<CompareRequest> = planted.into_iter().cloned().collect();
    let mut i = 0;
    while compares.len() < 2 * POOL {
        let a = comparable[i % comparable.len()];
        let (v1, v2) = pick_pair(&mut rng, &a.values);
        let c = CompareRequest {
            attr: a.name.clone(),
            v1,
            v2,
            class: class_of(i),
            allow_partial: None,
        };
        if !compares.contains(&c) {
            compares.push(c);
        }
        i += 1;
    }
    // The second half anchors the explores, so the two pools never ask
    // the engine the same comparison.
    let explore_anchors = compares.split_off(POOL);

    let req = |op: Op, body: String| Req { op, body };
    let compare = compares
        .iter()
        .map(|c| req(Op::Compare, c.encode()))
        .collect();
    let explore = explore_anchors
        .iter()
        .map(|c| {
            let body = ExploreRequest {
                slice: Vec::new(),
                k: 8,
                max_conditions: None,
                budget_ms: None,
                compare: Some(ExploreCompareBlock {
                    attr: c.attr.clone(),
                    v1: c.v1.clone(),
                    v2: c.v2.clone(),
                    class: c.class.clone(),
                }),
            };
            req(Op::Explore, body.encode())
        })
        .collect();
    let gi = (0..POOL)
        .map(|i| {
            let body = GiRequest {
                top: Some(5 + i as u64),
                allow_partial: None,
            };
            req(Op::Gi, body.encode())
        })
        .collect();
    // Eight one-dimensional slices and eight pair slices, over a seeded
    // order of the attributes.
    let mut order: Vec<&AttrInfo> = attrs.iter().collect();
    rng.shuffle(&mut order);
    let slice = (0..POOL)
        .map(|i| {
            let j = (i / 2) % order.len();
            let body = SliceRequest {
                attr: order[j].name.clone(),
                by: (i % 2 == 1).then(|| order[(j + 1) % order.len()].name.clone()),
            };
            req(Op::Slice, body.encode())
        })
        .collect::<Vec<_>>();

    // A batch is 8 compare items over distinct ordered value pairs of
    // one attribute: 4 frequent values give 12 pairs.
    let mut batchable: Vec<&AttrInfo> = attrs.iter().filter(|a| a.values.len() >= 4).collect();
    rng.shuffle(&mut batchable);
    let batch = (0..POOL)
        .map(|i| {
            let a = batchable[i % batchable.len()];
            let mut pairs: Vec<(usize, usize)> = (0..a.values.len())
                .flat_map(|x| (0..a.values.len()).map(move |y| (x, y)))
                .filter(|(x, y)| x != y)
                .collect();
            rng.shuffle(&mut pairs);
            let class = class_of(i / batchable.len() + i);
            let items = pairs[..8]
                .iter()
                .map(|&(x, y)| BatchItemRequest::Compare {
                    req: CompareRequest {
                        attr: a.name.clone(),
                        v1: a.values[x].clone(),
                        v2: a.values[y].clone(),
                        class: class.clone(),
                        allow_partial: None,
                    },
                    budget_ms: None,
                })
                .collect();
            req(Op::Batch, BatchRequest { items }.encode())
        })
        .collect();

    // Fixed-path drills, depth 2: root, one condition, two conditions.
    // Every drill's first condition is distinct, so no drill finds
    // another's conditioned level in a cache. The root level reads the
    // served store; each conditioned level costs a scan of the rows its
    // conditions select. So first conditions come from the values
    // holding 15-30 % of the rows: with 1 % values beside 50 % ones a
    // drill's cost would spread over a factor of fifty, fail the
    // unimodality guard, and its median would follow the seed's draw,
    // not the code.
    let mut conditions: Vec<(usize, usize)> = attrs
        .iter()
        .enumerate()
        .flat_map(|(ai, a)| {
            (0..a.values.len())
                .filter(|&vi| (0.15..=0.30).contains(&a.shares[vi]))
                .map(move |vi| (ai, vi))
        })
        .collect();
    rng.shuffle(&mut conditions);
    let n = CHECKED_DRILLS + n_drills;
    assert!(
        conditions.len() >= n,
        "{} distinct conditions cannot seed {n} drills",
        conditions.len()
    );
    let drill = conditions[..n]
        .iter()
        .enumerate()
        .map(|(i, &(c1_attr, c1_value))| {
            // Attributes can determine one another (a phone model has one
            // hardware version), and a path that selects no record is a
            // 422: keep to second conditions that leave the first at
            // least 0.5 % of the rows.
            let (subject, c2_attr, c2_value) = loop {
                let s = rng.below(attrs.len());
                let c2 = rng.below(attrs.len());
                let v = rng.below(attrs[c2].values.len());
                if s != c1_attr
                    && c2 != c1_attr
                    && s != c2
                    && attrs[s].values.len() >= 2
                    && rows_selected(prepared, &attrs[c1_attr], c1_value, &attrs[c2], v)
                        >= prepared.n_rows() / 200
                {
                    break (s, c2, v);
                }
            };
            let (v1, v2) = pick_pair(&mut rng, &attrs[subject].values);
            let step = |a: usize, v: usize| PathStep {
                attr: attrs[a].name.clone(),
                value: attrs[a].values[v].clone(),
            };
            let body = DrillRequest {
                attr: attrs[subject].name.clone(),
                v1,
                v2,
                class: class_of(i),
                depth: None,
                min_score: None,
                path: vec![step(c1_attr, c1_value), step(c2_attr, c2_value)],
            };
            req(Op::Drill, body.encode())
        })
        .collect();

    let pools = Pools {
        compare,
        explore,
        batch,
        gi,
        slice,
        drill,
    };
    for op in Op::READS {
        let pool = pools.of(op);
        for (i, r) in pool.iter().enumerate() {
            assert!(
                !pool[..i].contains(r),
                "{} pool entry {i} repeats an earlier one",
                op.name()
            );
        }
    }
    pools
}

/// One step of the read schedule: which pool entry to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub op: Op,
    pub index: usize,
}

/// How many requests of `op` every round holds: the fewest that give
/// 50 rounds the samples [`Op::min_samples`] asks for, because the one
/// drill of a round costs more than the rest of it together and the
/// driver caps the length of a run. The totals depend on the number of
/// rounds alone — never on the seed, which only orders the requests
/// inside a round.
fn per_round(op: Op) -> usize {
    match op {
        Op::Compare | Op::Slice => 8,
        Op::Explore | Op::Gi => 4,
        Op::Batch => 2,
        Op::Drill => 1,
        Op::Ingest => 0,
    }
}

/// The read schedule: `rounds` rounds, every kind in every round,
/// shuffled inside the round so host drift hits every kind alike.
/// Pooled kinds cycle through their pools; drills are each used once.
pub fn schedule(seed: u64, rounds: usize) -> Vec<Vec<Step>> {
    let mut rng = Rng::new(seed ^ 0x0073_6368_6564);
    let mut cursor = [0usize; Op::ALL.len()];
    (0..rounds)
        .map(|_| {
            let mut round = Vec::new();
            for (slot, op) in Op::READS.into_iter().enumerate() {
                for _ in 0..per_round(op) {
                    let index = if op == Op::Drill {
                        CHECKED_DRILLS + cursor[slot]
                    } else {
                        cursor[slot] % POOL
                    };
                    cursor[slot] += 1;
                    round.push(Step { op, index });
                }
            }
            rng.shuffle(&mut round);
            round
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Shape {
        Shape {
            wide_attrs: 12,
            wide_rows: 3_000,
            tall_rows: 6_000,
            tall_extra_attrs: 6,
            ..Shape::SMOKE
        }
    }

    fn bodies(inputs: &Inputs) -> Vec<String> {
        Op::READS
            .into_iter()
            .flat_map(|op| inputs.pools.of(op).iter().map(|r| r.body.clone()))
            .chain(inputs.ingest_bodies.iter().cloned())
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_request_bytes() {
        for w in [Workload::WideSingle, Workload::TallSingle] {
            let a = Inputs::generate(w, 7, &tiny(), 5);
            let b = Inputs::generate(w, 7, &tiny(), 5);
            assert_eq!(bodies(&a), bodies(&b));
            assert_eq!(a.hash(), b.hash());
            let c = Inputs::generate(w, 8, &tiny(), 5);
            assert_ne!(a.hash(), c.hash());
        }
        assert_eq!(schedule(7, 6), schedule(7, 6));
        assert_ne!(schedule(7, 6), schedule(8, 6));
    }

    #[test]
    fn tall_workloads_share_their_inputs() {
        let single = Inputs::generate(Workload::TallSingle, 3, &tiny(), 4);
        let cluster = Inputs::generate(Workload::TallCluster, 3, &tiny(), 4);
        assert_eq!(single.hash(), cluster.hash());
        assert_eq!(
            single.planted.as_ref().map(|r| r.body.as_str()),
            Some(r#"{"attr":"PhoneModel","v1":"ph1","v2":"ph2","class":"dropped"}"#)
        );
    }

    #[test]
    fn schedule_totals_depend_on_rounds_alone() {
        let count = |s: &[Vec<Step>], op: Op| s.iter().flatten().filter(|x| x.op == op).count();
        let (a, b) = (
            schedule(1, Shape::FULL.rounds),
            schedule(99, Shape::FULL.rounds),
        );
        for op in Op::READS {
            assert_eq!(count(&a, op), count(&b, op));
            assert!(count(&a, op) >= op.min_samples(), "{}", op.name());
        }
        // Every drill is a distinct pool entry past the checked ones.
        let mut drills: Vec<usize> = a
            .iter()
            .flatten()
            .filter(|s| s.op == Op::Drill)
            .map(|s| s.index)
            .collect();
        assert_eq!(drills.len(), Shape::FULL.rounds);
        drills.sort_unstable();
        drills.dedup();
        assert_eq!(drills.len(), Shape::FULL.rounds);
        assert!(drills[0] >= CHECKED_DRILLS);
    }

    #[test]
    fn pools_are_full_and_distinct() {
        let inputs = Inputs::generate(Workload::WideSingle, 5, &tiny(), 6);
        for op in [Op::Compare, Op::Explore, Op::Batch, Op::Gi, Op::Slice] {
            assert_eq!(inputs.pools.of(op).len(), POOL);
        }
        assert_eq!(inputs.pools.drill.len(), CHECKED_DRILLS + 6);
        assert_eq!(inputs.ingest_bodies.len(), 6);
        assert_eq!(inputs.base.n_rows(), 3_000);
    }
}
