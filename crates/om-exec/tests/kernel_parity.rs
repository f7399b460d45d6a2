//! Kernel ↔ record-walk parity: every query path that now counts
//! through the columnar kernel (`om_cube::kernel`) must stay
//! byte-identical to the record walk it replaced — compare, drill,
//! general impressions, and explore — at exec widths 1, 2 and 8, over
//! property-generated datasets.
//!
//! The record-walk side is reconstructed here exactly as the retired
//! code did it (`Dataset::sub_population` + an index-free
//! `CubeStore::build` per level), so the old counting path stays
//! checkable even though production no longer runs it.

use std::sync::Arc;

use om_car::Condition;
use om_compare::{
    drill_down_via, drill_path_via, Comparator, CompareConfig, CompareError, ComparisonSpec,
    Descent, DrillConfig, DrillLevel, DrillMemo, DrillPopulation, SelectorPopulation,
};
use om_cube::{ColumnIndex, CubeStore, StoreBuildOptions};
use om_data::{Dataset, Schema};
use om_exec::{rank_parallel, run_batch, BatchItem, BatchOutcome, ExecConfig, Executor};
use om_explore::ExploreQuery;
use om_fault::Budget;
use om_gi::{
    mine_exceptions_budgeted, mine_influence_budgeted, mine_trends_budgeted, ExceptionConfig,
    TrendConfig,
};
use om_synth::{generate_scaleup, ScaleUpConfig};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

const WIDTHS: [usize; 3] = [1, 2, 8];

fn dataset(n_attrs: usize, n_records: usize, seed: u64) -> Dataset {
    generate_scaleup(&ScaleUpConfig {
        n_attrs,
        n_records,
        seed,
        ..ScaleUpConfig::default()
    })
}

/// The pre-kernel counting path: record walk, no index.
fn record_walk_store(ds: &Dataset) -> Arc<CubeStore> {
    Arc::new(
        CubeStore::build(
            ds,
            &StoreBuildOptions {
                index: false,
                ..StoreBuildOptions::default()
            },
        )
        .unwrap(),
    )
}

/// The kernel path: one shared column scan through the column index.
fn kernel_store(ds: &Dataset) -> Arc<CubeStore> {
    let index = Arc::new(ColumnIndex::build(ds).unwrap());
    Arc::new(index.selector().build_store_eager(None).unwrap())
}

fn spec_for(ds: &Dataset, attr: usize) -> Option<ComparisonSpec> {
    let schema = ds.schema();
    let attr = attr % schema.n_attributes();
    if schema.attribute(attr).cardinality() < 2 || schema.n_classes() < 2 {
        return None;
    }
    Some(ComparisonSpec {
        attr,
        value_1: 0,
        value_2: 1,
        class: 1,
    })
}

/// The retired `DatasetPopulation`, reconstructed byte-for-byte: narrow
/// by materializing the sub-population, rebuild cubes per level from
/// records.
struct RecordWalkPopulation {
    current: Dataset,
}

impl DrillPopulation for RecordWalkPopulation {
    fn schema(&self) -> &Schema {
        self.current.schema()
    }

    fn level_store(&mut self, attrs: Vec<usize>) -> Result<Arc<CubeStore>, CompareError> {
        CubeStore::build(
            &self.current,
            &StoreBuildOptions {
                attrs: Some(attrs),
                n_threads: 0,
                index: false,
            },
        )
        .map(Arc::new)
        .map_err(CompareError::Cube)
    }

    fn descend(&mut self, condition: Condition) -> Result<Descent, CompareError> {
        Ok(
            match self.current.sub_population(condition.attr, condition.value) {
                Err(e) => Descent::Invalid(e),
                Ok(sub) if sub.is_empty() => Descent::Empty,
                Ok(sub) => {
                    self.current = sub;
                    Descent::Narrowed
                }
            },
        )
    }
}

fn assert_same_levels(
    label: &str,
    record: &Result<Vec<DrillLevel>, CompareError>,
    kernel: Result<Vec<DrillLevel>, CompareError>,
) {
    match (record, kernel) {
        (Ok(a), Ok(b)) => assert_eq!(*a, b, "{label}"),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{label}"),
        (a, b) => panic!("{label}: record walk {a:?} but kernel {b:?}"),
    }
}

fn assert_compare_parity(n_attrs: usize, n_records: usize, seed: u64, attr: usize) {
    let ds = dataset(n_attrs, n_records, seed);
    let Some(spec) = spec_for(&ds, attr) else {
        return;
    };
    let record = record_walk_store(&ds);
    let kernel = kernel_store(&ds);
    let config = CompareConfig::default();
    match Comparator::new(&record).compare(&spec) {
        Ok(serial) => {
            let bytes = format!("{serial:?}");
            let k = Comparator::new(&kernel).compare(&spec).unwrap();
            assert_eq!(format!("{k:?}"), bytes, "serial kernel");
            for workers in WIDTHS {
                let exec = Executor::new(&ExecConfig { workers });
                let parallel =
                    rank_parallel(&exec, &kernel, &config, &spec, &Budget::unlimited()).unwrap();
                assert_eq!(
                    format!("{parallel:?}"),
                    bytes,
                    "workers={workers}, n_attrs={n_attrs}, n_records={n_records}, seed={seed}"
                );
            }
        }
        Err(record_err) => {
            // Degenerate draws must fail identically through the kernel.
            let kernel_err = Comparator::new(&kernel)
                .compare(&spec)
                .expect_err("record walk failed, kernel must too");
            assert_eq!(kernel_err.to_string(), record_err.to_string());
        }
    }
}

fn assert_drill_parity(n_attrs: usize, n_records: usize, seed: u64, attr: usize) {
    let ds = dataset(n_attrs, n_records, seed);
    let Some(spec) = spec_for(&ds, attr) else {
        return;
    };
    let config = DrillConfig::default();
    let unlimited = Budget::unlimited();
    let mut record_pop = RecordWalkPopulation {
        current: ds.clone(),
    };
    let record = drill_down_via(
        &mut record_pop,
        &spec,
        &config,
        &unlimited,
        |store, spec, budget| {
            Comparator::with_config(&store, config.compare.clone()).compare_budgeted(spec, budget)
        },
    );

    let index = Arc::new(ColumnIndex::build(&ds).unwrap());
    let mut serial_pop = SelectorPopulation::new(index.selector(), spec.attr);
    let serial = drill_down_via(
        &mut serial_pop,
        &spec,
        &config,
        &unlimited,
        |store, spec, budget| {
            Comparator::with_config(&store, config.compare.clone()).compare_budgeted(spec, budget)
        },
    );
    assert_same_levels("serial kernel drill", &record, serial);

    for workers in WIDTHS {
        let exec = Executor::new(&ExecConfig { workers });
        let mut pop = SelectorPopulation::new(index.selector(), spec.attr);
        let wide = drill_down_via(
            &mut pop,
            &spec,
            &config,
            &unlimited,
            |store, spec, budget| rank_parallel(&exec, &store, &config.compare, spec, budget),
        );
        assert_same_levels(&format!("kernel drill workers={workers}"), &record, wide);
    }

    // The same walk with the conditions pinned: the record-walk
    // reference through `drill_path_via` against the batch executor's
    // fixed-path item — a valid condition, one the second step of which
    // is out of domain, and the automatic walk's own deepest path.
    let other = (ds.schema().non_class_indices().into_iter())
        .find(|&a| a != spec.attr)
        .unwrap();
    let mut paths = vec![
        vec![Condition::new(other, 0)],
        vec![Condition::new(other, 0), Condition::new(other, 99)],
    ];
    if let Some(deepest) = record.iter().flatten().last() {
        if !deepest.conditions.is_empty() {
            paths.push(deepest.conditions.clone());
        }
    }
    let store = kernel_store(&ds);
    for path in paths {
        let mut record_pop = RecordWalkPopulation {
            current: ds.clone(),
        };
        let pinned = drill_path_via(
            &mut record_pop,
            &spec,
            &path,
            &config,
            &unlimited,
            &mut DrillMemo::new(),
            |store, spec, budget| {
                Comparator::with_config(&store, config.compare.clone())
                    .compare_budgeted(spec, budget)
            },
        );
        let want = match pinned {
            Ok(levels) => BatchOutcome::Drill(levels),
            Err(e) => BatchOutcome::from_error(&e),
        };
        let item = BatchItem::Drill {
            spec,
            path: path.clone(),
            budget_ms: None,
        };
        for workers in WIDTHS {
            let exec = Executor::new(&ExecConfig { workers });
            let got = run_batch(
                &exec,
                &store,
                &index,
                &config.compare,
                &config,
                std::slice::from_ref(&item),
                &unlimited,
            );
            assert_eq!(got, vec![want.clone()], "path={path:?}, workers={workers}");
        }
    }
}

fn assert_gi_parity(n_attrs: usize, n_records: usize, seed: u64) {
    let ds = dataset(n_attrs, n_records, seed);
    let record = record_walk_store(&ds);
    let kernel = kernel_store(&ds);
    let unlimited = Budget::unlimited();
    let trend = TrendConfig::default();
    let exception = ExceptionConfig::default();
    assert_eq!(
        mine_trends_budgeted(&record, &trend, &unlimited).unwrap(),
        mine_trends_budgeted(&kernel, &trend, &unlimited).unwrap(),
    );
    assert_eq!(
        mine_exceptions_budgeted(&record, &exception, &unlimited).unwrap(),
        mine_exceptions_budgeted(&kernel, &exception, &unlimited).unwrap(),
    );
    assert_eq!(
        mine_influence_budgeted(&record, &unlimited).unwrap(),
        mine_influence_budgeted(&kernel, &unlimited).unwrap(),
    );
}

fn assert_explore_parity(n_attrs: usize, n_records: usize, seed: u64) {
    let ds = dataset(n_attrs, n_records, seed);
    let schema = ds.schema();
    // A record-walk store against an indexed one: sliced pools (pair
    // cubes sliced at the condition) must agree cell for cell.
    let record = record_walk_store(&ds);
    let indexed = Arc::new(CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap());
    assert!(
        indexed.index().is_some(),
        "default build must carry an index"
    );
    let slice_attr = schema.attribute(0);
    let mut queries = vec![ExploreQuery::top_k(3)];
    if !slice_attr.domain().labels().is_empty() {
        queries.push(ExploreQuery {
            slice: vec![(
                slice_attr.name().to_owned(),
                slice_attr.domain().labels()[0].clone(),
            )],
            k: 3,
            max_conditions: None,
            compare: None,
        });
    }
    let config = CompareConfig::default();
    for workers in WIDTHS {
        let exec = Executor::new(&ExecConfig { workers });
        for (qi, query) in queries.iter().enumerate() {
            let a = om_explore::explore(&exec, &record, &config, query, &Budget::unlimited());
            let b = om_explore::explore(&exec, &indexed, &config, query, &Budget::unlimited());
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "workers={workers}, query={qi}"),
                (Err(x), Err(y)) => {
                    assert_eq!(
                        x.to_string(),
                        y.to_string(),
                        "workers={workers}, query={qi}"
                    );
                }
                (a, b) => panic!("workers={workers}, query={qi}: pair path {a:?}, kernel {b:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn kernel_compare_matches_record_walk(
        n_attrs in 3..12usize,
        n_records in 400..2_500usize,
        seed in 0..u64::MAX,
        attr in 0..12usize,
    ) {
        assert_compare_parity(n_attrs, n_records, seed, attr);
    }

    #[test]
    fn kernel_drill_matches_record_walk(
        n_attrs in 3..10usize,
        n_records in 400..2_000usize,
        seed in 0..u64::MAX,
        attr in 0..10usize,
    ) {
        assert_drill_parity(n_attrs, n_records, seed, attr);
    }

    #[test]
    fn kernel_gi_matches_record_walk(
        n_attrs in 3..10usize,
        n_records in 400..2_000usize,
        seed in 0..u64::MAX,
    ) {
        assert_gi_parity(n_attrs, n_records, seed);
    }

    #[test]
    fn kernel_explore_matches_pair_slices(
        n_attrs in 3..9usize,
        n_records in 400..1_600usize,
        seed in 0..u64::MAX,
    ) {
        assert_explore_parity(n_attrs, n_records, seed);
    }
}

/// The paper's own scenario, end to end: kernel drill (serial and every
/// width) equals the record walk on realistic nested effects.
#[test]
fn paper_scenario_drill_parity() {
    let (ds, truth) = om_synth::paper_scenario(20_000, 33);
    let schema = ds.schema();
    let attr = schema.attr_index(&truth.compare_attr).unwrap();
    let spec = ComparisonSpec {
        attr,
        value_1: schema
            .attribute(attr)
            .domain()
            .get(&truth.baseline_value)
            .unwrap(),
        value_2: schema
            .attribute(attr)
            .domain()
            .get(&truth.target_value)
            .unwrap(),
        class: schema.class().domain().get(&truth.target_class).unwrap(),
    };
    let config = DrillConfig::default();
    let unlimited = Budget::unlimited();
    let mut record_pop = RecordWalkPopulation {
        current: ds.clone(),
    };
    let record = drill_down_via(
        &mut record_pop,
        &spec,
        &config,
        &unlimited,
        |store, spec, budget| {
            Comparator::with_config(&store, config.compare.clone()).compare_budgeted(spec, budget)
        },
    )
    .unwrap();
    assert!(!record.is_empty());

    let index = Arc::new(ColumnIndex::build(&ds).unwrap());
    for workers in WIDTHS {
        let exec = Executor::new(&ExecConfig { workers });
        let mut pop = SelectorPopulation::new(index.selector(), spec.attr);
        let kernel = drill_down_via(
            &mut pop,
            &spec,
            &config,
            &unlimited,
            |store, spec, budget| rank_parallel(&exec, &store, &config.compare, spec, budget),
        )
        .unwrap();
        assert_eq!(record, kernel, "workers={workers}");
    }
}
