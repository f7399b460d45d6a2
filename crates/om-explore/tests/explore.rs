//! Behavior and determinism suite for smart drill-down.
//!
//! The determinism properties mirror om-exec's contract: reports are
//! compared with `==` over the fully-labeled result type, so equality
//! here is byte-equality of any serialization.

use std::sync::Arc;

use om_compare::CompareConfig;
use om_cube::{CubeStore, StoreBuildOptions};
use om_exec::{ExecConfig, Executor};
use om_explore::{explore, CompareNames, ExploreError, ExploreQuery, ExploreReport};
use om_fault::Budget;
use om_synth::paper_scenario;
use proptest::prelude::*;

fn fixture(n: usize, seed: u64) -> (Arc<CubeStore>, om_synth::GroundTruth) {
    let (ds, truth) = paper_scenario(n, seed);
    let store = Arc::new(CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap());
    (store, truth)
}

fn run(store: &Arc<CubeStore>, query: &ExploreQuery, workers: usize) -> ExploreReport {
    let exec = Executor::new(&ExecConfig { workers });
    explore(
        &exec,
        store,
        &CompareConfig::default(),
        query,
        &Budget::unlimited(),
    )
    .unwrap()
}

fn compare_query(truth: &om_synth::GroundTruth, k: usize) -> ExploreQuery {
    ExploreQuery {
        slice: Vec::new(),
        k,
        max_conditions: None,
        compare: Some(CompareNames {
            attr: truth.compare_attr.clone(),
            value_1: truth.baseline_value.clone(),
            value_2: truth.target_value.clone(),
            class: truth.target_class.clone(),
        }),
    }
}

#[test]
fn top_k_whole_population() {
    let (store, _) = fixture(8_000, 7);
    let report = run(&store, &ExploreQuery::top_k(5), 1);
    assert_eq!(report.universe, store.total_records());
    assert!(!report.summaries.is_empty());
    assert!(report.summaries.len() <= 5);
    assert!(!report.truncated);
    assert!(report.steps >= report.summaries.len() as u64);
    // Weighted coverage: bounded by max_conditions x universe.
    assert!(report.covered <= 2 * report.universe);
    assert_eq!(
        report.covered,
        report.summaries.iter().map(|s| s.coverage).sum::<u64>()
    );
    for s in &report.summaries {
        assert!(s.support > 0);
        assert!(s.coverage > 0, "greedy never selects a zero-gain summary");
        assert!(s.coverage <= 2 * s.support);
        assert_eq!(s.confidences.len(), report.classes.len());
        let total: f64 = s.confidences.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "confidences sum to 1, got {total}"
        );
        assert!(s.side.is_none() && s.mass.is_none());
    }
    // Greedy marginals are non-increasing in selection order only for
    // equal-width summaries; across the report they are positive and
    // the first summary dominates.
    let first = &report.summaries[0];
    assert!(report
        .summaries
        .iter()
        .all(|s| s.coverage <= first.coverage));
}

#[test]
fn sliced_exploration_excludes_the_sliced_attribute() {
    let (store, truth) = fixture(8_000, 7);
    let query = ExploreQuery {
        slice: vec![(truth.compare_attr.clone(), truth.target_value.clone())],
        k: 4,
        max_conditions: None,
        compare: None,
    };
    let report = run(&store, &query, 1);
    assert!(report.universe < store.total_records());
    assert!(!report.summaries.is_empty());
    for s in &report.summaries {
        assert_eq!(
            s.conds.len(),
            1,
            "sliced summaries drill exactly one new condition"
        );
        assert_ne!(s.conds[0].attr, truth.compare_attr);
        assert!(s.support <= report.universe);
    }
    // Plain coverage within a slice: bounded by the slice population.
    assert!(report.covered <= report.universe);
}

#[test]
fn max_conditions_one_disables_expansion() {
    let (store, _) = fixture(8_000, 7);
    let query = ExploreQuery {
        max_conditions: Some(1),
        ..ExploreQuery::top_k(6)
    };
    let report = run(&store, &query, 1);
    assert!(report.summaries.iter().all(|s| s.conds.len() == 1));
}

#[test]
fn expansion_can_surface_two_condition_summaries() {
    let (store, _) = fixture(8_000, 7);
    let report = run(&store, &ExploreQuery::top_k(12), 1);
    assert!(
        report.summaries.iter().any(|s| s.conds.len() == 2),
        "with k=12 over the paper scenario, refinements of chosen summaries should win steps"
    );
}

#[test]
fn compare_mode_interleaves_both_sides() {
    let (store, truth) = fixture(8_000, 7);
    let report = run(&store, &compare_query(&truth, 8), 1);
    let meta = report.compare.as_ref().expect("compare meta");
    assert_eq!(meta.attr, truth.compare_attr);
    assert!(!report.summaries.is_empty());
    let sides: Vec<u8> = report.summaries.iter().map(|s| s.side.unwrap()).collect();
    assert!(sides.iter().all(|&s| s == 1 || s == 2));
    assert!(
        sides.contains(&1) && sides.contains(&2),
        "both sides represented: {sides:?}"
    );
    let masses: Vec<f64> = report.summaries.iter().map(|s| s.mass.unwrap()).collect();
    assert!(
        masses.windows(2).all(|w| w[0] >= w[1]),
        "interleaved by non-increasing distinguishing mass: {masses:?}"
    );
    for s in &report.summaries {
        assert_ne!(s.conds[0].attr, truth.compare_attr);
    }
}

#[test]
fn unknown_names_are_typed_errors() {
    let (store, _) = fixture(2_000, 7);
    let exec = Executor::serial();
    let q = ExploreQuery {
        slice: vec![("no-such-attribute".into(), "x".into())],
        ..ExploreQuery::top_k(3)
    };
    let err = explore(
        &exec,
        &store,
        &CompareConfig::default(),
        &q,
        &Budget::unlimited(),
    )
    .unwrap_err();
    assert!(matches!(err, ExploreError::Unknown(_)), "{err:?}");
}

#[test]
fn invalid_queries_are_rejected() {
    let (store, truth) = fixture(2_000, 7);
    let exec = Executor::serial();
    let cfg = CompareConfig::default();
    let b = Budget::unlimited();
    for q in [
        ExploreQuery::top_k(0),
        ExploreQuery::top_k(om_explore::MAX_K + 1),
        ExploreQuery {
            max_conditions: Some(0),
            ..ExploreQuery::top_k(3)
        },
        ExploreQuery {
            slice: vec![
                (truth.compare_attr.clone(), truth.target_value.clone()),
                (truth.compare_attr.clone(), truth.baseline_value.clone()),
            ],
            ..ExploreQuery::top_k(3)
        },
        ExploreQuery {
            slice: vec![(truth.compare_attr.clone(), truth.target_value.clone())],
            ..compare_query(&truth, 3)
        },
    ] {
        let err = explore(&exec, &store, &cfg, &q, &b).unwrap_err();
        assert!(matches!(err, ExploreError::Invalid(_)), "{q:?} -> {err:?}");
    }
}

#[test]
fn expired_budget_before_any_summary_is_an_overload() {
    let (store, _) = fixture(2_000, 7);
    let exec = Executor::serial();
    let spent = Budget::with_timeout(std::time::Duration::ZERO);
    let err = explore(
        &exec,
        &store,
        &CompareConfig::default(),
        &ExploreQuery::top_k(3),
        &spent,
    )
    .unwrap_err();
    assert!(err.is_overload(), "{err:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Byte-identical reports across worker widths and repeated runs,
    /// in every mode.
    #[test]
    fn deterministic_across_widths_and_runs(seed in 0u64..500, k in 1usize..10) {
        let (store, truth) = fixture(3_000, seed);
        let queries = [
            ExploreQuery::top_k(k),
            ExploreQuery {
                slice: vec![(truth.compare_attr.clone(), truth.target_value.clone())],
                ..ExploreQuery::top_k(k)
            },
            compare_query(&truth, k),
        ];
        for query in &queries {
            let baseline = run(&store, query, 1);
            let again = run(&store, query, 1);
            prop_assert_eq!(&baseline, &again, "repeat run diverged");
            for workers in [2, 8] {
                let wide = run(&store, query, workers);
                prop_assert_eq!(&baseline, &wide, "width {} diverged", workers);
            }
        }
    }

    /// Asking for k+1 summaries never changes the first k (greedy
    /// prefix stability).
    #[test]
    fn k_plus_one_is_prefix_stable(seed in 0u64..500, k in 1usize..8) {
        let (store, truth) = fixture(3_000, seed);
        for query in [ExploreQuery::top_k(k), ExploreQuery {
            slice: vec![(truth.compare_attr.clone(), truth.target_value.clone())],
            ..ExploreQuery::top_k(k)
        }] {
            let base = run(&store, &query, 2);
            let bigger = run(&store, &ExploreQuery { k: k + 1, ..query }, 2);
            prop_assert!(bigger.summaries.len() >= base.summaries.len());
            prop_assert_eq!(
                &base.summaries[..],
                &bigger.summaries[..base.summaries.len()],
                "first k summaries changed when asking for k+1"
            );
        }
    }
}
