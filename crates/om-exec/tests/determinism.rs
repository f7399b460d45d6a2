//! Determinism: sharded ranking must be byte-identical to the serial
//! comparator — same scores, same order, same `{:?}` rendering — for any
//! dataset shape and any worker width. Runs the comparison over
//! property-generated datasets at widths 1, 2 and 8.

use std::sync::Arc;

use om_compare::{Comparator, CompareConfig, ComparisonSpec};
use om_cube::{CubeStore, StoreBuildOptions};
use om_exec::{rank_parallel, ExecConfig, Executor};
use om_fault::Budget;
use om_synth::{generate_scaleup, ScaleUpConfig};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

const WIDTHS: [usize; 3] = [1, 2, 8];

/// Run the serial comparator and every sharded width over one dataset,
/// asserting byte-identical `{:?}` renderings (shortest-round-trip
/// floats, and NaN compares equal to NaN as text).
fn assert_widths_agree(n_attrs: usize, n_records: usize, seed: u64, attr: usize) {
    let ds = generate_scaleup(&ScaleUpConfig {
        n_attrs,
        n_records,
        seed,
        ..ScaleUpConfig::default()
    });
    let schema = ds.schema();
    let attr = attr % schema.n_attributes();
    if schema.attribute(attr).cardinality() < 2 || schema.n_classes() < 2 {
        return;
    }
    let spec = ComparisonSpec {
        attr,
        value_1: 0,
        value_2: 1,
        class: 1,
    };
    let store = Arc::new(CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap());
    let config = CompareConfig::default();
    let serial = match Comparator::new(&store).compare(&spec) {
        Ok(r) => r,
        // Degenerate draws (e.g. an empty sub-population) must fail the
        // same way at every width.
        Err(serial_err) => {
            for workers in WIDTHS {
                let exec = Executor::new(&ExecConfig { workers });
                let err = rank_parallel(&exec, &store, &config, &spec, &Budget::unlimited())
                    .expect_err("serial failed, parallel must too");
                assert_eq!(err.to_string(), serial_err.to_string(), "workers={workers}");
            }
            return;
        }
    };
    let serial_bytes = format!("{serial:?}");
    for workers in WIDTHS {
        let exec = Executor::new(&ExecConfig { workers });
        let parallel = rank_parallel(&exec, &store, &config, &spec, &Budget::unlimited()).unwrap();
        assert_eq!(
            format!("{parallel:?}"),
            serial_bytes,
            "workers={workers}, n_attrs={n_attrs}, n_records={n_records}, seed={seed}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_rank_is_byte_identical_to_serial(
        n_attrs in 3..14usize,
        n_records in 400..2_500usize,
        seed in 0..u64::MAX,
        attr in 0..14usize,
    ) {
        assert_widths_agree(n_attrs, n_records, seed, attr);
    }
}

#[test]
fn paper_scenario_is_byte_identical_across_widths() {
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
    let store = Arc::new(CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap());
    let serial = Comparator::new(&store).compare(&spec).unwrap();
    let serial_bytes = format!("{serial:?}");
    for workers in WIDTHS {
        let exec = Executor::new(&ExecConfig { workers });
        let parallel = rank_parallel(
            &exec,
            &store,
            &CompareConfig::default(),
            &spec,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(format!("{parallel:?}"), serial_bytes, "workers={workers}");
    }
}
