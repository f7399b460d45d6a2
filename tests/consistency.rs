//! Cross-crate consistency: the CAR miner, the rule cubes, and the
//! comparator must all agree on counts and confidences, because they are
//! different views of the same rule space.

use opportunity_map::car::{mine, MinerConfig};
use opportunity_map::cube::olap::slice;
use opportunity_map::cube::{build_cube, CubeStore, StoreBuildOptions};
use opportunity_map::synth::{generate_call_log, generate_scaleup, CallLogConfig, ScaleUpConfig};

#[test]
fn miner_and_cubes_agree_on_every_rule() {
    let ds = generate_scaleup(&ScaleUpConfig {
        n_attrs: 4,
        n_records: 5_000,
        seed: 17,
        ..ScaleUpConfig::default()
    });
    let rules = mine(
        &ds,
        &MinerConfig {
            min_support: 0.0,
            min_confidence: 0.0,
            max_conditions: 2,
            attrs: None,
        },
    )
    .unwrap();
    assert!(!rules.is_empty());
    for r in &rules {
        match r.conditions.len() {
            1 => {
                let cube = build_cube(&ds, &[r.conditions[0].attr]).unwrap();
                assert_eq!(
                    cube.count(&[r.conditions[0].value], r.class).unwrap(),
                    r.support_count
                );
                assert_eq!(
                    cube.cell_total(&[r.conditions[0].value]).unwrap(),
                    r.cond_count
                );
            }
            2 => {
                let cube =
                    build_cube(&ds, &[r.conditions[0].attr, r.conditions[1].attr]).unwrap();
                let coords = [r.conditions[0].value, r.conditions[1].value];
                assert_eq!(cube.count(&coords, r.class).unwrap(), r.support_count);
                assert_eq!(cube.cell_total(&coords).unwrap(), r.cond_count);
            }
            n => panic!("unexpected rule length {n}"),
        }
    }
}

#[test]
fn store_cubes_agree_with_sub_population_counting() {
    // Slicing the pair cube at a phone model must reproduce exactly the
    // counts of the materialized sub-population dataset.
    let ds = generate_call_log(&CallLogConfig {
        n_records: 20_000,
        n_extra_attrs: 1,
        ..CallLogConfig::default()
    });
    let s = ds.schema();
    let phone = s.attr_index("PhoneModel").unwrap();
    let time = s.attr_index("TimeOfCall").unwrap();
    let store = CubeStore::build(
        &ds,
        &StoreBuildOptions {
            attrs: Some(vec![phone, time]),
            n_threads: 1,
            ..Default::default()
        },
    )
    .unwrap();

    let pair = store.pair(phone, time).unwrap();
    let phone_dim = pair
        .dims()
        .iter()
        .position(|d| d.attr_index == phone)
        .unwrap();

    for model in 0..s.attribute(phone).cardinality() as u32 {
        let sliced = slice(&pair, phone_dim, model).unwrap();
        let sub = ds.sub_population(phone, model).unwrap();
        assert_eq!(sliced.total(), sub.n_rows() as u64);
        // Per-time-of-day class counts must match.
        let sub_time = sub.column(time).as_categorical().unwrap();
        let sub_class = sub.class_values();
        for t in 0..s.attribute(time).cardinality() as u32 {
            for c in 0..s.n_classes() as u32 {
                let manual = (0..sub.n_rows())
                    .filter(|&r| sub_time[r] == t && sub_class[r] == c)
                    .count() as u64;
                assert_eq!(sliced.count(&[t], c).unwrap(), manual);
            }
        }
    }
}

#[test]
fn confidence_equation_one_holds_everywhere() {
    // Eq. (1): conf = sup(X, c) / Σ_j sup(X, c_j), verified over a full
    // pair cube.
    let ds = generate_scaleup(&ScaleUpConfig {
        n_attrs: 3,
        n_records: 3_000,
        seed: 23,
        ..ScaleUpConfig::default()
    });
    let cube = build_cube(&ds, &[0, 2]).unwrap();
    for (coords, class, count) in cube.iter_cells() {
        let denom = cube.cell_total(&coords).unwrap();
        match cube.confidence(&coords, class).unwrap() {
            Some(cf) => {
                assert!(denom > 0);
                assert!((cf - count as f64 / denom as f64).abs() < 1e-12);
            }
            None => assert_eq!(denom, 0),
        }
    }
}
