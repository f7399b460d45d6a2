//! Property-based tests of the engine façade: invariants that must hold
//! for any dataset the engine accepts.

use om_data::{Cell, Dataset, DatasetBuilder};
use om_engine::{EngineConfig, OpportunityMap};
use proptest::prelude::*;

/// Random small mixed dataset with at least two classes present.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    proptest::collection::vec((0u8..3, -50.0f64..50.0, 0u8..2), 10..150).prop_map(|rows| {
        let mut b = DatasetBuilder::new()
            .categorical("A")
            .continuous("X")
            .class("C");
        let al = ["a0", "a1", "a2"];
        let cl = ["c0", "c1"];
        for (i, (a, x, c)) in rows.iter().enumerate() {
            // Force both classes to appear at least once.
            let class = if i == 0 {
                0
            } else if i == 1 {
                1
            } else {
                *c as usize
            };
            b.push_row(&[
                Cell::Str(al[*a as usize]),
                Cell::Num(*x),
                Cell::Str(cl[class]),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engine_builds_and_is_fully_categorical(ds in arb_dataset()) {
        let om = OpportunityMap::build(ds.clone(), EngineConfig::default()).unwrap();
        prop_assert!(om.dataset().all_categorical());
        prop_assert_eq!(om.dataset().n_rows(), ds.n_rows());
        // Cube totals match record counts.
        for &a in om.store().attrs() {
            prop_assert_eq!(om.store().one_dim(a).unwrap().total(), ds.n_rows() as u64);
        }
    }

    #[test]
    fn gi_is_total_over_attributes(ds in arb_dataset()) {
        let om = OpportunityMap::build(ds, EngineConfig::default()).unwrap();
        let gi = om.run_general_impressions(om.exec_ctx(None)).unwrap();
        let n_attrs = om.store().attrs().len();
        prop_assert_eq!(gi.trends.len(), n_attrs * om.dataset().schema().n_classes());
        prop_assert_eq!(gi.influence.len(), n_attrs);
        for i in &gi.influence {
            prop_assert!(i.chi2 >= 0.0);
            prop_assert!((0.0..=1.0).contains(&i.p_value));
        }
    }

    #[test]
    fn views_never_panic(ds in arb_dataset()) {
        let om = OpportunityMap::build(ds, EngineConfig::default()).unwrap();
        let overall = om.overall_view(&Default::default());
        prop_assert!(!overall.is_empty());
        let detailed = om.detailed_view("A", &Default::default()).unwrap();
        prop_assert!(detailed.contains("Detailed view"));
    }
}

#[test]
fn collapse_option_reduces_cardinality() {
    // One attribute with a long rare tail.
    let mut b = DatasetBuilder::new().categorical("A").class("C");
    for i in 0..400 {
        let a = if i < 350 {
            "common"
        } else {
            // 50 singleton-ish rare values
            match i % 10 {
                0 => "r0",
                1 => "r1",
                2 => "r2",
                3 => "r3",
                4 => "r4",
                5 => "r5",
                6 => "r6",
                7 => "r7",
                8 => "r8",
                _ => "r9",
            }
        };
        b.push_row(&[Cell::Str(a), Cell::Str(if i % 2 == 0 { "y" } else { "n" })])
            .unwrap();
    }
    let ds = b.finish().unwrap();

    let plain = OpportunityMap::build(ds.clone(), EngineConfig::default()).unwrap();
    let collapsed = OpportunityMap::build(
        ds,
        EngineConfig {
            collapse_min_count: Some(20),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let card = |om: &OpportunityMap| om.dataset().schema().attribute(0).cardinality();
    assert_eq!(card(&plain), 11);
    assert_eq!(card(&collapsed), 2, "common + other");
    assert_eq!(
        collapsed
            .dataset()
            .value_counts(0)
            .unwrap()
            .iter()
            .sum::<u64>(),
        400
    );
}
