//! Property tests for group comparison: merging sub-populations must be
//! exactly additive and consistent with the single-value comparator.

use om_compare::{
    compare_groups, Comparator, CompareConfig, ComparisonSpec, GroupSpec, IntervalMethod,
};
use om_cube::{CubeStore, StoreBuildOptions};
use om_data::{Cell, Dataset, DatasetBuilder};
use proptest::prelude::*;

/// Random dataset with a 4-value selector attribute, one candidate
/// attribute and 2 classes; every selector value is guaranteed ≥ 1 record
/// of each class so comparisons never hit the zero-baseline gate.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    proptest::collection::vec((0u8..4, 0u8..3, 0u8..2), 40..250).prop_map(|rows| {
        let mut b = DatasetBuilder::new()
            .categorical("Sel")
            .categorical("X")
            .class("C");
        let sl = ["s0", "s1", "s2", "s3"];
        let xl = ["x0", "x1", "x2"];
        let cl = ["c0", "c1"];
        // Guarantee coverage.
        for s in sl {
            for c in cl {
                b.push_row(&[Cell::Str(s), Cell::Str("x0"), Cell::Str(c)])
                    .unwrap();
            }
        }
        for (s, x, c) in rows {
            b.push_row(&[
                Cell::Str(sl[s as usize]),
                Cell::Str(xl[x as usize]),
                Cell::Str(cl[c as usize]),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    })
}

fn config() -> CompareConfig {
    CompareConfig {
        interval: IntervalMethod::None,
        min_sub_population: 1,
        ..CompareConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn singleton_groups_equal_single_comparison(ds in arb_dataset()) {
        let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        let single = Comparator::with_config(&store, config())
            .compare(&ComparisonSpec { attr: 0, value_1: 0, value_2: 1, class: 1 })
            .unwrap();
        let grouped = compare_groups(
            &store,
            &GroupSpec { attr: 0, group_1: vec![0], group_2: vec![1], class: 1 },
            &config(),
        )
        .unwrap();
        prop_assert_eq!(single.cf1, grouped.cf1);
        prop_assert_eq!(single.cf2, grouped.cf2);
        prop_assert_eq!(single.n1 + single.n2, grouped.n1 + grouped.n2);
        let a: Vec<(usize, f64)> = single.ranked.iter().map(|s| (s.attr, s.score)).collect();
        let b: Vec<(usize, f64)> = grouped.ranked.iter().map(|s| (s.attr, s.score)).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn group_base_counts_are_sums(ds in arb_dataset()) {
        let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        let result = compare_groups(
            &store,
            &GroupSpec { attr: 0, group_1: vec![0, 2], group_2: vec![1, 3], class: 1 },
            &config(),
        )
        .unwrap();
        // n1 + n2 covers exactly the records of the four selector values.
        let counts = ds.value_counts(0).unwrap();
        let expected: u64 = counts.iter().sum();
        prop_assert_eq!(result.n1 + result.n2, expected);
        prop_assert!(result.cf1 <= result.cf2);
    }

    #[test]
    fn group_scores_nonnegative_and_normalized(ds in arb_dataset()) {
        let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        let result = compare_groups(
            &store,
            &GroupSpec { attr: 0, group_1: vec![0, 1], group_2: vec![2, 3], class: 0 },
            &config(),
        )
        .unwrap();
        for s in result.ranked.iter().chain(&result.property_attrs) {
            prop_assert!(s.score >= 0.0);
            prop_assert!((0.0..=1.0).contains(&s.normalized));
        }
    }
}
