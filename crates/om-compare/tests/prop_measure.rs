//! Property-based tests for the interestingness measure: the boundary
//! claims of Section IV-A must hold over random inputs, not just the
//! paper's examples.

use om_compare::{score_attribute, IntervalMethod, SubPopCounts};
use proptest::prelude::*;

/// Random aligned sub-population counts with a usable baseline.
fn arb_subpops() -> impl Strategy<Value = (SubPopCounts, SubPopCounts)> {
    proptest::collection::vec(((1u64..2000, 0u64..2000), (1u64..2000, 0u64..2000)), 2..8).prop_map(
        |cells| {
            let mut n1 = Vec::new();
            let mut x1 = Vec::new();
            let mut n2 = Vec::new();
            let mut x2 = Vec::new();
            for ((a_n, a_x), (b_n, b_x)) in cells {
                n1.push(a_n);
                x1.push(a_x % (a_n + 1));
                n2.push(b_n);
                x2.push(b_x % (b_n + 1));
            }
            (SubPopCounts::new(n1, x1), SubPopCounts::new(n2, x2))
        },
    )
}

fn overall_cf(d: &SubPopCounts) -> f64 {
    let n: u64 = d.n.iter().sum();
    let x: u64 = d.x.iter().sum();
    if n == 0 {
        0.0
    } else {
        x as f64 / n as f64
    }
}

fn labels(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("v{i}")).collect()
}

proptest! {
    #[test]
    fn measure_is_nonnegative_and_normalized_bounded((d1, d2) in arb_subpops()) {
        let cf1 = overall_cf(&d1).max(1e-6);
        let cf2 = overall_cf(&d2).max(cf1);
        for method in [IntervalMethod::None, IntervalMethod::Wald(0.95), IntervalMethod::Wilson(0.95)] {
            let s = score_attribute(0, "A", &labels(d1.n_values()), &d1, &d2, cf1, cf2, method);
            prop_assert!(s.score >= 0.0);
            prop_assert!((0.0..=1.0).contains(&s.normalized), "normalized {}", s.normalized);
            prop_assert!((0.0..=1.0).contains(&s.property.ratio()));
            // W_k consistency with the score.
            let sum: f64 = s.contributions.iter().map(|c| c.w).sum();
            prop_assert!((sum - s.score).abs() < 1e-9);
        }
    }

    #[test]
    fn proportional_situations_score_zero(
        base in proptest::collection::vec((100u64..5000, 1u64..50), 2..6),
        mult in 2u64..5
    ) {
        // D2's confidence per value is exactly `mult` times D1's, built so
        // the overall ratio is also exactly `mult` — Fig. 4(A) generalized.
        let mut n1 = Vec::new();
        let mut x1 = Vec::new();
        let mut n2 = Vec::new();
        let mut x2 = Vec::new();
        for (n, x_raw) in base {
            // Keep the multiplied confidence below 1.
            let x = x_raw.min(n / (mult * 2));
            n1.push(n);
            x1.push(x);
            n2.push(n);
            x2.push(x * mult);
        }
        // Equal N per value on both sides: overall cfs scale exactly.
        let cf1 = overall_cf(&SubPopCounts::new(n1.clone(), x1.clone()));
        if cf1 == 0.0 { return Ok(()); }
        let d1 = SubPopCounts::new(n1, x1);
        let d2 = SubPopCounts::new(n2, x2);
        let cf2 = overall_cf(&d2);
        let s = score_attribute(0, "A", &labels(d1.n_values()), &d1, &d2, cf1, cf2, IntervalMethod::None);
        prop_assert!(s.score.abs() < 1e-6, "proportional situation scored {}", s.score);
    }

    #[test]
    fn concentrated_maximum_dominates((d1, d2) in arb_subpops()) {
        // Any random configuration scores at most the boundary maximum
        // cf2 * |D2| (i.e. the class-a count of D2): normalized <= 1 and
        // the concentrated construction achieves ~1.
        let cf1 = overall_cf(&d1).max(1e-6);
        let cf2 = overall_cf(&d2).max(cf1);
        let s = score_attribute(0, "A", &labels(d1.n_values()), &d1, &d2, cf1, cf2, IntervalMethod::None);
        let x2_total: u64 = d2.x.iter().sum();
        prop_assert!(s.score <= x2_total as f64 + 1e-9,
            "score {} exceeds the theoretical maximum {}", s.score, x2_total);
    }

    #[test]
    fn ci_adjustment_never_increases_score((d1, d2) in arb_subpops()) {
        let cf1 = overall_cf(&d1).max(1e-6);
        let cf2 = overall_cf(&d2).max(cf1);
        let lbl = labels(d1.n_values());
        let raw = score_attribute(0, "A", &lbl, &d1, &d2, cf1, cf2, IntervalMethod::None);
        let adj = score_attribute(0, "A", &lbl, &d1, &d2, cf1, cf2, IntervalMethod::Wald(0.95));
        prop_assert!(adj.score <= raw.score + 1e-9,
            "CI-adjusted {} > raw {}", adj.score, raw.score);
        // Stricter levels are more pessimistic still.
        let adj99 = score_attribute(0, "A", &lbl, &d1, &d2, cf1, cf2, IntervalMethod::Wald(0.99));
        prop_assert!(adj99.score <= adj.score + 1e-9);
    }
}
