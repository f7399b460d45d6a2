//! The interestingness measure of Section IV-A.
//!
//! For a candidate attribute `A_i` with values `v_1 … v_m`, each value `k`
//! contributes
//!
//! ```text
//! F_k = rcf_2k − rcf_1k · (cf_2 / cf_1)        (Eq. 1 + Section IV-B)
//! W_k = F_k · N_2k   if F_k > 0, else 0        (Eq. 2)
//! M_i = Σ_k W_k                                 (Eq. 3)
//! ```
//!
//! `cf_1k (cf_2/cf_1)` is the *expected* confidence of `v_k` in the bad
//! sub-population if it were merely proportionally worse (the situation of
//! Fig. 2(A)/Fig. 4(A), which must score zero); `F_k` is the confidence
//! beyond that expectation, and `F_k · N_2k` converts it to an actual
//! record count. Empty baseline cells take `cf_1k = 0` (the paper:
//! "in such a case the attribute can be ranked very high because
//! cf_1k = 0" — which is why property detection exists, in
//! [`crate::property`]).

use crate::interval::IntervalMethod;
use crate::property::PropertyInfo;

/// Per-value class counts of one sub-population for one attribute:
/// `n[k] = N_jk` (records with value `k`), `x[k]` (those of class `c_a`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubPopCounts {
    pub n: Vec<u64>,
    pub x: Vec<u64>,
}

impl SubPopCounts {
    /// Validate internal consistency.
    ///
    /// # Panics
    /// Panics if lengths differ or any `x[k] > n[k]`.
    pub fn new(n: Vec<u64>, x: Vec<u64>) -> Self {
        assert_eq!(n.len(), x.len(), "n and x must have equal length");
        assert!(
            n.iter().zip(&x).all(|(&n, &x)| x <= n),
            "class counts cannot exceed totals"
        );
        Self { n, x }
    }

    /// Number of attribute values covered.
    pub fn n_values(&self) -> usize {
        self.n.len()
    }
}

/// The audit trail for one attribute value `v_k`.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueContribution {
    /// Value id within the attribute.
    pub value: u32,
    /// Value label.
    pub label: String,
    /// `N_1k`, `N_2k`: records with this value in each sub-population.
    pub n1: u64,
    pub n2: u64,
    /// Class-`c_a` counts.
    pub x1: u64,
    pub x2: u64,
    /// Raw confidences (`None` when the cell is empty).
    pub cf1: Option<f64>,
    pub cf2: Option<f64>,
    /// Revised confidences after the interval adjustment.
    pub rcf1: f64,
    pub rcf2: f64,
    /// `F_k` (may be negative; clamped only inside `W_k`).
    pub f: f64,
    /// `W_k = max(F_k, 0) · N_2k`.
    pub w: f64,
}

/// The score of one candidate attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrScore {
    /// Schema index of the attribute.
    pub attr: usize,
    pub attr_name: String,
    /// `M_i` (Eq. 3). Always `>= 0`.
    pub score: f64,
    /// `M_i / (cf_2 · |D_2|)`: the score divided by its theoretical
    /// maximum (Section IV-A's boundary case), in `[0, 1]`.
    pub normalized: f64,
    /// Per-value breakdown, in value order.
    pub contributions: Vec<ValueContribution>,
    /// Property-attribute statistics (Section IV-C).
    pub property: PropertyInfo,
}

impl AttrScore {
    /// Values sorted by contribution `W_k`, descending — "where the user
    /// should focus his/her attention".
    pub fn top_values(&self) -> Vec<&ValueContribution> {
        let mut v: Vec<&ValueContribution> = self.contributions.iter().collect();
        v.sort_by(|a, b| b.w.partial_cmp(&a.w).unwrap_or(std::cmp::Ordering::Equal));
        v
    }
}

/// Compute the measure for one attribute from the two sub-populations'
/// per-value counts.
///
/// `cf1`, `cf2` are the overall confidences of the two input rules
/// (`cf1 <= cf2` after the caller's normalization, `cf1 > 0`);
/// `class_total_2` is `cf_2 · |D_2|` — the number of class-`c_a` records
/// in the bad sub-population, used for normalization.
///
/// # Panics
/// Panics if the two sub-populations cover different value counts,
/// `labels` mismatches, or `cf1 <= 0`.
#[allow(clippy::too_many_arguments)] // the arguments mirror the formula's inputs
pub fn score_attribute(
    attr: usize,
    attr_name: &str,
    labels: &[String],
    d1: &SubPopCounts,
    d2: &SubPopCounts,
    cf1: f64,
    cf2: f64,
    method: IntervalMethod,
) -> AttrScore {
    assert_eq!(
        d1.n_values(),
        d2.n_values(),
        "sub-populations must cover the same value set"
    );
    assert_eq!(labels.len(), d1.n_values(), "labels must match values");
    assert!(cf1 > 0.0, "baseline confidence cf1 must be positive");

    let ratio = cf2 / cf1;
    let mut contributions = Vec::with_capacity(labels.len());
    let mut score = 0.0;
    for (k, label) in labels.iter().enumerate() {
        let (n1, x1) = (d1.n[k], d1.x[k]);
        let (n2, x2) = (d2.n[k], d2.x[k]);
        let cf1k = (n1 > 0).then(|| x1 as f64 / n1 as f64);
        let cf2k = (n2 > 0).then(|| x2 as f64 / n2 as f64);
        // Empty cells enter the formula as confidence 0 (paper, Sec. IV-C).
        let rcf1 = method.revise_up(x1, n1, cf1k.unwrap_or(0.0));
        let rcf2 = method.revise_down(x2, n2, cf2k.unwrap_or(0.0));
        let f = rcf2 - rcf1 * ratio;
        let w = if f > 0.0 { f * n2 as f64 } else { 0.0 };
        score += w;
        contributions.push(ValueContribution {
            value: k as u32,
            label: label.clone(),
            n1,
            n2,
            x1,
            x2,
            cf1: cf1k,
            cf2: cf2k,
            rcf1,
            rcf2,
            f,
            w,
        });
    }

    let class_total_2: u64 = d2.x.iter().sum();
    let normalized = if class_total_2 > 0 {
        (score / class_total_2 as f64).clamp(0.0, 1.0)
    } else {
        0.0
    };

    AttrScore {
        attr,
        attr_name: attr_name.to_owned(),
        score,
        normalized,
        property: PropertyInfo::from_counts(&d1.n, &d2.n),
        contributions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("v{i}")).collect()
    }

    /// Fig. 4(A): ph1 drops at 2% and ph2 at 4% *for every value* —
    /// completely expected, M must be exactly 0 (without CI adjustment).
    #[test]
    fn boundary_minimum_proportional_situation() {
        // Three time-of-day values, 10_000 records each per phone.
        let d1 = SubPopCounts::new(vec![10_000; 3], vec![200; 3]); // 2% each
        let d2 = SubPopCounts::new(vec![10_000; 3], vec![400; 3]); // 4% each
        let s = score_attribute(
            1,
            "TimeOfCall",
            &labels(3),
            &d1,
            &d2,
            0.02,
            0.04,
            IntervalMethod::None,
        );
        assert_eq!(s.score, 0.0, "proportional situation must score 0");
        assert_eq!(s.normalized, 0.0);
        for c in &s.contributions {
            assert!(c.f.abs() < 1e-12);
            assert_eq!(c.w, 0.0);
        }
    }

    /// Fig. 4(B): all of ph2's drops concentrate on one value at 100%
    /// confidence, where ph1 is at its lowest — the maximum situation.
    /// M must equal cf_2 · |D_2| = the number of dropped ph2 records,
    /// so the normalized score is 1.
    #[test]
    fn boundary_maximum_concentrated_situation() {
        // D2: 30_000 records, 1_200 drops (cf2 = 4%), all drops in the
        // evening where every call drops (N2_evening = 1_200, 100%).
        let d2 = SubPopCounts::new(vec![14_400, 14_400, 1_200], vec![0, 0, 1_200]);
        // D1: cf1 = 2% overall; evening is its *lowest* drop-rate value
        // (paper: "this attribute value also has the lowest confidence for
        // class c_a in D_1") — make it 0 for the exact extreme.
        let d1 = SubPopCounts::new(vec![10_000, 10_000, 10_000], vec![350, 250, 0]);
        let cf1 = 600.0 / 30_000.0;
        let cf2 = 1_200.0 / 30_000.0;
        let s = score_attribute(
            1,
            "TimeOfCall",
            &labels(3),
            &d1,
            &d2,
            cf1,
            cf2,
            IntervalMethod::None,
        );
        // The evening cell contributes (1.0 − 0·ratio) · 1_200 = 1_200 and
        // nothing else can contribute (other cells have cf2k = 0).
        assert!((s.score - 1_200.0).abs() < 1e-9, "score {}", s.score);
        assert!((s.normalized - 1.0).abs() < 1e-12);
    }

    /// The interesting situation of Fig. 2(B): same evening rates, morning
    /// much worse for ph2 — must score strictly above the proportional
    /// situation and isolate the morning value.
    #[test]
    fn interesting_situation_isolates_the_morning() {
        let d1 = SubPopCounts::new(vec![10_000; 3], vec![200, 200, 200]);
        // ph2: morning terrible (10%), afternoon/evening same as ph1 (2%).
        let d2 = SubPopCounts::new(vec![10_000; 3], vec![1_000, 200, 200]);
        let cf1 = 0.02;
        let cf2 = 1_400.0 / 30_000.0;
        let s = score_attribute(
            1,
            "TimeOfCall",
            &labels(3),
            &d1,
            &d2,
            cf1,
            cf2,
            IntervalMethod::None,
        );
        assert!(s.score > 0.0);
        let top = s.top_values();
        assert_eq!(top[0].label, "v0", "morning must dominate");
        assert!(top[0].w > 0.9 * s.score);
    }

    #[test]
    fn score_is_never_negative() {
        // Reversed situation: ph2 better everywhere than expected.
        let d1 = SubPopCounts::new(vec![1_000; 2], vec![100, 100]);
        let d2 = SubPopCounts::new(vec![1_000; 2], vec![110, 110]);
        // cf2/cf1 = 2 expected, but actual cf2k/cf1k ≈ 1.1 ⇒ all F_k < 0.
        let s = score_attribute(
            0,
            "A",
            &labels(2),
            &d1,
            &d2,
            0.10,
            0.20,
            IntervalMethod::None,
        );
        assert_eq!(s.score, 0.0);
        assert!(s.contributions.iter().all(|c| c.f < 0.0));
    }

    #[test]
    fn ci_adjustment_shrinks_scores() {
        let d1 = SubPopCounts::new(vec![500; 3], vec![10, 10, 10]);
        let d2 = SubPopCounts::new(vec![500; 3], vec![100, 10, 10]);
        let cf1 = 30.0 / 1_500.0;
        let cf2 = 120.0 / 1_500.0;
        let raw = score_attribute(0, "A", &labels(3), &d1, &d2, cf1, cf2, IntervalMethod::None);
        let adj = score_attribute(
            0,
            "A",
            &labels(3),
            &d1,
            &d2,
            cf1,
            cf2,
            IntervalMethod::paper_default(),
        );
        assert!(adj.score < raw.score, "CI adjustment must be pessimistic");
        assert!(adj.score > 0.0, "strong signal survives the adjustment");
    }

    #[test]
    fn empty_baseline_cell_ranks_high_pre_property_filter() {
        // v1 never occurs in D1 but carries D2's drops: paper notes these
        // rank very high (then get diverted by property detection).
        let d1 = SubPopCounts::new(vec![1_000, 0], vec![20, 0]);
        let d2 = SubPopCounts::new(vec![0, 1_000], vec![0, 40]);
        let s = score_attribute(
            0,
            "HwVersion",
            &labels(2),
            &d1,
            &d2,
            0.02,
            0.04,
            IntervalMethod::None,
        );
        assert!(s.score > 0.0);
        assert!(s.property.is_property(0.9), "fully disjoint usage");
    }

    #[test]
    fn zero_class_in_d2_scores_zero() {
        let d1 = SubPopCounts::new(vec![100; 2], vec![5, 5]);
        let d2 = SubPopCounts::new(vec![100; 2], vec![0, 0]);
        let s = score_attribute(
            0,
            "A",
            &labels(2),
            &d1,
            &d2,
            0.05,
            0.10,
            IntervalMethod::None,
        );
        assert_eq!(s.score, 0.0);
        assert_eq!(s.normalized, 0.0);
    }

    #[test]
    fn normalized_bounded_by_one() {
        // Even pathological inputs can't exceed the theoretical max.
        let d1 = SubPopCounts::new(vec![10, 10], vec![1, 0]);
        let d2 = SubPopCounts::new(vec![5, 5], vec![5, 5]);
        let s = score_attribute(
            0,
            "A",
            &labels(2),
            &d1,
            &d2,
            0.05,
            1.0,
            IntervalMethod::None,
        );
        assert!(s.normalized <= 1.0);
        assert!(s.score >= 0.0);
    }

    #[test]
    #[should_panic(expected = "cf1 must be positive")]
    fn rejects_zero_baseline_confidence() {
        let d = SubPopCounts::new(vec![10], vec![0]);
        score_attribute(0, "A", &labels(1), &d, &d, 0.0, 0.1, IntervalMethod::None);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn subpop_counts_validated() {
        SubPopCounts::new(vec![1, 2], vec![1]);
    }

    #[test]
    #[should_panic(expected = "cannot exceed totals")]
    fn subpop_counts_class_bounded() {
        SubPopCounts::new(vec![1], vec![2]);
    }
}
