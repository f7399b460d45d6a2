//! Confidence intervals for population proportions (Section IV-B).
//!
//! The paper adjusts every rule confidence `cf_jk` by the margin
//!
//! ```text
//! e_jk = z * sqrt( cf_jk * (1 - cf_jk) / N_jk )
//! ```
//!
//! which is the classical **Wald interval**. We also provide the **Wilson
//! score interval** as a more robust alternative for an ablation: Wald
//! collapses to a zero-width interval at `cf = 0` or `cf = 1`, which is
//! exactly the regime the paper's "property attributes" (Section IV-C) live
//! in; Wilson does not.

use crate::normal::z_for_confidence;

/// A two-sided confidence interval for a proportion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProportionInterval {
    /// Point estimate `p̂` of the proportion.
    pub estimate: f64,
    /// Lower bound, clamped to `[0, 1]`.
    pub lower: f64,
    /// Upper bound, clamped to `[0, 1]`.
    pub upper: f64,
}

impl ProportionInterval {
    /// Half-width of the interval.
    pub fn margin(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }

    /// Whether `value` lies inside the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }

    /// Whether two intervals overlap.
    pub fn overlaps(&self, other: &ProportionInterval) -> bool {
        self.lower <= other.upper && other.lower <= self.upper
    }
}

/// The Wald margin `e = z * sqrt(p(1-p)/n)` used by the paper's formula.
///
/// Returns `0.0` when `n == 0` (empty cell: no evidence, no margin — the
/// caller is expected to treat zero-count cells separately, as the paper's
/// property-attribute procedure does).
///
/// ```
/// // A 10% rate over 1000 records is known to within about ±1.9 points.
/// let e = om_stats::proportion_margin(0.10, 1000, 0.95);
/// assert!((e - 0.0186).abs() < 1e-3);
/// ```
///
/// # Panics
/// Panics if `p` is outside `[0, 1]` or `level` outside `(0, 1)`.
pub fn proportion_margin(p: f64, n: u64, level: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "proportion must be in [0,1], got {p}"
    );
    if n == 0 {
        return 0.0;
    }
    let z = z_for_confidence(level);
    z * (p * (1.0 - p) / n as f64).sqrt()
}

/// Wald interval for a proportion `p` observed over `n` trials.
pub fn wald_interval(p: f64, n: u64, level: f64) -> ProportionInterval {
    let e = proportion_margin(p, n, level);
    ProportionInterval {
        estimate: p,
        lower: (p - e).max(0.0),
        upper: (p + e).min(1.0),
    }
}

/// Wilson score interval for `successes` out of `n` trials.
///
/// Unlike Wald, this is well-behaved at `p = 0` and `p = 1` and for small
/// `n`; used in the `interval-method` ablation of `om-compare`.
pub fn wilson_interval(successes: u64, n: u64, level: f64) -> ProportionInterval {
    assert!(successes <= n, "successes ({successes}) must be <= n ({n})");
    if n == 0 {
        return ProportionInterval {
            estimate: 0.0,
            lower: 0.0,
            upper: 1.0,
        };
    }
    let z = z_for_confidence(level);
    let n_f = n as f64;
    let p = successes as f64 / n_f;
    let z2 = z * z;
    let denom = 1.0 + z2 / n_f;
    let center = (p + z2 / (2.0 * n_f)) / denom;
    let half = z * (p * (1.0 - p) / n_f + z2 / (4.0 * n_f * n_f)).sqrt() / denom;
    // Clamp to [0,1] and snap to the estimate: mathematically the interval
    // always contains p, but at p = 0 or 1 floating point can land an ulp
    // short.
    ProportionInterval {
        estimate: p,
        lower: (center - half).max(0.0).min(p),
        upper: (center + half).min(1.0).max(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn margin_matches_paper_formula() {
        // cf = 10%, N = 1000, level 0.95 -> e = 1.96 * sqrt(0.1*0.9/1000)
        let e = proportion_margin(0.10, 1000, 0.95);
        close(e, 1.96 * (0.1f64 * 0.9 / 1000.0).sqrt(), 1e-4);
    }

    #[test]
    fn margin_zero_for_empty_cell() {
        assert_eq!(proportion_margin(0.5, 0, 0.95), 0.0);
    }

    #[test]
    fn margin_shrinks_with_n() {
        let mut prev = f64::INFINITY;
        for n in [10u64, 100, 1000, 10000] {
            let e = proportion_margin(0.3, n, 0.95);
            assert!(e < prev);
            prev = e;
        }
    }

    #[test]
    fn margin_grows_with_level() {
        let e90 = proportion_margin(0.3, 100, 0.90);
        let e95 = proportion_margin(0.3, 100, 0.95);
        let e99 = proportion_margin(0.3, 100, 0.99);
        assert!(e90 < e95 && e95 < e99);
    }

    #[test]
    fn wald_clamps_to_unit_interval() {
        let iv = wald_interval(0.01, 10, 0.99);
        assert!(iv.lower >= 0.0);
        let iv = wald_interval(0.99, 10, 0.99);
        assert!(iv.upper <= 1.0);
    }

    #[test]
    fn wald_degenerate_at_extremes() {
        // The known pathology motivating the Wilson ablation.
        let iv = wald_interval(0.0, 100, 0.95);
        assert_eq!(iv.lower, 0.0);
        assert_eq!(iv.upper, 0.0);
    }

    #[test]
    fn wilson_not_degenerate_at_extremes() {
        let iv = wilson_interval(0, 100, 0.95);
        close(iv.lower, 0.0, 1e-12);
        assert!(iv.upper > 0.01, "Wilson upper bound must exceed 0 at p=0");
        let iv = wilson_interval(100, 100, 0.95);
        assert!(iv.lower < 0.99);
        close(iv.upper, 1.0, 1e-12);
    }

    #[test]
    fn wilson_contains_estimate() {
        for s in 0..=50u64 {
            let iv = wilson_interval(s, 50, 0.95);
            assert!(
                iv.contains(iv.estimate),
                "estimate outside interval for s={s}"
            );
        }
    }

    #[test]
    fn wilson_empty_n_is_vacuous() {
        let iv = wilson_interval(0, 0, 0.95);
        assert_eq!((iv.lower, iv.upper), (0.0, 1.0));
    }

    #[test]
    fn overlap_detection() {
        let a = wald_interval(0.10, 1000, 0.95);
        let b = wald_interval(0.12, 1000, 0.95);
        let c = wald_interval(0.50, 1000, 0.95);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn margin_rejects_bad_p() {
        proportion_margin(1.5, 10, 0.95);
    }
}
