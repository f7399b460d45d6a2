//! Two-proportion z-test.
//!
//! Used by the exception miner (`om-gi::exception`) to decide whether a
//! cell's confidence differs significantly from its attribute-level base
//! rate, and available as a significance filter for comparison results.

use crate::normal::normal_cdf;

/// Result of a pooled two-proportion z-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoProportionTest {
    /// The z statistic; positive when `p1 > p2`.
    pub z: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

/// Pooled two-proportion z-test of `H0: p1 == p2` given `x1` successes out
/// of `n1` trials and `x2` out of `n2`.
///
/// If either sample is empty, or the pooled proportion is degenerate (0 or
/// 1, so no variance), the test reports `z = 0`, `p = 1` (no evidence).
pub fn two_proportion_z(x1: u64, n1: u64, x2: u64, n2: u64) -> TwoProportionTest {
    assert!(x1 <= n1, "x1 ({x1}) must be <= n1 ({n1})");
    assert!(x2 <= n2, "x2 ({x2}) must be <= n2 ({n2})");
    if n1 == 0 || n2 == 0 {
        return TwoProportionTest {
            z: 0.0,
            p_value: 1.0,
        };
    }
    let p1 = x1 as f64 / n1 as f64;
    let p2 = x2 as f64 / n2 as f64;
    let pooled = (x1 + x2) as f64 / (n1 + n2) as f64;
    let var = pooled * (1.0 - pooled) * (1.0 / n1 as f64 + 1.0 / n2 as f64);
    if var <= 0.0 {
        return TwoProportionTest {
            z: 0.0,
            p_value: 1.0,
        };
    }
    let z = (p1 - p2) / var.sqrt();
    let p_value = 2.0 * normal_cdf(-z.abs());
    TwoProportionTest { z, p_value }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn equal_proportions_no_evidence() {
        let t = two_proportion_z(50, 100, 500, 1000);
        close(t.z, 0.0, 1e-12);
        close(t.p_value, 1.0, 1e-9);
    }

    #[test]
    fn clearly_different_proportions() {
        let t = two_proportion_z(900, 1000, 100, 1000);
        assert!(t.z > 30.0);
        assert!(t.p_value < 1e-10);
    }

    #[test]
    fn sign_of_z_follows_direction() {
        let t = two_proportion_z(10, 100, 40, 100);
        assert!(t.z < 0.0);
        let t = two_proportion_z(40, 100, 10, 100);
        assert!(t.z > 0.0);
    }

    #[test]
    fn empty_samples_are_no_evidence() {
        let t = two_proportion_z(0, 0, 5, 10);
        close(t.p_value, 1.0, 1e-12);
    }

    #[test]
    fn degenerate_pooled_proportion() {
        // Everything succeeded: pooled p = 1, no variance.
        let t = two_proportion_z(10, 10, 20, 20);
        close(t.p_value, 1.0, 1e-12);
        let t = two_proportion_z(0, 10, 0, 20);
        close(t.p_value, 1.0, 1e-12);
    }

    #[test]
    fn moderate_difference_p_value() {
        // p1=0.5 vs p2=0.4 with n=200 each: z ≈ 2.01, p ≈ 0.044.
        let t = two_proportion_z(100, 200, 80, 200);
        assert!(t.p_value > 0.01 && t.p_value < 0.1, "p={}", t.p_value);
    }

    #[test]
    #[should_panic(expected = "must be <= n1")]
    fn rejects_impossible_counts() {
        two_proportion_z(11, 10, 0, 10);
    }
}
