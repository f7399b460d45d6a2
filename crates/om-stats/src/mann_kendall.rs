//! The Mann–Kendall nonparametric trend test.
//!
//! The trend miner's default linear fit assumes roughly linear confidence
//! movement; Mann–Kendall only asks whether the series is *monotone*,
//! making it robust to curvature and outliers. `S = Σ_{i<j} sign(y_j −
//! y_i)`; under no trend `S` is asymptotically normal with the classical
//! tie-corrected variance.

use crate::normal::normal_cdf;

/// Result of a Mann–Kendall test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannKendallTest {
    /// The S statistic (positive = upward tendency).
    pub s: i64,
    /// Normalized test statistic (0 when |S| <= 1 or n < 3).
    pub z: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

/// Run the test on a series in time order. Fewer than 3 points, or a
/// constant series, yields no evidence (`z = 0`, `p = 1`).
pub fn mann_kendall(ys: &[f64]) -> MannKendallTest {
    let n = ys.len();
    if n < 3 {
        return MannKendallTest {
            s: 0,
            z: 0.0,
            p_value: 1.0,
        };
    }
    let mut s: i64 = 0;
    for i in 0..n - 1 {
        for j in (i + 1)..n {
            s += match ys[j].partial_cmp(&ys[i]) {
                Some(std::cmp::Ordering::Greater) => 1,
                Some(std::cmp::Ordering::Less) => -1,
                _ => 0,
            };
        }
    }
    // Tie correction: group sizes of equal values.
    let mut sorted: Vec<f64> = ys.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut tie_term = 0f64;
    let mut run = 1usize;
    for i in 1..=sorted.len() {
        if i < sorted.len() && sorted[i] == sorted[i - 1] {
            run += 1;
        } else {
            if run > 1 {
                let t = run as f64;
                tie_term += t * (t - 1.0) * (2.0 * t + 5.0);
            }
            run = 1;
        }
    }
    let n_f = n as f64;
    let var = (n_f * (n_f - 1.0) * (2.0 * n_f + 5.0) - tie_term) / 18.0;
    if var <= 0.0 {
        return MannKendallTest {
            s,
            z: 0.0,
            p_value: 1.0,
        };
    }
    // Continuity correction.
    let z = if s > 0 {
        (s as f64 - 1.0) / var.sqrt()
    } else if s < 0 {
        (s as f64 + 1.0) / var.sqrt()
    } else {
        0.0
    };
    let p_value = 2.0 * normal_cdf(-z.abs());
    MannKendallTest { s, z, p_value }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strictly_increasing_is_significant() {
        let ys: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let t = mann_kendall(&ys);
        assert_eq!(t.s, (12 * 11 / 2) as i64);
        assert!(t.z > 3.0);
        assert!(t.p_value < 0.01);
    }

    #[test]
    fn strictly_decreasing_mirrors() {
        let up: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let down: Vec<f64> = up.iter().rev().copied().collect();
        let tu = mann_kendall(&up);
        let td = mann_kendall(&down);
        assert_eq!(tu.s, -td.s);
        assert!((tu.p_value - td.p_value).abs() < 1e-12);
        assert!(td.z < 0.0);
    }

    #[test]
    fn constant_series_no_evidence() {
        let t = mann_kendall(&[5.0; 10]);
        assert_eq!(t.s, 0);
        assert_eq!(t.p_value, 1.0);
    }

    #[test]
    fn alternating_series_not_significant() {
        let ys = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        let t = mann_kendall(&ys);
        assert!(t.p_value > 0.1, "p = {}", t.p_value);
    }

    #[test]
    fn short_series_vacuous() {
        assert_eq!(mann_kendall(&[]).p_value, 1.0);
        assert_eq!(mann_kendall(&[1.0, 2.0]).p_value, 1.0);
    }

    #[test]
    fn monotone_but_nonlinear_detected() {
        // Exponential growth: a linear fit has mediocre r²; MK is exact.
        let ys: Vec<f64> = (0..10).map(|i| (i as f64 / 2.0).exp()).collect();
        let t = mann_kendall(&ys);
        assert!(t.p_value < 0.01);
    }

    #[test]
    fn ties_handled() {
        let ys = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0];
        let t = mann_kendall(&ys);
        assert!(t.s > 0);
        assert!(t.p_value < 0.05, "p = {}", t.p_value);
    }
}
