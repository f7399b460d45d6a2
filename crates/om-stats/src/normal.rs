//! The standard normal distribution, built from scratch.
//!
//! Table I of the paper lists the z values used for the confidence-interval
//! adjustment of Section IV-B (0.90 → 1.645, 0.95 → 1.96, 0.99 → 2.576).
//! Rather than hard-coding the table, we implement the error function and
//! the inverse normal CDF so the table is reproduced analytically (the
//! tests below check it to the paper's three decimals).

use std::f64::consts::{PI, SQRT_2};

/// The error function `erf(x)`, accurate to near double precision.
///
/// Uses the identity `erf(x) = P(1/2, x²)` for `x >= 0`, where `P` is the
/// regularized lower incomplete gamma function implemented in
/// [`crate::gamma`] with a convergence tolerance of `3e-14`.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let p = crate::gamma::reg_gamma_p(0.5, x * x);
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// For `x >= 0` this uses `Q(1/2, x²)` directly, which stays accurate deep
/// into the tail where `1 - erf(x)` would underflow.
pub fn erfc(x: f64) -> f64 {
    if x == 0.0 {
        return 1.0;
    }
    if x > 0.0 {
        crate::gamma::reg_gamma_q(0.5, x * x)
    } else {
        2.0 - crate::gamma::reg_gamma_q(0.5, x * x)
    }
}

/// Probability density of the standard normal distribution at `x`.
pub fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * PI).sqrt()
}

/// Cumulative distribution of the standard normal at `x`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / SQRT_2)
}

/// Inverse of the standard normal CDF (the quantile / probit function).
///
/// Implemented with Acklam's rational approximation followed by one step of
/// Halley refinement, giving full double precision over `(0, 1)`.
///
/// # Panics
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "inverse_normal_cdf requires p in (0,1), got {p}"
    );

    // Coefficients of Acklam's approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the high-precision CDF.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// The two-sided z value for a statistical confidence `level` (e.g. 0.95).
///
/// This reproduces Table I of the paper: `z_for_confidence(0.95)` is
/// (up to rounding) the paper's 1.96.
///
/// ```
/// let z = om_stats::z_for_confidence(0.95);
/// assert!((z - 1.96).abs() < 1e-3);
/// ```
///
/// # Panics
/// Panics if `level` is not strictly inside `(0, 1)`.
pub fn z_for_confidence(level: f64) -> f64 {
    assert!(
        level > 0.0 && level < 1.0,
        "confidence level must be in (0,1), got {level}"
    );
    inverse_normal_cdf(0.5 + level / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn erf_known_values() {
        close(erf(0.0), 0.0, 1e-12);
        close(erf(1.0), 0.842_700_792_949_715, 1e-6);
        close(erf(-1.0), -0.842_700_792_949_715, 1e-6);
        close(erf(2.0), 0.995_322_265_018_953, 1e-6);
        close(erf(3.5), 0.999_999_256_901_628, 1e-6);
    }

    #[test]
    fn erf_is_odd() {
        for i in 0..100 {
            let x = i as f64 / 10.0;
            close(erf(x), -erf(-x), 1e-12);
        }
    }

    #[test]
    fn cdf_known_values() {
        close(normal_cdf(0.0), 0.5, 1e-12);
        close(normal_cdf(1.96), 0.975_002_104_851_78, 1e-6);
        close(normal_cdf(-1.96), 0.024_997_895_148_22, 1e-6);
        close(normal_cdf(2.576), 0.995_002_467, 1e-6);
    }

    #[test]
    fn pdf_known_values() {
        close(normal_pdf(0.0), 0.398_942_280_401_432_7, 1e-12);
        close(normal_pdf(1.0), 0.241_970_724_519_143_37, 1e-12);
    }

    #[test]
    fn quantile_round_trips_cdf() {
        for i in 1..999 {
            let p = i as f64 / 1000.0;
            let x = inverse_normal_cdf(p);
            close(normal_cdf(x), p, 1e-9);
        }
    }

    #[test]
    fn quantile_extreme_tails() {
        let x = inverse_normal_cdf(1e-10);
        close(normal_cdf(x), 1e-10, 1e-13);
        let x = inverse_normal_cdf(1.0 - 1e-10);
        assert!(x > 6.0);
    }

    #[test]
    fn table_one_z_values() {
        // Table I of the paper.
        close(z_for_confidence(0.90), 1.645, 5e-4);
        close(z_for_confidence(0.95), 1.960, 5e-4);
        close(z_for_confidence(0.99), 2.576, 5e-4);
    }

    #[test]
    #[should_panic(expected = "confidence level must be in (0,1)")]
    fn z_rejects_unit_level() {
        z_for_confidence(1.0);
    }

    #[test]
    #[should_panic(expected = "requires p in (0,1)")]
    fn quantile_rejects_zero() {
        inverse_normal_cdf(0.0);
    }

    #[test]
    fn z_is_monotone_in_level() {
        let mut prev = 0.0;
        for i in 1..100 {
            let z = z_for_confidence(i as f64 / 100.0);
            assert!(z > prev);
            prev = z;
        }
    }
}
