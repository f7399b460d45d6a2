//! Simple linear regression, used by the trend miner (`om-gi::trend`) to
//! detect increasing / decreasing / stable confidence trends across the
//! ordered values of an attribute (the colored arrows of Fig. 5).

/// Ordinary least squares fit `y = intercept + slope * x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    pub slope: f64,
    pub intercept: f64,
    /// Pearson correlation coefficient `r` in `[-1, 1]`; `0` when either
    /// variable is constant.
    pub r: f64,
    /// Number of points fitted.
    pub n: usize,
}

impl LinearFit {
    /// Coefficient of determination `r²`.
    pub fn r_squared(&self) -> f64 {
        self.r * self.r
    }

    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Least-squares regression of `y` on `x`.
///
/// With fewer than two points, or a constant `x`, the fit is flat
/// (`slope = 0`, `intercept = mean(y)`, `r = 0`).
///
/// # Panics
/// Panics if `xs` and `ys` have different lengths.
pub fn linear_regression(xs: &[f64], ys: &[f64]) -> LinearFit {
    assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
    let n = xs.len();
    if n < 2 {
        return LinearFit {
            slope: 0.0,
            intercept: ys.first().copied().unwrap_or(0.0),
            r: 0.0,
            n,
        };
    }
    let n_f = n as f64;
    let mean_x = xs.iter().sum::<f64>() / n_f;
    let mean_y = ys.iter().sum::<f64>() / n_f;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    if sxx == 0.0 {
        return LinearFit {
            slope: 0.0,
            intercept: mean_y,
            r: 0.0,
            n,
        };
    }
    let slope = sxy / sxx;
    let r = if syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    };
    LinearFit {
        slope,
        intercept: mean_y - slope * mean_x,
        r,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 2.0).collect();
        let fit = linear_regression(&xs, &ys);
        close(fit.slope, 3.0, 1e-12);
        close(fit.intercept, -2.0, 1e-12);
        close(fit.r, 1.0, 1e-12);
        close(fit.r_squared(), 1.0, 1e-12);
    }

    #[test]
    fn perfect_negative_correlation() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [9.0, 7.0, 5.0, 3.0];
        let fit = linear_regression(&xs, &ys);
        close(fit.slope, -2.0, 1e-12);
        close(fit.r, -1.0, 1e-12);
    }

    #[test]
    fn constant_y_is_flat() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [4.0, 4.0, 4.0];
        let fit = linear_regression(&xs, &ys);
        close(fit.slope, 0.0, 1e-12);
        close(fit.intercept, 4.0, 1e-12);
        close(fit.r, 0.0, 1e-12);
    }

    #[test]
    fn constant_x_is_flat() {
        let xs = [1.0, 1.0, 1.0];
        let ys = [1.0, 2.0, 3.0];
        let fit = linear_regression(&xs, &ys);
        close(fit.slope, 0.0, 1e-12);
        close(fit.intercept, 2.0, 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        let fit = linear_regression(&[], &[]);
        assert_eq!(fit.n, 0);
        let fit = linear_regression(&[1.0], &[7.0]);
        assert_eq!(fit.n, 1);
        close(fit.intercept, 7.0, 1e-12);
    }

    #[test]
    fn predict_interpolates() {
        let fit = linear_regression(&[0.0, 2.0], &[0.0, 4.0]);
        close(fit.predict(1.0), 2.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_rejected() {
        linear_regression(&[1.0], &[1.0, 2.0]);
    }
}
