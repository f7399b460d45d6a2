//! Small descriptive-statistics helpers shared across the workspace.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by `n`); `0.0` for fewer than one element.
pub fn population_variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Sample variance (divides by `n - 1`); `0.0` for fewer than two elements.
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    population_variance(xs).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn mean_basic() {
        close(mean(&[1.0, 2.0, 3.0]), 2.0, 1e-12);
        close(mean(&[]), 0.0, 1e-12);
    }

    #[test]
    fn variance_basic() {
        close(
            population_variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]),
            4.0,
            1e-12,
        );
        close(sample_variance(&[2.0, 4.0]), 2.0, 1e-12);
        close(sample_variance(&[5.0]), 0.0, 1e-12);
    }

    #[test]
    fn std_dev_basic() {
        close(
            std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]),
            2.0,
            1e-12,
        );
    }

    #[test]
    fn constant_slice_has_zero_variance() {
        close(population_variance(&[3.0; 10]), 0.0, 1e-12);
        close(sample_variance(&[3.0; 10]), 0.0, 1e-12);
    }
}
