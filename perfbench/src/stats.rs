//! Order statistics: the percentile rule, quartiles, spread.

/// Sort ascending; samples are finite by construction (durations, counts).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail percentiles a report may quote, ascending, in tenths of a
/// percent: whole numbers, so that "ten samples beyond" is exact
/// (`10_000 * (100.0 - 99.9) / 100.0` is 9.99999 in `f64`).
const TAILS_PER_MILLE: [usize; 5] = [750, 900, 950, 990, 999];

/// The highest tail percentile that still has at least ten samples
/// beyond it — a p99 of 200 samples is two points, not a tail.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .iter()
        .rfind(|&&p| n * (1000 - p) >= 10 * 1000)
        .map(|&p| p as f64 / 10.0)
}

/// `percentile(sorted, p)` when the sample supports `p`, else the highest
/// supported tail (the median when none is).
pub fn supported_tail(sorted: &[f64], p: f64) -> f64 {
    let cap = highest_supported_percentile(sorted.len()).unwrap_or(50.0);
    percentile(sorted, p.min(cap))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the driver computes.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range over the median: the spread the driver gates on.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) => {
            let med = median(values);
            if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            }
        }
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(30), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn unsupported_tail_falls_back() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples support p90, not p99.
        assert_eq!(supported_tail(&v, 99.0), 90.0);
        assert_eq!(supported_tail(&v, 75.0), 75.0);
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(supported_tail(&few, 95.0), 10.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            Some([15.0, 40.0, 120.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
    }
}
