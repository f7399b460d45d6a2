//! Equal-width binning.

use crate::cuts::CutPoints;

/// Cut points splitting `[min, max]` of the finite values into `k` bins of
/// equal width. Degenerate inputs (no finite values, constant column, or
/// `k <= 1`) yield no cuts (a single bin).
pub fn equal_width_cuts(values: &[f64], k: usize) -> CutPoints {
    if k <= 1 {
        return CutPoints::none();
    }
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (Some(min), Some(max)) = (
        finite.iter().copied().reduce(f64::min),
        finite.iter().copied().reduce(f64::max),
    ) else {
        return CutPoints::none();
    };
    if min == max {
        return CutPoints::none();
    }
    let width = (max - min) / k as f64;
    let cuts: Vec<f64> = (1..k).map(|i| min + width * i as f64).collect();
    CutPoints::new(cuts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_range_evenly() {
        let vals: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        let c = equal_width_cuts(&vals, 4);
        assert_eq!(c.cuts(), &[25.0, 50.0, 75.0]);
        assert_eq!(c.n_bins(), 4);
    }

    #[test]
    fn constant_column_single_bin() {
        let c = equal_width_cuts(&[3.0; 10], 5);
        assert_eq!(c.n_bins(), 1);
    }

    #[test]
    fn empty_and_nonfinite_inputs() {
        assert_eq!(equal_width_cuts(&[], 3).n_bins(), 1);
        assert_eq!(equal_width_cuts(&[f64::NAN, f64::INFINITY], 3).n_bins(), 1);
        // Finite values among garbage still work.
        let c = equal_width_cuts(&[f64::NAN, 0.0, 10.0], 2);
        assert_eq!(c.cuts(), &[5.0]);
    }

    #[test]
    fn k_of_one_is_single_bin() {
        assert_eq!(equal_width_cuts(&[0.0, 1.0], 1).n_bins(), 1);
        assert_eq!(equal_width_cuts(&[0.0, 1.0], 0).n_bins(), 1);
    }

    #[test]
    fn all_values_assigned_in_range_bins() {
        let vals: Vec<f64> = (0..1000).map(|i| (i as f64) * 0.37 - 120.0).collect();
        let c = equal_width_cuts(&vals, 7);
        for &v in &vals {
            assert!(c.bin_of(v) < c.n_bins());
        }
    }
}
