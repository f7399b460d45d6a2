//! Sampling utilities.
//!
//! Section I of the paper: the classes are "highly skewed … Unbalanced
//! sampling is used before mining, which has been shown to work quite
//! well." [`unbalanced_sample`] implements that: the majority class is
//! down-sampled so that no class outnumbers the rarest non-empty class by
//! more than a configurable ratio. [`duplicate`] implements the
//! scale-up-by-duplication used for the Fig. 11 experiment ("To increase
//! the number of data records, we simply duplicate the data set").

use rand::seq::SliceRandom;
use rand::Rng;

use crate::dataset::Dataset;
use crate::error::{DataError, Result};

/// Down-sample majority classes so that no class has more than
/// `max_ratio` times the records of the smallest non-empty class.
///
/// Rows of classes already within the ratio are kept untouched; rows of
/// oversized classes are sampled uniformly without replacement. Original
/// row order is preserved among kept rows.
///
/// # Errors
/// Fails if the dataset is empty or `max_ratio == 0`.
pub fn unbalanced_sample<R: Rng>(ds: &Dataset, max_ratio: u64, rng: &mut R) -> Result<Dataset> {
    if ds.is_empty() {
        return Err(DataError::Invalid(
            "cannot rebalance an empty dataset".into(),
        ));
    }
    if max_ratio == 0 {
        return Err(DataError::Invalid("max_ratio must be >= 1".into()));
    }
    let counts = ds.class_counts();
    let min_nonzero = counts
        .iter()
        .copied()
        .filter(|&c| c > 0)
        .min()
        .expect("non-empty dataset has a non-empty class");
    let cap = min_nonzero.saturating_mul(max_ratio);

    // Bucket row indices by class, then down-sample oversized buckets.
    let n_classes = counts.len();
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
    for (r, &c) in ds.class_values().iter().enumerate() {
        buckets[c as usize].push(r);
    }
    let mut keep: Vec<usize> = Vec::new();
    for bucket in &mut buckets {
        if bucket.len() as u64 > cap {
            bucket.shuffle(rng);
            bucket.truncate(cap as usize);
        }
        keep.extend_from_slice(bucket);
    }
    keep.sort_unstable();
    ds.take_rows(&keep)
}

/// Duplicate the dataset `factor` times (Fig. 11's scale-up method).
///
/// `factor = 1` returns a clone (which shares `ds`'s columns).
///
/// # Errors
/// Fails if `factor == 0`.
pub fn duplicate(ds: &Dataset, factor: usize) -> Result<Dataset> {
    if factor == 0 {
        return Err(DataError::Invalid("duplication factor must be >= 1".into()));
    }
    let mut out = ds.clone();
    for _ in 1..factor {
        out.append(ds)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Cell, DatasetBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn skewed(n_major: usize, n_minor: usize) -> Dataset {
        let mut b = DatasetBuilder::new().categorical("A").class("C");
        for i in 0..n_major {
            b.push_row(&[
                Cell::Str(if i % 2 == 0 { "x" } else { "y" }),
                Cell::Str("ok"),
            ])
            .unwrap();
        }
        for _ in 0..n_minor {
            b.push_row(&[Cell::Str("x"), Cell::Str("drop")]).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn unbalanced_caps_majority() {
        let ds = skewed(1000, 10);
        let mut rng = StdRng::seed_from_u64(7);
        let out = unbalanced_sample(&ds, 5, &mut rng).unwrap();
        let counts = out.class_counts();
        // Minority kept fully, majority capped at 5x minority.
        assert_eq!(counts[1], 10);
        assert_eq!(counts[0], 50);
    }

    #[test]
    fn unbalanced_noop_when_within_ratio() {
        let ds = skewed(20, 10);
        let mut rng = StdRng::seed_from_u64(7);
        let out = unbalanced_sample(&ds, 5, &mut rng).unwrap();
        assert_eq!(out.n_rows(), 30);
    }

    #[test]
    fn unbalanced_rejects_bad_args() {
        let ds = skewed(10, 5);
        let mut rng = StdRng::seed_from_u64(7);
        assert!(unbalanced_sample(&ds, 0, &mut rng).is_err());
        let empty = skewed(0, 0);
        assert!(unbalanced_sample(&empty, 2, &mut rng).is_err());
    }

    #[test]
    fn duplicate_scales_counts_linearly() {
        let ds = skewed(10, 5);
        let out = duplicate(&ds, 4).unwrap();
        assert_eq!(out.n_rows(), 60);
        assert_eq!(out.class_counts(), vec![40, 20]);
        assert!(duplicate(&ds, 0).is_err());
        assert_eq!(duplicate(&ds, 1).unwrap(), ds);
    }
}
