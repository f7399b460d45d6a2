//! Supervised entropy/MDL discretization (Fayyad & Irani, 1993).
//!
//! Recursively picks the boundary minimizing the class-weighted entropy
//! and accepts the split only if the information gain passes the MDL
//! criterion:
//!
//! ```text
//! gain > ( log2(N - 1) + log2(3^k - 2) - k·E + k1·E1 + k2·E2 ) / N
//! ```
//!
//! where `E`, `E1`, `E2` are the class entropies of the parent and the two
//! children and `k`, `k1`, `k2` their distinct-class counts.

use om_stats::entropy;

use crate::cuts::CutPoints;

/// Supervised MDL cuts for `values` with aligned class ids (`n_classes`
/// distinct classes).
///
/// Non-finite values are ignored. Pure or degenerate columns produce no
/// cuts. `max_depth` caps recursion (the number of bins is at most
/// `2^max_depth`).
///
/// # Panics
/// Panics if `values` and `classes` have different lengths or a class id
/// is out of range.
pub fn mdl_cuts(values: &[f64], classes: &[u32], n_classes: usize, max_depth: usize) -> CutPoints {
    assert_eq!(values.len(), classes.len(), "values and classes must align");
    assert!(
        classes.iter().all(|&c| (c as usize) < n_classes),
        "class id out of range"
    );
    let mut pairs: Vec<(f64, u32)> = values
        .iter()
        .copied()
        .zip(classes.iter().copied())
        .filter(|(v, _)| v.is_finite())
        .collect();
    if pairs.len() < 2 {
        return CutPoints::none();
    }
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values compare"));
    let mut cuts = Vec::new();
    split(&pairs, n_classes, max_depth, &mut cuts);
    CutPoints::new(cuts)
}

/// Class histogram of a slice of `(value, class)` pairs.
fn histogram(pairs: &[(f64, u32)], n_classes: usize) -> Vec<u64> {
    let mut h = vec![0u64; n_classes];
    for &(_, c) in pairs {
        h[c as usize] += 1;
    }
    h
}

fn distinct_classes(h: &[u64]) -> usize {
    h.iter().filter(|&&c| c > 0).count()
}

/// Recursive splitting on the sorted slice.
fn split(pairs: &[(f64, u32)], n_classes: usize, depth: usize, cuts: &mut Vec<f64>) {
    if depth == 0 || pairs.len() < 4 {
        return;
    }
    let parent_hist = histogram(pairs, n_classes);
    let parent_entropy = entropy(&parent_hist);
    if parent_entropy == 0.0 {
        return; // pure — nothing to gain
    }
    let n = pairs.len() as f64;

    // Scan boundaries between distinct adjacent values, maintaining
    // left/right histograms incrementally.
    let mut left = vec![0u64; n_classes];
    let mut right = parent_hist.clone();
    let mut best: Option<(f64, usize, f64)> = None; // (gain, idx, cut)
    for i in 0..pairs.len() - 1 {
        let c = pairs[i].1 as usize;
        left[c] += 1;
        right[c] -= 1;
        if pairs[i].0 == pairs[i + 1].0 {
            continue; // not a boundary
        }
        let nl = (i + 1) as f64;
        let nr = n - nl;
        let e_split = nl / n * entropy(&left) + nr / n * entropy(&right);
        let gain = parent_entropy - e_split;
        let cut = (pairs[i].0 + pairs[i + 1].0) / 2.0;
        if best.is_none_or(|(g, _, _)| gain > g) {
            best = Some((gain, i + 1, cut));
        }
    }
    let Some((gain, idx, cut)) = best else {
        return; // all values identical
    };

    // MDL acceptance criterion.
    let left_pairs = &pairs[..idx];
    let right_pairs = &pairs[idx..];
    let lh = histogram(left_pairs, n_classes);
    let rh = histogram(right_pairs, n_classes);
    let k = distinct_classes(&parent_hist) as f64;
    let k1 = distinct_classes(&lh) as f64;
    let k2 = distinct_classes(&rh) as f64;
    let e = parent_entropy;
    let e1 = entropy(&lh);
    let e2 = entropy(&rh);
    let delta = (3f64.powf(k) - 2.0).log2() - (k * e - k1 * e1 - k2 * e2);
    let threshold = ((n - 1.0).log2() + delta) / n;
    if gain <= threshold {
        return;
    }

    cuts.push(cut);
    split(left_pairs, n_classes, depth - 1, cuts);
    split(right_pairs, n_classes, depth - 1, cuts);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_a_clean_boundary() {
        // Class 0 below 50, class 1 above — one obvious cut.
        let values: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let classes: Vec<u32> = (0..200).map(|i| u32::from(i >= 100)).collect();
        let c = mdl_cuts(&values, &classes, 2, 8);
        assert_eq!(c.n_bins(), 2, "cuts: {:?}", c.cuts());
        let cut = c.cuts()[0];
        assert!((99.0..=100.0).contains(&cut), "cut at {cut}");
    }

    #[test]
    fn pure_column_never_splits() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let classes = vec![0u32; 100];
        let c = mdl_cuts(&values, &classes, 2, 8);
        assert_eq!(c.n_bins(), 1);
    }

    #[test]
    fn random_labels_rarely_split() {
        // Labels independent of value: MDL should refuse to split.
        let values: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let classes: Vec<u32> = (0..200).map(|i| (i * 7 % 13 % 2) as u32).collect();
        let c = mdl_cuts(&values, &classes, 2, 8);
        assert!(c.n_bins() <= 2, "spurious cuts: {:?}", c.cuts());
    }

    #[test]
    fn three_segments_found() {
        // 0..100 class0, 100..200 class1, 200..300 class0 → two cuts.
        let values: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let classes: Vec<u32> = (0..300)
            .map(|i| u32::from((100..200).contains(&i)))
            .collect();
        let c = mdl_cuts(&values, &classes, 2, 8);
        assert_eq!(c.n_bins(), 3, "cuts: {:?}", c.cuts());
    }

    #[test]
    fn depth_limits_bins() {
        let values: Vec<f64> = (0..400).map(|i| i as f64).collect();
        let classes: Vec<u32> = (0..400).map(|i| ((i / 50) % 2) as u32).collect();
        let c = mdl_cuts(&values, &classes, 2, 1);
        assert!(c.n_bins() <= 2);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mdl_cuts(&[], &[], 2, 8).n_bins(), 1);
        assert_eq!(mdl_cuts(&[1.0], &[0], 2, 8).n_bins(), 1);
        assert_eq!(mdl_cuts(&[f64::NAN, f64::NAN], &[0, 1], 2, 8).n_bins(), 1);
        // Constant values cannot split regardless of labels.
        assert_eq!(
            mdl_cuts(
                &[5.0; 50],
                &(0..50).map(|i| (i % 2) as u32).collect::<Vec<_>>(),
                2,
                8
            )
            .n_bins(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        mdl_cuts(&[1.0], &[], 2, 8);
    }
}
