//! ChiMerge discretization (Kerber, 1992): bottom-up supervised merging.
//!
//! Start from one interval per distinct value; repeatedly merge the
//! adjacent pair whose class distributions are *least* distinguishable by
//! chi-square, until every adjacent pair exceeds the significance
//! threshold or the interval budget is reached. Complements the top-down
//! Fayyad–Irani method in [`crate::mdl`]; both are classic choices for
//! the paper's discretizer component.

use om_stats::{chi2_p_value, entropy};

use crate::cuts::CutPoints;

/// ChiMerge cut points for `values` with aligned class ids.
///
/// * `alpha` — adjacent intervals whose chi-square p-value is below
///   `alpha` (distributions clearly differ) are never merged;
/// * `max_bins` — hard interval budget (merging continues past `alpha`
///   until the budget holds).
///
/// Non-finite values are ignored; degenerate inputs yield a single bin.
///
/// # Panics
/// Panics on length mismatch or out-of-range class ids.
pub fn chimerge_cuts(
    values: &[f64],
    classes: &[u32],
    n_classes: usize,
    alpha: f64,
    max_bins: usize,
) -> CutPoints {
    assert_eq!(values.len(), classes.len(), "values and classes must align");
    assert!(
        classes.iter().all(|&c| (c as usize) < n_classes),
        "class id out of range"
    );
    assert!(max_bins >= 1, "need at least one bin");

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

    // Initial intervals: one per distinct value, with class histograms.
    struct Interval {
        lo: f64,
        hi: f64,
        hist: Vec<u64>,
    }
    let mut intervals: Vec<Interval> = Vec::new();
    for &(v, c) in &pairs {
        match intervals.last_mut() {
            Some(last) if last.hi == v => last.hist[c as usize] += 1,
            _ => {
                let mut hist = vec![0u64; n_classes];
                hist[c as usize] += 1;
                intervals.push(Interval { lo: v, hi: v, hist });
            }
        }
    }

    // chi-square statistic of two adjacent histograms.
    let pair_chi2 = |a: &[u64], b: &[u64]| -> f64 {
        om_stats::chi2_independence(&[a.to_vec(), b.to_vec()]).statistic
    };

    while intervals.len() > 1 {
        // Find the least-distinguishable adjacent pair.
        let mut best_idx = 0usize;
        let mut best_stat = f64::INFINITY;
        for i in 0..intervals.len() - 1 {
            let stat = pair_chi2(&intervals[i].hist, &intervals[i + 1].hist);
            if stat < best_stat {
                best_stat = stat;
                best_idx = i;
            }
        }
        let dof = (n_classes.max(2) - 1) as u64;
        let p = chi2_p_value(best_stat, dof);
        let over_budget = intervals.len() > max_bins;
        // Merge while the best pair is not significantly different, or we
        // are still over budget.
        if p < alpha && !over_budget {
            break;
        }
        let right = intervals.remove(best_idx + 1);
        let left = &mut intervals[best_idx];
        left.hi = right.hi;
        for (l, r) in left.hist.iter_mut().zip(&right.hist) {
            *l += r;
        }
    }

    let cuts: Vec<f64> = intervals
        .windows(2)
        .map(|w| (w[0].hi + w[1].lo) / 2.0)
        .collect();
    CutPoints::new(cuts)
}

/// Convenience: whether the produced binning is *pure-preserving* — no
/// merge ever joined intervals of disjoint classes (used by tests).
pub fn binning_entropy(values: &[f64], classes: &[u32], n_classes: usize, cuts: &CutPoints) -> f64 {
    let mut parts = vec![vec![0u64; n_classes]; cuts.n_bins()];
    for (&v, &c) in values.iter().zip(classes) {
        if v.is_finite() {
            parts[cuts.bin_of(v)][c as usize] += 1;
        }
    }
    let total: u64 = parts.iter().flatten().sum();
    if total == 0 {
        return 0.0;
    }
    parts
        .iter()
        .map(|p| {
            let n: u64 = p.iter().sum();
            n as f64 / total as f64 * entropy(p)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_boundary_recovered() {
        let values: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let classes: Vec<u32> = (0..200).map(|i| u32::from(i >= 100)).collect();
        let c = chimerge_cuts(&values, &classes, 2, 0.01, 10);
        assert_eq!(c.n_bins(), 2, "cuts: {:?}", c.cuts());
        let cut = c.cuts()[0];
        assert!((99.0..=100.0).contains(&cut), "cut at {cut}");
    }

    #[test]
    fn pure_column_single_bin() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let classes = vec![0u32; 100];
        let c = chimerge_cuts(&values, &classes, 2, 0.05, 10);
        assert_eq!(c.n_bins(), 1);
    }

    #[test]
    fn max_bins_enforced() {
        // Alternating stripes want many intervals; the budget caps them.
        let values: Vec<f64> = (0..400).map(|i| i as f64).collect();
        let classes: Vec<u32> = (0..400).map(|i| ((i / 20) % 2) as u32).collect();
        let c = chimerge_cuts(&values, &classes, 2, 0.001, 4);
        assert!(c.n_bins() <= 4, "bins {}", c.n_bins());
    }

    #[test]
    fn binning_beats_random_on_structured_data() {
        let values: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let classes: Vec<u32> = (0..300)
            .map(|i| u32::from((100..200).contains(&i)))
            .collect();
        let cm = chimerge_cuts(&values, &classes, 2, 0.01, 10);
        let cm_entropy = binning_entropy(&values, &classes, 2, &cm);
        // Fixed-width binning cannot match the supervised boundary.
        let ew = crate::equal_width::equal_width_cuts(&values, cm.n_bins());
        let ew_entropy = binning_entropy(&values, &classes, 2, &ew);
        assert!(
            cm_entropy <= ew_entropy + 1e-9,
            "ChiMerge {cm_entropy} vs equal-width {ew_entropy}"
        );
        assert!(cm_entropy < 0.1, "the structure is fully separable");
    }

    #[test]
    fn agrees_with_mdl_on_simple_structure() {
        let values: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let classes: Vec<u32> = (0..200).map(|i| u32::from(i >= 100)).collect();
        let cm = chimerge_cuts(&values, &classes, 2, 0.01, 10);
        let mdl = crate::mdl::mdl_cuts(&values, &classes, 2, 8);
        assert_eq!(cm.n_bins(), mdl.n_bins());
        assert!((cm.cuts()[0] - mdl.cuts()[0]).abs() < 1.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(chimerge_cuts(&[], &[], 2, 0.05, 5).n_bins(), 1);
        assert_eq!(chimerge_cuts(&[1.0], &[0], 2, 0.05, 5).n_bins(), 1);
        assert_eq!(
            chimerge_cuts(
                &[3.0; 50],
                &(0..50).map(|i| (i % 2) as u32).collect::<Vec<_>>(),
                2,
                0.05,
                5
            )
            .n_bins(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        chimerge_cuts(&[1.0], &[], 2, 0.05, 5);
    }
}
