//! Exception mining: attribute values whose class confidence deviates
//! significantly from the attribute-wide base rate.
//!
//! Unlike the OLAP exception work of Sarawagi et al. discussed in the
//! paper's related work (multi-level aggregation lattices), Opportunity
//! Map cubes are flat; an exception here is a single-level statement:
//! "value `v` of attribute `A` has a significantly higher (or lower)
//! rate of class `c` than `A`'s other values". Significance uses the
//! pooled two-proportion z-test from `om-stats`.

use om_cube::{CubeStore, CubeView};
use om_fault::{Budget, FaultError};
use om_stats::two_proportion_z;

/// Direction of the deviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExceptionKind {
    /// Confidence significantly above the rest of the attribute.
    High,
    /// Confidence significantly below the rest of the attribute.
    Low,
}

/// Thresholds for exception mining.
#[derive(Debug, Clone)]
pub struct ExceptionConfig {
    /// Two-sided significance level (on the z-test p-value). When
    /// `use_fdr` is set, this is the Benjamini–Hochberg FDR level instead
    /// of a per-test threshold.
    pub alpha: f64,
    /// Minimum records in the cell (tiny cells produce junk exceptions).
    pub min_cell_count: u64,
    /// Control the false discovery rate across *all* cells tested in the
    /// store (thousands on a wide dataset) instead of applying `alpha`
    /// per test.
    pub use_fdr: bool,
}

impl Default for ExceptionConfig {
    fn default() -> Self {
        Self {
            alpha: 0.001,
            min_cell_count: 30,
            use_fdr: false,
        }
    }
}

/// One detected exception.
#[derive(Debug, Clone, PartialEq)]
pub struct Exception {
    pub attr: usize,
    pub attr_name: String,
    pub value: u32,
    pub value_label: String,
    pub class: u32,
    pub class_label: String,
    pub kind: ExceptionKind,
    /// The cell's confidence.
    pub confidence: f64,
    /// Confidence of the same class over the attribute's *other* values.
    pub rest_confidence: f64,
    /// z statistic of the comparison.
    pub z: f64,
}

/// Every candidate test of one view (cells above `min_cell_count`), with
/// its two-sided p-value — no significance filtering yet.
fn candidates_in_view(view: &CubeView, min_cell_count: u64) -> Vec<(Exception, f64)> {
    let mut out = Vec::new();
    // Per-class totals over the whole attribute.
    let n_classes = view.n_classes();
    let mut class_totals = vec![0u64; n_classes];
    let mut grand = 0u64;
    for v in 0..view.n_values() as u32 {
        for c in 0..n_classes as u32 {
            class_totals[c as usize] += view.count(v, c);
        }
        grand += view.value_total(v);
    }

    for v in 0..view.n_values() as u32 {
        let cell_n = view.value_total(v);
        if cell_n < min_cell_count {
            continue;
        }
        let rest_n = grand - cell_n;
        if rest_n == 0 {
            continue; // the attribute has a single populated value
        }
        for c in 0..n_classes as u32 {
            let cell_x = view.count(v, c);
            let rest_x = class_totals[c as usize] - cell_x;
            let test = two_proportion_z(cell_x, cell_n, rest_x, rest_n);
            out.push((
                Exception {
                    attr: 0, // filled by the store-level driver
                    attr_name: view.attr_name().to_owned(),
                    value: v,
                    value_label: view.value_labels()[v as usize].clone(),
                    class: c,
                    class_label: view.class_labels()[c as usize].clone(),
                    kind: if test.z > 0.0 {
                        ExceptionKind::High
                    } else {
                        ExceptionKind::Low
                    },
                    confidence: cell_x as f64 / cell_n as f64,
                    rest_confidence: rest_x as f64 / rest_n as f64,
                    z: test.z,
                },
                test.p_value,
            ));
        }
    }
    out
}

/// Mine exceptions from one attribute's 2-D view at a fixed per-test
/// `alpha`.
pub fn exceptions_in_view(view: &CubeView, config: &ExceptionConfig) -> Vec<Exception> {
    candidates_in_view(view, config.min_cell_count)
        .into_iter()
        .filter_map(|(e, p)| (p < config.alpha).then_some(e))
        .collect()
}

/// Mine exceptions across every attribute in the store, sorted by |z|
/// descending. With `use_fdr`, significance is decided jointly by
/// Benjamini–Hochberg over every candidate cell at FDR level `alpha`.
pub fn mine_exceptions(store: &CubeStore, config: &ExceptionConfig) -> Vec<Exception> {
    mine_exceptions_budgeted(store, config, &Budget::unlimited())
        .expect("unlimited budget never trips")
}

/// [`mine_exceptions`] under a cooperative [`Budget`]: the deadline is
/// checked once per attribute.
///
/// # Errors
/// [`FaultError`] when the budget expires or the request is cancelled.
pub fn mine_exceptions_budgeted(
    store: &CubeStore,
    config: &ExceptionConfig,
    budget: &Budget,
) -> Result<Vec<Exception>, FaultError> {
    budget.check()?;
    let mut candidates: Vec<(Exception, f64)> = Vec::new();
    for &attr in store.attrs() {
        budget.check()?;
        let cube = store.one_dim(attr).expect("store attr has a cube");
        let view = CubeView::from_cube(&cube).expect("one-dim cube");
        for (mut e, p) in candidates_in_view(&view, config.min_cell_count) {
            e.attr = attr;
            candidates.push((e, p));
        }
    }
    let mut out: Vec<Exception> = if config.use_fdr {
        let p_values: Vec<f64> = candidates.iter().map(|(_, p)| *p).collect();
        let keep = om_stats::bh_reject(&p_values, config.alpha);
        candidates
            .into_iter()
            .zip(keep)
            .filter_map(|((e, _), k)| k.then_some(e))
            .collect()
    } else {
        candidates
            .into_iter()
            .filter_map(|(e, p)| (p < config.alpha).then_some(e))
            .collect()
    };
    out.sort_by(|a, b| {
        b.z.abs()
            .partial_cmp(&a.z.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_cube::{CubeStore, StoreBuildOptions};
    use om_data::{Cell, DatasetBuilder};

    /// Attribute with one outlier value: v2 drops at 30%, others at 5%.
    fn outlier_ds() -> om_data::Dataset {
        let mut b = DatasetBuilder::new().categorical("A").class("C");
        for (value, drop_pct) in [("v0", 5), ("v1", 5), ("v2", 30), ("v3", 5)] {
            for i in 0..200 {
                let c = if i % 100 < drop_pct { "drop" } else { "ok" };
                b.push_row(&[Cell::Str(value), Cell::Str(c)]).unwrap();
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn finds_the_planted_outlier() {
        let ds = outlier_ds();
        let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        let exceptions = mine_exceptions(&store, &ExceptionConfig::default());
        assert!(!exceptions.is_empty());
        let top = &exceptions[0];
        assert_eq!(top.value_label, "v2");
        // v2 should be High for drop and Low for ok — both directions land.
        let v2_drop = exceptions
            .iter()
            .find(|e| e.value_label == "v2" && e.class_label == "drop")
            .unwrap();
        assert_eq!(v2_drop.kind, ExceptionKind::High);
        assert!((v2_drop.confidence - 0.30).abs() < 1e-9);
        assert!(v2_drop.z > 3.0);
    }

    #[test]
    fn uniform_attribute_has_no_exceptions() {
        let mut b = DatasetBuilder::new().categorical("A").class("C");
        for value in ["v0", "v1", "v2"] {
            for i in 0..300 {
                let c = if i % 10 == 0 { "drop" } else { "ok" };
                b.push_row(&[Cell::Str(value), Cell::Str(c)]).unwrap();
            }
        }
        let ds = b.finish().unwrap();
        let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        let exceptions = mine_exceptions(&store, &ExceptionConfig::default());
        assert!(exceptions.is_empty(), "{exceptions:?}");
    }

    #[test]
    fn min_cell_count_suppresses_tiny_cells() {
        let mut b = DatasetBuilder::new().categorical("A").class("C");
        // v_outlier has only 3 records, all drops — noisy, must be skipped.
        for _ in 0..3 {
            b.push_row(&[Cell::Str("v_outlier"), Cell::Str("drop")])
                .unwrap();
        }
        for i in 0..500 {
            b.push_row(&[
                Cell::Str("v_normal"),
                Cell::Str(if i % 20 == 0 { "drop" } else { "ok" }),
            ])
            .unwrap();
        }
        let ds = b.finish().unwrap();
        let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        let exceptions = mine_exceptions(&store, &ExceptionConfig::default());
        assert!(
            exceptions.iter().all(|e| e.value_label != "v_outlier"),
            "{exceptions:?}"
        );
    }

    #[test]
    fn single_value_attribute_no_exception() {
        let mut b = DatasetBuilder::new().categorical("A").class("C");
        for i in 0..100 {
            b.push_row(&[
                Cell::Str("only"),
                Cell::Str(if i % 2 == 0 { "a" } else { "b" }),
            ])
            .unwrap();
        }
        let ds = b.finish().unwrap();
        let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        assert!(mine_exceptions(&store, &ExceptionConfig::default()).is_empty());
    }
}

#[cfg(test)]
mod fdr_tests {
    use super::*;
    use om_cube::{CubeStore, StoreBuildOptions};
    use om_synth::{generate_scaleup, ScaleUpConfig};

    #[test]
    fn fdr_is_stricter_than_per_test_alpha_on_wide_noise() {
        // Many attributes of noise: per-test alpha at 0.05 fires spuriously;
        // FDR at the same level should fire (much) less.
        let ds = generate_scaleup(&ScaleUpConfig {
            n_attrs: 40,
            n_records: 20_000,
            seed: 99,
            ..ScaleUpConfig::default()
        });
        let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        let loose = mine_exceptions(
            &store,
            &ExceptionConfig {
                alpha: 0.05,
                min_cell_count: 30,
                use_fdr: false,
            },
        );
        let fdr = mine_exceptions(
            &store,
            &ExceptionConfig {
                alpha: 0.05,
                min_cell_count: 30,
                use_fdr: true,
            },
        );
        assert!(
            fdr.len() <= loose.len(),
            "FDR ({}) must not exceed per-test ({})",
            fdr.len(),
            loose.len()
        );
    }

    #[test]
    fn fdr_keeps_a_strong_planted_signal() {
        use om_data::{Cell, DatasetBuilder};
        let mut b = DatasetBuilder::new().categorical("A").class("C");
        for (value, drop_pct) in [("v0", 5), ("v1", 5), ("v2", 40), ("v3", 5)] {
            for i in 0..300 {
                let c = if i % 100 < drop_pct { "drop" } else { "ok" };
                b.push_row(&[Cell::Str(value), Cell::Str(c)]).unwrap();
            }
        }
        let ds = b.finish().unwrap();
        let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        let fdr = mine_exceptions(
            &store,
            &ExceptionConfig {
                alpha: 0.01,
                min_cell_count: 30,
                use_fdr: true,
            },
        );
        assert!(
            fdr.iter()
                .any(|e| e.value_label == "v2" && e.kind == ExceptionKind::High),
            "{fdr:?}"
        );
    }
}
