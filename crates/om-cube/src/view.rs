//! Read-oriented view over a 2-D rule cube (one attribute × class).
//!
//! The visualizer and the general-impressions miner consume cubes through
//! this view: per-(value, class) counts, confidences and supports, plus
//! the per-value data distribution shown at the top of each Fig. 5 column.

use std::sync::Arc;

use om_data::ValueId;

use crate::cube::{CubeError, RuleCube};
use crate::store::CubeStore;

/// A materialized `value × class` table of one attribute's rule cube.
#[derive(Debug, Clone, PartialEq)]
pub struct CubeView {
    attr_name: Arc<str>,
    value_labels: Arc<[String]>,
    class_labels: Arc<[String]>,
    /// `counts[value][class]`.
    counts: Vec<Vec<u64>>,
    /// Row totals (`sup(A = v)`).
    value_totals: Vec<u64>,
    total: u64,
}

impl CubeView {
    /// Build a view from a 1-attribute rule cube.
    ///
    /// # Errors
    /// Fails if the cube does not have exactly one attribute dimension.
    pub fn from_cube(cube: &RuleCube) -> Result<Self, CubeError> {
        if cube.n_attr_dims() != 1 {
            return Err(CubeError::Invalid(format!(
                "CubeView requires a 1-attribute cube, got {} attribute dims",
                cube.n_attr_dims()
            )));
        }
        let dim = &cube.dims()[0];
        let n_vals = dim.cardinality();
        let n_classes = cube.n_classes();
        let mut counts = vec![vec![0u64; n_classes]; n_vals];
        for (coords, class, count) in cube.iter_cells() {
            counts[coords[0] as usize][class as usize] = count;
        }
        let value_totals: Vec<u64> = counts.iter().map(|row| row.iter().sum()).collect();
        Ok(Self {
            attr_name: dim.name.clone(),
            value_labels: dim.labels.clone(),
            class_labels: Arc::clone(cube.shared_class_labels()),
            counts,
            value_totals,
            total: cube.total(),
        })
    }

    /// The view of `attr` restricted to rows where `cond_attr =
    /// cond_value` — a conditioned Fig. 5 column, answered through
    /// [`crate::query::conditioned_one_dim`] (a pair-cube slice).
    ///
    /// # Errors
    /// Fails if either attribute is outside the store or the condition
    /// value is out of domain.
    pub fn conditioned(
        store: &CubeStore,
        cond_attr: usize,
        cond_value: ValueId,
        attr: usize,
    ) -> Result<Self, CubeError> {
        Self::from_cube(&crate::query::conditioned_one_dim(
            store, cond_attr, cond_value, attr,
        )?)
    }

    pub fn attr_name(&self) -> &str {
        &self.attr_name
    }

    pub fn value_labels(&self) -> &[String] {
        &self.value_labels
    }

    pub fn class_labels(&self) -> &[String] {
        &self.class_labels
    }

    pub fn n_values(&self) -> usize {
        self.value_labels.len()
    }

    pub fn n_classes(&self) -> usize {
        self.class_labels.len()
    }

    /// Count of records with `value` and `class`.
    pub fn count(&self, value: ValueId, class: ValueId) -> u64 {
        self.counts[value as usize][class as usize]
    }

    /// Records with `value` (any class).
    pub fn value_total(&self, value: ValueId) -> u64 {
        self.value_totals[value as usize]
    }

    /// Total records.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Confidence of `A = value → class`; `None` for an empty cell.
    pub fn confidence(&self, value: ValueId, class: ValueId) -> Option<f64> {
        let denom = self.value_totals[value as usize];
        if denom == 0 {
            return None;
        }
        Some(self.counts[value as usize][class as usize] as f64 / denom as f64)
    }

    /// Confidences of one class across all values (empty cells → 0, as the
    /// paper's visualization draws them).
    pub fn class_confidences(&self, class: ValueId) -> Vec<f64> {
        (0..self.n_values())
            .map(|v| self.confidence(v as ValueId, class).unwrap_or(0.0))
            .collect()
    }

    /// Support of `A = value → class` relative to all records.
    pub fn support(&self, value: ValueId, class: ValueId) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts[value as usize][class as usize] as f64 / self.total as f64
    }

    /// Data distribution across values (the bars above each Fig. 5 column).
    pub fn value_distribution(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.n_values()];
        }
        self.value_totals
            .iter()
            .map(|&t| t as f64 / self.total as f64)
            .collect()
    }

    /// Maximum confidence per class across values (input to class scaling).
    pub fn max_confidences(&self) -> Vec<f64> {
        (0..self.n_classes())
            .map(|c| {
                self.class_confidences(c as ValueId)
                    .into_iter()
                    .fold(0.0, f64::max)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeDim;

    fn view() -> CubeView {
        let dim = CubeDim {
            attr_index: 0,
            name: "Time".into(),
            labels: vec!["am".into(), "pm".into(), "eve".into()].into(),
        };
        let mut cube = RuleCube::new(vec![dim], vec!["ok".into(), "drop".into()]);
        cube.add(&[0], 0, 90).unwrap();
        cube.add(&[0], 1, 10).unwrap();
        cube.add(&[1], 0, 195).unwrap();
        cube.add(&[1], 1, 5).unwrap();
        // "eve" left completely empty.
        CubeView::from_cube(&cube).unwrap()
    }

    #[test]
    fn counts_and_confidences() {
        let v = view();
        assert_eq!(v.attr_name(), "Time");
        assert_eq!(v.n_values(), 3);
        assert_eq!(v.count(0, 1), 10);
        assert_eq!(v.value_total(1), 200);
        assert_eq!(v.confidence(0, 1), Some(0.10));
        assert_eq!(v.confidence(1, 1), Some(0.025));
        assert_eq!(v.confidence(2, 1), None, "empty cell has no confidence");
        assert_eq!(v.class_confidences(1), vec![0.10, 0.025, 0.0]);
    }

    #[test]
    fn supports_and_distribution() {
        let v = view();
        assert!((v.support(0, 1) - 10.0 / 300.0).abs() < 1e-12);
        let dist = v.value_distribution();
        assert!((dist[0] - 100.0 / 300.0).abs() < 1e-12);
        assert!((dist[1] - 200.0 / 300.0).abs() < 1e-12);
        assert_eq!(dist[2], 0.0);
    }

    #[test]
    fn max_confidences_per_class() {
        let v = view();
        let m = v.max_confidences();
        assert!((m[0] - 0.975).abs() < 1e-12);
        assert!((m[1] - 0.10).abs() < 1e-12);
    }

    #[test]
    fn rejects_wrong_dimensionality() {
        let mut cube = RuleCube::new(vec![], vec!["a".into()]);
        cube.add(&[], 0, 1).unwrap();
        assert!(CubeView::from_cube(&cube).is_err());
    }

    #[test]
    fn empty_view_is_all_zero() {
        let dim = CubeDim {
            attr_index: 0,
            name: "X".into(),
            labels: vec!["a".into()].into(),
        };
        let cube = RuleCube::new(vec![dim], vec!["c".into()]);
        let v = CubeView::from_cube(&cube).unwrap();
        assert_eq!(v.total(), 0);
        assert_eq!(v.support(0, 0), 0.0);
        assert_eq!(v.value_distribution(), vec![0.0]);
    }
}
