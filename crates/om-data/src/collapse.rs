//! Rare-value collapsing for high-cardinality categorical attributes.
//!
//! Fig. 5's caption notes that "some attributes may have so many possible
//! values that the grid size may be inadequate to draw them all"; rule
//! cubes over such attributes are also wide and mostly noise. The usual
//! preparation step merges values below a support threshold into a single
//! `other` value, which this module implements as an in-place dataset
//! transformation (labels are preserved for surviving values).

use crate::dataset::{replace_attribute, Dataset};
use crate::error::{DataError, Result};
use crate::schema::{Attribute, Domain, ValueId};

/// Label used for the merged rare values.
pub const OTHER_LABEL: &str = "other";

/// Outcome of a collapse: the mapping from old to new value ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollapseInfo {
    /// `mapping[old_id] = new_id`.
    pub mapping: Vec<ValueId>,
    /// New id of the `other` bucket, if any value was collapsed.
    pub other_id: Option<ValueId>,
    /// Number of original values merged into `other`.
    pub n_collapsed: usize,
}

/// Merge all values of categorical attribute `idx` with fewer than
/// `min_count` records into one `other` value. No-op (identity mapping)
/// when nothing falls below the threshold.
///
/// # Errors
/// Fails if the attribute is the class, is continuous, or a label clash
/// with [`OTHER_LABEL`] would be ambiguous (an existing `other` value that
/// itself survives).
pub fn collapse_rare_values(ds: &mut Dataset, idx: usize, min_count: u64) -> Result<CollapseInfo> {
    if idx == ds.schema().class_index() {
        return Err(DataError::Invalid(
            "cannot collapse values of the class attribute".into(),
        ));
    }
    let counts = ds.value_counts(idx)?;
    let card = counts.len();
    let keep: Vec<bool> = counts.iter().map(|&c| c >= min_count).collect();
    let n_collapsed = keep.iter().filter(|&&k| !k).count();
    if n_collapsed == 0 {
        return Ok(CollapseInfo {
            mapping: (0..card as ValueId).collect(),
            other_id: None,
            n_collapsed: 0,
        });
    }

    let attr = ds.schema().attribute(idx);
    let old_labels = attr.domain().labels().to_vec();
    let name = attr.name().to_owned();
    if old_labels
        .iter()
        .zip(&keep)
        .any(|(l, &k)| k && l == OTHER_LABEL)
    {
        return Err(DataError::Invalid(format!(
            "attribute {name:?} already has a frequent {OTHER_LABEL:?} value; collapsing would be ambiguous"
        )));
    }

    // Build the new domain: surviving labels in original order, then `other`.
    let mut new_labels: Vec<String> = Vec::new();
    let mut mapping = vec![0 as ValueId; card];
    for (old, label) in old_labels.iter().enumerate() {
        if keep[old] {
            mapping[old] = new_labels.len() as ValueId;
            new_labels.push(label.clone());
        }
    }
    let other_id = new_labels.len() as ValueId;
    new_labels.push(OTHER_LABEL.to_owned());
    for (old, &k) in keep.iter().enumerate() {
        if !k {
            mapping[old] = other_id;
        }
    }

    let old_ids = ds.categorical(idx)?;
    let new_ids: Vec<ValueId> = old_ids.iter().map(|&v| mapping[v as usize]).collect();
    let new_attr = Attribute::categorical(name, Domain::from_labels(new_labels));
    replace_attribute(
        ds,
        idx,
        new_attr,
        crate::column::Column::Categorical(new_ids),
    )?;
    Ok(CollapseInfo {
        mapping,
        other_id: Some(other_id),
        n_collapsed,
    })
}

/// Collapse rare values of every non-class categorical attribute.
///
/// # Errors
/// Propagates per-attribute failures.
pub fn collapse_all(ds: &mut Dataset, min_count: u64) -> Result<Vec<(usize, CollapseInfo)>> {
    let attrs: Vec<usize> = (0..ds.schema().n_attributes())
        .filter(|&i| i != ds.schema().class_index() && ds.schema().attribute(i).is_categorical())
        .collect();
    let mut out = Vec::with_capacity(attrs.len());
    for idx in attrs {
        let info = collapse_rare_values(ds, idx, min_count)?;
        out.push((idx, info));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Cell, DatasetBuilder};

    fn tail_heavy() -> Dataset {
        let mut b = DatasetBuilder::new().categorical("A").class("C");
        for _ in 0..100 {
            b.push_row(&[Cell::Str("big1"), Cell::Str("y")]).unwrap();
        }
        for _ in 0..50 {
            b.push_row(&[Cell::Str("big2"), Cell::Str("n")]).unwrap();
        }
        for rare in ["r1", "r2", "r3"] {
            for _ in 0..2 {
                b.push_row(&[Cell::Str(rare), Cell::Str("y")]).unwrap();
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn rare_values_merged_into_other() {
        let mut ds = tail_heavy();
        let info = collapse_rare_values(&mut ds, 0, 10).unwrap();
        assert_eq!(info.n_collapsed, 3);
        let attr = ds.schema().attribute(0);
        assert_eq!(attr.cardinality(), 3);
        assert_eq!(attr.domain().get(OTHER_LABEL), info.other_id);
        // Counts preserved: 100 + 50 + 6.
        let counts = ds.value_counts(0).unwrap();
        assert_eq!(counts, vec![100, 50, 6]);
        // Mapping covers all old values.
        assert_eq!(info.mapping.len(), 5);
    }

    #[test]
    fn noop_when_all_frequent() {
        let mut ds = tail_heavy();
        let before = ds.clone();
        let info = collapse_rare_values(&mut ds, 0, 1).unwrap();
        assert_eq!(info.n_collapsed, 0);
        assert!(info.other_id.is_none());
        assert_eq!(ds, before);
    }

    #[test]
    fn class_attribute_rejected() {
        let mut ds = tail_heavy();
        let class_idx = ds.schema().class_index();
        assert!(collapse_rare_values(&mut ds, class_idx, 10).is_err());
    }

    #[test]
    fn surviving_other_label_rejected() {
        let mut b = DatasetBuilder::new().categorical("A").class("C");
        for _ in 0..50 {
            b.push_row(&[Cell::Str("other"), Cell::Str("y")]).unwrap();
        }
        b.push_row(&[Cell::Str("rare"), Cell::Str("y")]).unwrap();
        let mut ds = b.finish().unwrap();
        assert!(collapse_rare_values(&mut ds, 0, 10).is_err());
    }

    #[test]
    fn collapse_all_sweeps_attributes() {
        let mut b = DatasetBuilder::new()
            .categorical("A")
            .categorical("B")
            .class("C");
        for i in 0..60 {
            let a = if i < 55 { "a_common" } else { "a_rare" };
            let bb = if i % 2 == 0 { "b0" } else { "b1" };
            b.push_row(&[Cell::Str(a), Cell::Str(bb), Cell::Str("y")])
                .unwrap();
        }
        let mut ds = b.finish().unwrap();
        let infos = collapse_all(&mut ds, 10).unwrap();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].1.n_collapsed, 1); // a_rare merged
        assert_eq!(infos[1].1.n_collapsed, 0); // B untouched
        let total: u64 = ds.value_counts(0).unwrap().iter().sum();
        assert_eq!(total, 60);
    }

    #[test]
    fn all_rare_collapses_to_single_other() {
        let mut b = DatasetBuilder::new().categorical("A").class("C");
        for v in ["v1", "v2", "v3"] {
            b.push_row(&[Cell::Str(v), Cell::Str("y")]).unwrap();
        }
        let mut ds = b.finish().unwrap();
        let info = collapse_rare_values(&mut ds, 0, 10).unwrap();
        assert_eq!(info.n_collapsed, 3);
        assert_eq!(ds.schema().attribute(0).cardinality(), 1);
        assert_eq!(ds.value_counts(0).unwrap(), vec![3]);
    }
}
