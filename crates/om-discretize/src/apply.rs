//! Applying discretization to datasets.

use om_data::dataset::replace_attribute;
use om_data::{Attribute, Column, DataError, Dataset, Domain, Result, ValueId};

use crate::cuts::CutPoints;
use crate::equal_freq::equal_freq_cuts;
use crate::equal_width::equal_width_cuts;
use crate::mdl::mdl_cuts;

/// Discretization method selection.
#[derive(Debug, Clone, PartialEq)]
pub enum Method {
    /// `k` equal-width bins.
    EqualWidth(usize),
    /// `k` equal-frequency bins.
    EqualFrequency(usize),
    /// Supervised Fayyad–Irani entropy/MDL (depth-capped at 8).
    EntropyMdl,
    /// Supervised bottom-up ChiMerge at significance `alpha`, capped at
    /// `max_bins` intervals.
    ChiMerge { alpha: f64, max_bins: usize },
    /// User-supplied cut points (the paper's "manual discretization
    /// option").
    Manual(Vec<f64>),
}

/// Label used for the NaN bin when the column contains missing values.
pub const MISSING_LABEL: &str = "missing";

/// Compute cut points for one continuous attribute under `method`.
fn cuts_for(ds: &Dataset, idx: usize, method: &Method) -> Result<CutPoints> {
    let values = ds.column(idx).as_continuous().ok_or_else(|| {
        DataError::Invalid(format!(
            "attribute {:?} is already categorical",
            ds.schema().attribute(idx).name()
        ))
    })?;
    Ok(match method {
        Method::EqualWidth(k) => equal_width_cuts(values, *k),
        Method::EqualFrequency(k) => equal_freq_cuts(values, *k),
        Method::EntropyMdl => mdl_cuts(values, ds.class_values(), ds.schema().n_classes(), 8),
        Method::ChiMerge { alpha, max_bins } => crate::chimerge::chimerge_cuts(
            values,
            ds.class_values(),
            ds.schema().n_classes(),
            *alpha,
            *max_bins,
        ),
        Method::Manual(cuts) => CutPoints::new(cuts.clone()),
    })
}

/// Discretize continuous attribute `idx` in place, replacing it with a
/// categorical attribute whose labels are interval strings (plus a
/// `missing` value if the column contains NaNs).
///
/// Returns the cut points used.
///
/// ```
/// use om_data::{Cell, DatasetBuilder};
/// use om_discretize::{discretize_attribute, Method};
///
/// let mut b = DatasetBuilder::new().continuous("Signal").class("C");
/// for i in 0..100 {
///     let v = -100.0 + i as f64;
///     b.push_row(&[Cell::Num(v), Cell::Str(if v < -50.0 { "drop" } else { "ok" })])
///         .unwrap();
/// }
/// let mut ds = b.finish().unwrap();
/// let cuts = discretize_attribute(&mut ds, 0, &Method::EntropyMdl).unwrap();
/// // The supervised method finds the class boundary near -50.
/// assert_eq!(cuts.n_bins(), 2);
/// assert!(ds.schema().attribute(0).is_categorical());
/// ```
///
/// # Errors
/// Fails if the attribute is already categorical or is the class.
pub fn discretize_attribute(ds: &mut Dataset, idx: usize, method: &Method) -> Result<CutPoints> {
    if idx == ds.schema().class_index() {
        return Err(DataError::Invalid(
            "cannot discretize the class attribute".into(),
        ));
    }
    let cuts = cuts_for(ds, idx, method)?;
    let values = ds
        .column(idx)
        .as_continuous()
        .expect("validated continuous above");
    let has_nan = values.iter().any(|v| v.is_nan());
    let mut labels = cuts.labels(3);
    let missing_bin = labels.len();
    if has_nan {
        labels.push(MISSING_LABEL.to_owned());
    }
    let ids: Vec<ValueId> = values
        .iter()
        .map(|&v| {
            if v.is_nan() {
                missing_bin as ValueId
            } else {
                cuts.bin_of(v) as ValueId
            }
        })
        .collect();
    let name = ds.schema().attribute(idx).name().to_owned();
    let attr = Attribute::categorical(name, Domain::from_labels(labels));
    replace_attribute(ds, idx, attr, Column::Categorical(ids))?;
    Ok(cuts)
}

/// Discretize every continuous attribute with the same method; returns the
/// `(attribute index, cut points)` list, in schema order.
///
/// # Errors
/// Propagates any per-attribute failure.
pub fn discretize_all(ds: &mut Dataset, method: &Method) -> Result<Vec<(usize, CutPoints)>> {
    let continuous: Vec<usize> = (0..ds.schema().n_attributes())
        .filter(|&i| i != ds.schema().class_index() && !ds.schema().attribute(i).is_categorical())
        .collect();
    let mut out = Vec::with_capacity(continuous.len());
    for idx in continuous {
        let cuts = discretize_attribute(ds, idx, method)?;
        out.push((idx, cuts));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_data::{Cell, DatasetBuilder};

    fn mixed() -> Dataset {
        let mut b = DatasetBuilder::new()
            .categorical("Phone")
            .continuous("Signal")
            .continuous("Battery")
            .class("Outcome");
        for i in 0..100 {
            let signal = -100.0 + i as f64 * 0.5;
            let battery = (i % 10) as f64 * 10.0;
            let outcome = if signal < -80.0 { "drop" } else { "ok" };
            b.push_row(&[
                Cell::Str(if i % 2 == 0 { "ph1" } else { "ph2" }),
                Cell::Num(signal),
                Cell::Num(battery),
                Cell::Str(outcome),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn equal_width_replaces_attribute() {
        let mut ds = mixed();
        let cuts = discretize_attribute(&mut ds, 1, &Method::EqualWidth(4)).unwrap();
        assert_eq!(cuts.n_bins(), 4);
        let attr = ds.schema().attribute(1);
        assert!(attr.is_categorical());
        assert_eq!(attr.name(), "Signal");
        assert_eq!(attr.cardinality(), 4);
        // Counts must cover all rows.
        let total: u64 = ds.value_counts(1).unwrap().iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn mdl_uses_class_boundary() {
        let mut ds = mixed();
        let cuts = discretize_attribute(&mut ds, 1, &Method::EntropyMdl).unwrap();
        assert_eq!(cuts.n_bins(), 2, "cuts {:?}", cuts.cuts());
        assert!((cuts.cuts()[0] + 80.0).abs() < 1.0, "cut near -80");
    }

    #[test]
    fn manual_cuts_respected() {
        let mut ds = mixed();
        let cuts = discretize_attribute(&mut ds, 2, &Method::Manual(vec![25.0, 75.0])).unwrap();
        assert_eq!(cuts.cuts(), &[25.0, 75.0]);
        assert_eq!(ds.schema().attribute(2).cardinality(), 3);
    }

    #[test]
    fn discretize_all_converts_everything() {
        let mut ds = mixed();
        let done = discretize_all(&mut ds, &Method::EqualFrequency(3)).unwrap();
        assert_eq!(done.len(), 2);
        assert!(ds.all_categorical());
    }

    #[test]
    fn discretizing_a_clone_spares_the_source_and_shares_the_rest() {
        let source = mixed();
        let mut prepared = source.clone();
        discretize_all(&mut prepared, &Method::EqualFrequency(3)).unwrap();
        // `mixed()` again, not a clone: a clone would share a buffer that
        // was wrongly rewritten in place.
        assert_eq!(source, mixed());
        for idx in [1, 2] {
            assert!(source.column(idx).as_continuous().is_some());
            assert!(prepared.column(idx).as_categorical().is_some());
        }
        // The columns discretization did not rewrite are still one buffer.
        for idx in [0, 3] {
            assert_eq!(
                source.categorical(idx).unwrap().as_ptr(),
                prepared.categorical(idx).unwrap().as_ptr(),
                "column {idx} was copied"
            );
        }
    }

    #[test]
    fn nan_goes_to_missing_bin() {
        let mut b = DatasetBuilder::new().continuous("X").class("C");
        b.push_row(&[Cell::Num(1.0), Cell::Str("a")]).unwrap();
        b.push_row(&[Cell::Num(f64::NAN), Cell::Str("b")]).unwrap();
        b.push_row(&[Cell::Num(2.0), Cell::Str("a")]).unwrap();
        let mut ds = b.finish().unwrap();
        discretize_attribute(&mut ds, 0, &Method::EqualWidth(2)).unwrap();
        let attr = ds.schema().attribute(0);
        let missing_id = attr
            .domain()
            .get(MISSING_LABEL)
            .expect("missing bin exists");
        let ids = ds.column(0).as_categorical().unwrap();
        assert_eq!(ids[1], missing_id);
        assert_ne!(ids[0], missing_id);
    }

    #[test]
    fn rejects_categorical_and_class() {
        let mut ds = mixed();
        assert!(discretize_attribute(&mut ds, 0, &Method::EqualWidth(2)).is_err());
        let class_idx = ds.schema().class_index();
        assert!(discretize_attribute(&mut ds, class_idx, &Method::EqualWidth(2)).is_err());
    }

    #[test]
    fn constant_column_single_bin() {
        let mut b = DatasetBuilder::new().continuous("X").class("C");
        for i in 0..10 {
            b.push_row(&[
                Cell::Num(5.0),
                Cell::Str(if i % 2 == 0 { "a" } else { "b" }),
            ])
            .unwrap();
        }
        let mut ds = b.finish().unwrap();
        let cuts = discretize_attribute(&mut ds, 0, &Method::EqualWidth(4)).unwrap();
        assert_eq!(cuts.n_bins(), 1);
        assert_eq!(ds.schema().attribute(0).cardinality(), 1);
    }
}

#[cfg(test)]
mod chimerge_apply_tests {
    use super::*;
    use om_data::{Cell, DatasetBuilder};

    #[test]
    fn chimerge_method_applies() {
        let mut b = DatasetBuilder::new().continuous("X").class("C");
        for i in 0..200 {
            let v = i as f64;
            b.push_row(&[Cell::Num(v), Cell::Str(if v < 100.0 { "a" } else { "b" })])
                .unwrap();
        }
        let mut ds = b.finish().unwrap();
        let cuts = discretize_attribute(
            &mut ds,
            0,
            &Method::ChiMerge {
                alpha: 0.01,
                max_bins: 8,
            },
        )
        .unwrap();
        assert_eq!(cuts.n_bins(), 2, "cuts {:?}", cuts.cuts());
        assert!(ds.schema().attribute(0).is_categorical());
    }
}
