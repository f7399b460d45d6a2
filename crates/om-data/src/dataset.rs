//! The in-memory dataset: a schema plus one column per attribute.

use std::sync::Arc;

use crate::column::Column;
use crate::error::{DataError, Result};
use crate::schema::{AttrKind, Schema, ValueId};

/// A columnar dataset with a designated class attribute.
///
/// Columns are immutable and shared: `clone` copies one pointer per
/// attribute, never a row, and the two mutators are copy-on-write, so
/// preparing a clone (discretize, collapse) never disturbs its source.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    schema: Schema,
    columns: Vec<Arc<Column>>,
    n_rows: usize,
}

impl Dataset {
    /// Assemble a dataset from a schema and matching columns.
    ///
    /// # Errors
    /// Fails if column count, lengths, or kinds disagree with the schema,
    /// or a categorical column holds an id outside its domain.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if columns.len() != schema.n_attributes() {
            return Err(DataError::SchemaMismatch(format!(
                "{} columns for {} attributes",
                columns.len(),
                schema.n_attributes()
            )));
        }
        let n_rows = columns.first().map_or(0, Column::len);
        for (i, col) in columns.iter().enumerate() {
            if col.len() != n_rows {
                return Err(DataError::SchemaMismatch(format!(
                    "column {i} has {} rows, expected {n_rows}",
                    col.len()
                )));
            }
            let attr = schema.attribute(i);
            match (attr.kind(), col) {
                (AttrKind::Categorical, Column::Categorical(ids)) => {
                    let card = attr.cardinality() as ValueId;
                    if let Some(&bad) = ids.iter().find(|&&v| v >= card) {
                        return Err(DataError::UnknownValue {
                            attribute: attr.name().to_owned(),
                            value: format!("id {bad} (domain size {card})"),
                        });
                    }
                }
                (AttrKind::Continuous, Column::Continuous(_)) => {}
                _ => {
                    return Err(DataError::SchemaMismatch(format!(
                        "column {i} kind does not match attribute {:?}",
                        attr.name()
                    )));
                }
            }
        }
        Ok(Self {
            schema,
            columns: columns.into_iter().map(Arc::new).collect(),
            n_rows,
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of data records.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Whether the dataset has no records.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Column for attribute `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// All columns in schema order.
    pub fn columns(&self) -> impl Iterator<Item = &Column> {
        self.columns.iter().map(Arc::as_ref)
    }

    /// The class column's value ids.
    pub fn class_values(&self) -> &[ValueId] {
        self.columns[self.schema.class_index()]
            .as_categorical()
            .expect("class attribute is categorical by construction")
    }

    /// Categorical ids of attribute `idx`.
    ///
    /// # Errors
    /// Fails if the attribute is continuous.
    pub fn categorical(&self, idx: usize) -> Result<&[ValueId]> {
        self.columns[idx].as_categorical().ok_or_else(|| {
            DataError::Invalid(format!(
                "attribute {:?} is continuous; discretize first",
                self.schema.attribute(idx).name()
            ))
        })
    }

    /// Whether every attribute is categorical (required for rule cubes).
    pub fn all_categorical(&self) -> bool {
        self.schema.attributes().iter().all(|a| a.is_categorical())
    }

    /// Count of records per class, indexed by class id.
    pub fn class_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.schema.n_classes()];
        for &c in self.class_values() {
            counts[c as usize] += 1;
        }
        counts
    }

    /// Count of records per value of categorical attribute `idx`.
    ///
    /// # Errors
    /// Fails if the attribute is continuous.
    pub fn value_counts(&self, idx: usize) -> Result<Vec<u64>> {
        let ids = self.categorical(idx)?;
        let mut counts = vec![0u64; self.schema.attribute(idx).cardinality()];
        for &v in ids {
            counts[v as usize] += 1;
        }
        Ok(counts)
    }

    /// New dataset containing exactly the given rows (duplicates allowed,
    /// order preserved).
    ///
    /// # Errors
    /// Fails if any row index is out of range.
    pub fn take_rows(&self, rows: &[usize]) -> Result<Dataset> {
        if let Some(&bad) = rows.iter().find(|&&r| r >= self.n_rows) {
            return Err(DataError::Invalid(format!(
                "row index {bad} out of range ({} rows)",
                self.n_rows
            )));
        }
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.take_rows(rows)))
            .collect();
        Ok(Dataset {
            schema: self.schema.clone(),
            columns,
            n_rows: rows.len(),
        })
    }

    /// The sub-population `D_j = { d in D | A_i(d) = v }` of Section III-C.
    ///
    /// # Errors
    /// Fails if the attribute is continuous or the value id out of range.
    pub fn sub_population(&self, attr: usize, value: ValueId) -> Result<Dataset> {
        self.schema.check_condition(attr, value)?;
        let ids = self.categorical(attr)?;
        let rows: Vec<usize> = ids
            .iter()
            .enumerate()
            .filter_map(|(r, &v)| (v == value).then_some(r))
            .collect();
        self.take_rows(&rows)
    }

    /// Concatenate another dataset with an identical schema.
    ///
    /// # Errors
    /// Fails on schema mismatch.
    pub fn append(&mut self, other: &Dataset) -> Result<()> {
        if self.schema != other.schema {
            return Err(DataError::SchemaMismatch(
                "cannot append dataset with a different schema".into(),
            ));
        }
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            Arc::make_mut(a).extend_from(b);
        }
        self.n_rows += other.n_rows;
        Ok(())
    }

    /// Replace the schema+columns of one attribute (used by discretization).
    pub(crate) fn replace_attribute(
        &mut self,
        idx: usize,
        attr: crate::schema::Attribute,
        col: Column,
    ) -> Result<()> {
        if col.len() != self.n_rows {
            return Err(DataError::SchemaMismatch(format!(
                "replacement column has {} rows, expected {}",
                col.len(),
                self.n_rows
            )));
        }
        *self.schema.attribute_mut(idx) = attr;
        self.columns[idx] = Arc::new(col);
        Ok(())
    }
}

/// Public hook for `om-discretize` to swap a continuous attribute for its
/// discretized categorical version without rebuilding the whole dataset.
pub fn replace_attribute(
    ds: &mut Dataset,
    idx: usize,
    attr: crate::schema::Attribute,
    col: Column,
) -> Result<()> {
    ds.replace_attribute(idx, attr, col)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Domain};

    fn toy() -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::categorical("Phone", Domain::from_labels(["ph1", "ph2"])),
                Attribute::categorical("Time", Domain::from_labels(["am", "pm"])),
                Attribute::categorical("Class", Domain::from_labels(["ok", "drop"])),
            ],
            2,
        )
        .unwrap();
        Dataset::from_columns(
            schema,
            vec![
                Column::Categorical(vec![0, 0, 1, 1, 1]),
                Column::Categorical(vec![0, 1, 0, 1, 0]),
                Column::Categorical(vec![0, 0, 1, 0, 1]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let ds = toy();
        assert_eq!(ds.n_rows(), 5);
        assert!(!ds.is_empty());
        assert!(ds.all_categorical());
        assert_eq!(ds.class_values(), &[0, 0, 1, 0, 1]);
        assert_eq!(ds.class_counts(), vec![3, 2]);
        assert_eq!(ds.value_counts(0).unwrap(), vec![2, 3]);
    }

    #[test]
    fn sub_population_filters() {
        let ds = toy();
        let d2 = ds.sub_population(0, 1).unwrap();
        assert_eq!(d2.n_rows(), 3);
        assert_eq!(d2.class_counts(), vec![1, 2]);
        // Sub-population keeps the full schema/domains.
        assert_eq!(d2.schema().n_classes(), 2);
    }

    #[test]
    fn sub_population_rejects_bad_value() {
        let ds = toy();
        assert!(ds.sub_population(0, 7).is_err());
        assert!(matches!(
            ds.sub_population(99, 0),
            Err(DataError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn take_rows_duplicates_and_bounds() {
        let ds = toy();
        let t = ds.take_rows(&[0, 0, 4]).unwrap();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.class_values(), &[0, 0, 1]);
        assert!(ds.take_rows(&[99]).is_err());
    }

    #[test]
    fn append_merges_rows() {
        let mut a = toy();
        let b = toy();
        a.append(&b).unwrap();
        assert_eq!(a.n_rows(), 10);
        assert_eq!(a.class_counts(), vec![6, 4]);
    }

    /// Whether column `idx` of `a` and `b` is one buffer, not two equal
    /// ones. (A clone cannot serve as a pre-image in these tests — it
    /// would share a wrongly mutated buffer — so they compare against a
    /// second `toy()`.)
    fn shared(a: &Dataset, b: &Dataset, idx: usize) -> bool {
        std::ptr::eq(a.column(idx), b.column(idx))
    }

    #[test]
    fn clone_shares_every_column_buffer() {
        let a = toy();
        let b = a.clone();
        for i in 0..a.schema().n_attributes() {
            assert_eq!(
                a.categorical(i).unwrap().as_ptr(),
                b.categorical(i).unwrap().as_ptr(),
                "column {i} was copied"
            );
        }
    }

    #[test]
    fn append_to_a_clone_leaves_the_source_untouched() {
        let source = toy();
        let mut grown = source.clone();
        grown.append(&source).unwrap();
        assert_eq!(grown.n_rows(), 10);
        assert_eq!(source, toy());
        assert!((0..3).all(|i| !shared(&source, &grown, i)));
    }

    #[test]
    fn replace_attribute_on_a_clone_swaps_one_column() {
        let source = toy();
        let mut edited = source.clone();
        let attr = Attribute::categorical("Time", Domain::from_labels(["day"]));
        replace_attribute(&mut edited, 1, attr, Column::Categorical(vec![0; 5])).unwrap();
        assert_eq!(source, toy());
        assert_eq!(edited.schema().attribute(1).cardinality(), 1);
        assert!(!shared(&source, &edited, 1));
        assert!(shared(&source, &edited, 0) && shared(&source, &edited, 2));
    }

    #[test]
    fn collapse_all_on_a_clone_rewrites_only_what_it_collapses() {
        let source = toy();
        let mut collapsed = source.clone();
        // Phone: ph1 x2, ph2 x3; Time: am x3, pm x2 — a threshold of 3
        // collapses one value of each.
        crate::collapse::collapse_all(&mut collapsed, 3).unwrap();
        assert_eq!(source, toy());
        assert!(!shared(&source, &collapsed, 0) && !shared(&source, &collapsed, 1));
        assert!(
            shared(&source, &collapsed, 2),
            "the class column is never rewritten"
        );
        // Nothing falls under a threshold of 1: every column stays shared.
        let mut kept = source.clone();
        crate::collapse::collapse_all(&mut kept, 1).unwrap();
        assert!((0..3).all(|i| shared(&source, &kept, i)));
    }

    #[test]
    fn from_columns_validates() {
        let schema = Schema::new(
            vec![
                Attribute::categorical("A", Domain::from_labels(["x"])),
                Attribute::categorical("C", Domain::from_labels(["y"])),
            ],
            1,
        )
        .unwrap();
        // Wrong column count.
        assert!(Dataset::from_columns(schema.clone(), vec![]).is_err());
        // Length mismatch.
        assert!(Dataset::from_columns(
            schema.clone(),
            vec![
                Column::Categorical(vec![0, 0]),
                Column::Categorical(vec![0]),
            ]
        )
        .is_err());
        // Out-of-domain id.
        assert!(Dataset::from_columns(
            schema.clone(),
            vec![Column::Categorical(vec![5]), Column::Categorical(vec![0])]
        )
        .is_err());
        // Kind mismatch.
        assert!(Dataset::from_columns(
            schema,
            vec![Column::Continuous(vec![0.5]), Column::Categorical(vec![0])]
        )
        .is_err());
    }

    #[test]
    fn empty_dataset() {
        let schema = Schema::new(
            vec![Attribute::categorical("C", Domain::from_labels(["a", "b"]))],
            0,
        )
        .unwrap();
        let ds = Dataset::from_columns(schema, vec![Column::Categorical(vec![])]).unwrap();
        assert!(ds.is_empty());
        assert_eq!(ds.class_counts(), vec![0, 0]);
    }

    #[test]
    fn categorical_access_on_continuous_fails() {
        let schema = Schema::new(
            vec![
                Attribute::continuous("X"),
                Attribute::categorical("C", Domain::from_labels(["a"])),
            ],
            1,
        )
        .unwrap();
        let ds = Dataset::from_columns(
            schema,
            vec![Column::Continuous(vec![1.0]), Column::Categorical(vec![0])],
        )
        .unwrap();
        assert!(ds.categorical(0).is_err());
        assert!(!ds.all_categorical());
        assert!(ds.value_counts(0).is_err());
    }
}
