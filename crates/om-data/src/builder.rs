//! Row-at-a-time dataset construction with automatic value interning.

use crate::column::Column;
use crate::dataset::Dataset;
use crate::error::{DataError, Result};
use crate::schema::{AttrKind, Attribute, Schema, ValueId};

/// One cell of an input row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell<'a> {
    /// A categorical label; interned into the attribute's domain.
    Str(&'a str),
    /// A continuous value.
    Num(f64),
}

enum ColBuf {
    Cat(Vec<ValueId>),
    Cont(Vec<f64>),
}

/// Builds a [`Dataset`] row by row.
///
/// Attribute kinds are fixed up front; categorical domains grow as new
/// labels are seen. The class attribute is designated by name.
///
/// ```
/// use om_data::{Cell, DatasetBuilder};
///
/// let mut b = DatasetBuilder::new()
///     .categorical("PhoneModel")
///     .continuous("SignalStrength")
///     .class("Outcome");
/// b.push_row(&[Cell::Str("ph1"), Cell::Num(-70.0), Cell::Str("ok")]).unwrap();
/// b.push_row(&[Cell::Str("ph2"), Cell::Num(-92.0), Cell::Str("drop")]).unwrap();
/// let ds = b.finish().unwrap();
/// assert_eq!(ds.n_rows(), 2);
/// assert_eq!(ds.class_counts(), vec![1, 1]);
/// ```
pub struct DatasetBuilder {
    attrs: Vec<Attribute>,
    class_idx: Option<usize>,
    cols: Vec<ColBuf>,
}

impl DatasetBuilder {
    /// Start a builder with no attributes.
    pub fn new() -> Self {
        Self {
            attrs: Vec::new(),
            class_idx: None,
            cols: Vec::new(),
        }
    }

    /// Add a categorical attribute.
    pub fn categorical(mut self, name: &str) -> Self {
        self.attrs
            .push(Attribute::categorical(name, crate::schema::Domain::new()));
        self.cols.push(ColBuf::Cat(Vec::new()));
        self
    }

    /// Add a continuous attribute.
    pub fn continuous(mut self, name: &str) -> Self {
        self.attrs.push(Attribute::continuous(name));
        self.cols.push(ColBuf::Cont(Vec::new()));
        self
    }

    /// Add the (categorical) class attribute.
    pub fn class(mut self, name: &str) -> Self {
        self.class_idx = Some(self.attrs.len());
        self.attrs
            .push(Attribute::categorical(name, crate::schema::Domain::new()));
        self.cols.push(ColBuf::Cat(Vec::new()));
        self
    }

    /// Append one row.
    ///
    /// # Errors
    /// Fails on arity or kind mismatch.
    pub fn push_row(&mut self, cells: &[Cell<'_>]) -> Result<()> {
        if cells.len() != self.attrs.len() {
            return Err(DataError::SchemaMismatch(format!(
                "row has {} cells, schema has {} attributes",
                cells.len(),
                self.attrs.len()
            )));
        }
        for ((attr, buf), cell) in self.attrs.iter_mut().zip(&mut self.cols).zip(cells) {
            match (attr.kind(), buf, cell) {
                (AttrKind::Categorical, ColBuf::Cat(v), Cell::Str(s)) => {
                    v.push(attr.domain_mut().intern(s));
                }
                (AttrKind::Continuous, ColBuf::Cont(v), Cell::Num(x)) => v.push(*x),
                _ => {
                    return Err(DataError::SchemaMismatch(format!(
                        "cell kind does not match attribute {:?}",
                        attr.name()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Number of rows pushed so far.
    pub fn n_rows(&self) -> usize {
        self.cols.first().map_or(0, |c| match c {
            ColBuf::Cat(v) => v.len(),
            ColBuf::Cont(v) => v.len(),
        })
    }

    /// Finish building.
    ///
    /// # Errors
    /// Fails if no class attribute was declared.
    pub fn finish(self) -> Result<Dataset> {
        let class_idx = self
            .class_idx
            .ok_or_else(|| DataError::Invalid("no class attribute declared".into()))?;
        let schema = Schema::new(self.attrs, class_idx)?;
        let columns = self
            .cols
            .into_iter()
            .map(|c| match c {
                ColBuf::Cat(v) => Column::Categorical(v),
                ColBuf::Cont(v) => Column::Continuous(v),
            })
            .collect();
        Dataset::from_columns(schema, columns)
    }
}

impl Default for DatasetBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_mixed_dataset() {
        let mut b = DatasetBuilder::new()
            .categorical("Phone")
            .continuous("Signal")
            .class("Outcome");
        b.push_row(&[Cell::Str("ph1"), Cell::Num(-70.0), Cell::Str("ok")])
            .unwrap();
        b.push_row(&[Cell::Str("ph2"), Cell::Num(-90.5), Cell::Str("drop")])
            .unwrap();
        b.push_row(&[Cell::Str("ph1"), Cell::Num(-60.0), Cell::Str("ok")])
            .unwrap();
        assert_eq!(b.n_rows(), 3);
        let ds = b.finish().unwrap();
        assert_eq!(ds.n_rows(), 3);
        assert_eq!(ds.schema().class().name(), "Outcome");
        assert_eq!(ds.schema().attribute(0).cardinality(), 2);
        assert_eq!(ds.class_counts(), vec![2, 1]);
        assert_eq!(
            ds.column(1).as_continuous().unwrap(),
            &[-70.0, -90.5, -60.0]
        );
    }

    #[test]
    fn rejects_arity_mismatch() {
        let mut b = DatasetBuilder::new().categorical("A").class("C");
        assert!(b.push_row(&[Cell::Str("x")]).is_err());
    }

    #[test]
    fn rejects_kind_mismatch() {
        let mut b = DatasetBuilder::new().continuous("X").class("C");
        assert!(b.push_row(&[Cell::Str("oops"), Cell::Str("c")]).is_err());
    }

    #[test]
    fn rejects_missing_class() {
        let b = DatasetBuilder::new().categorical("A");
        assert!(b.finish().is_err());
    }

    #[test]
    fn empty_build_ok() {
        let ds = DatasetBuilder::new().categorical("A").class("C").finish();
        // Empty domains are allowed; the dataset simply has no rows.
        assert_eq!(ds.unwrap().n_rows(), 0);
    }
}
