//! Columnar value storage.

use crate::schema::ValueId;

/// One column of a dataset: either interned categorical ids or raw `f64`s.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Categorical(Vec<ValueId>),
    Continuous(Vec<f64>),
}

impl Column {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Categorical(v) => v.len(),
            Column::Continuous(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The categorical ids, if this is a categorical column.
    pub fn as_categorical(&self) -> Option<&[ValueId]> {
        match self {
            Column::Categorical(v) => Some(v),
            Column::Continuous(_) => None,
        }
    }

    /// The continuous values, if this is a continuous column.
    pub fn as_continuous(&self) -> Option<&[f64]> {
        match self {
            Column::Continuous(v) => Some(v),
            Column::Categorical(_) => None,
        }
    }

    /// A new column of the same kind containing only the given rows.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn take_rows(&self, rows: &[usize]) -> Column {
        match self {
            Column::Categorical(v) => Column::Categorical(rows.iter().map(|&r| v[r]).collect()),
            Column::Continuous(v) => Column::Continuous(rows.iter().map(|&r| v[r]).collect()),
        }
    }

    /// Append all rows of `other` (must be the same kind).
    ///
    /// # Panics
    /// Panics on kind mismatch.
    pub fn extend_from(&mut self, other: &Column) {
        match (self, other) {
            (Column::Categorical(a), Column::Categorical(b)) => a.extend_from_slice(b),
            (Column::Continuous(a), Column::Continuous(b)) => a.extend_from_slice(b),
            _ => panic!("column kind mismatch in extend_from"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let c = Column::Categorical(vec![0, 1, 2]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.as_categorical(), Some(&[0u32, 1, 2][..]));
        assert!(c.as_continuous().is_none());

        let c = Column::Continuous(vec![1.5]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.as_continuous(), Some(&[1.5][..]));
        assert!(c.as_categorical().is_none());
    }

    #[test]
    fn take_rows_selects_and_reorders() {
        let c = Column::Categorical(vec![10, 20, 30, 40]);
        let t = c.take_rows(&[3, 1, 1]);
        assert_eq!(t.as_categorical(), Some(&[40u32, 20, 20][..]));
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = Column::Continuous(vec![1.0]);
        a.extend_from(&Column::Continuous(vec![2.0, 3.0]));
        assert_eq!(a.as_continuous(), Some(&[1.0, 2.0, 3.0][..]));
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn extend_from_rejects_mixed_kinds() {
        let mut a = Column::Continuous(vec![1.0]);
        a.extend_from(&Column::Categorical(vec![1]));
    }

    #[test]
    fn empty_column() {
        let c = Column::Categorical(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.take_rows(&[]).len(), 0);
    }
}
