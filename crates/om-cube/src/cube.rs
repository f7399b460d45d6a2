//! The rule-cube data structure.

use std::fmt;
use std::sync::Arc;

use om_data::{Schema, ValueId};
use om_fault::FaultError;

/// Errors produced by cube operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CubeError {
    /// Cell coordinates had the wrong arity.
    Arity { expected: usize, got: usize },
    /// A coordinate was outside its dimension.
    OutOfRange {
        dim: String,
        value: u32,
        card: usize,
    },
    /// A referenced dimension does not exist.
    NoSuchDim(String),
    /// The operation's preconditions were violated.
    Invalid(String),
    /// The operation ran out of budget or was cancelled mid-flight.
    Fault(FaultError),
}

impl fmt::Display for CubeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CubeError::Arity { expected, got } => {
                write!(f, "expected {expected} coordinates, got {got}")
            }
            CubeError::OutOfRange { dim, value, card } => {
                write!(
                    f,
                    "value {value} out of range for dimension {dim} (cardinality {card})"
                )
            }
            CubeError::NoSuchDim(d) => write!(f, "no such dimension: {d}"),
            CubeError::Invalid(msg) => write!(f, "invalid cube operation: {msg}"),
            CubeError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CubeError {}

impl From<FaultError> for CubeError {
    fn from(e: FaultError) -> Self {
        CubeError::Fault(e)
    }
}

/// One non-class dimension of a rule cube: which attribute it came from and
/// the value labels, making cubes self-contained for visualization.
///
/// The name and labels sit behind `Arc`s, so every cube over an attribute
/// can share one copy of them: a store's builders, its codec and the
/// OLAP operations clone the `Arc`s, and copy no label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeDim {
    /// Index of the attribute in the originating dataset's schema.
    pub attr_index: usize,
    /// Attribute name.
    pub name: Arc<str>,
    /// Value labels in id order.
    pub labels: Arc<[String]>,
}

impl CubeDim {
    /// Build a dimension from a schema attribute.
    ///
    /// # Panics
    /// Panics if the attribute is continuous (discretize first).
    pub fn from_schema(schema: &Schema, attr_index: usize) -> Self {
        let attr = schema.attribute(attr_index);
        assert!(
            attr.is_categorical(),
            "cube dimension {:?} must be categorical",
            attr.name()
        );
        Self {
            attr_index,
            name: attr.name().into(),
            labels: attr.domain().labels().into(),
        }
    }

    /// Number of values.
    pub fn cardinality(&self) -> usize {
        self.labels.len()
    }
}

/// The labels every cube of one build shares: each analysis attribute's
/// [`CubeDim`], made once from the schema, and the class labels. A cube
/// made here clones their `Arc`s, so a store of `n` attributes holds one
/// copy of each label however many of its `n·(n+1)/2` cubes name it.
pub(crate) struct SchemaDims {
    /// By schema index; `None` for an attribute outside the build.
    dims: Vec<Option<CubeDim>>,
    class_labels: Arc<[String]>,
}

impl SchemaDims {
    /// The dimensions of `attrs` and the class labels of `schema`.
    ///
    /// # Panics
    /// Panics if an attribute of `attrs` is continuous or outside the
    /// schema (resolve the attribute list first).
    pub(crate) fn new(schema: &Schema, attrs: &[usize]) -> Self {
        let mut dims = vec![None; schema.n_attributes()];
        for &a in attrs {
            dims[a] = Some(CubeDim::from_schema(schema, a));
        }
        Self {
            dims,
            class_labels: schema.class().domain().labels().into(),
        }
    }

    /// The class labels every cube of the build shares.
    pub(crate) fn class_labels(&self) -> &Arc<[String]> {
        &self.class_labels
    }

    /// An all-zero cube over the attributes `over`, sharing the labels.
    ///
    /// # Errors
    /// [`CubeError::NoSuchDim`] for an attribute outside the build.
    pub(crate) fn cube(&self, over: &[usize]) -> Result<RuleCube, CubeError> {
        let dims = over
            .iter()
            .map(|&a| {
                self.dims
                    .get(a)
                    .and_then(Option::clone)
                    .ok_or_else(|| CubeError::NoSuchDim(format!("attribute index {a}")))
            })
            .collect::<Result<_, _>>()?;
        Ok(RuleCube::new(dims, Arc::clone(&self.class_labels)))
    }
}

/// A `p + 1`-dimensional rule cube: `p` attribute dimensions plus the class
/// dimension (always last, always present — per the paper, "for each cube,
/// one of the dimensions is always the class attribute").
///
/// `counts` is a dense row-major tensor with the class index fastest:
/// `counts[((v_0 * card_1 + v_1) * … ) * n_classes + c]`.
///
/// The labels and strides never change after construction, so they sit
/// behind `Arc`s: a clone — the copy-on-write copy a compaction makes of
/// a cube a published snapshot still pins — allocates the counts only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleCube {
    dims: Arc<[CubeDim]>,
    class_labels: Arc<[String]>,
    counts: Vec<u64>,
    /// Cached strides for each attribute dimension (class stride is 1).
    strides: Arc<[usize]>,
    total: u64,
}

impl RuleCube {
    /// An all-zero cube over the given dimensions and class labels. Pass
    /// an `Arc<[String]>` to share the class labels with other cubes; a
    /// `Vec<String>` becomes this cube's own copy.
    ///
    /// # Panics
    /// Panics if any dimension or the class has zero cardinality, or if the
    /// tensor would overflow `usize`.
    pub fn new(dims: Vec<CubeDim>, class_labels: impl Into<Arc<[String]>>) -> Self {
        let class_labels: Arc<[String]> = class_labels.into();
        assert!(!class_labels.is_empty(), "cube needs at least one class");
        for d in &dims {
            assert!(
                d.cardinality() > 0,
                "cube dimension {:?} has no values",
                d.name
            );
        }
        let mut size = class_labels.len();
        for d in &dims {
            size = size
                .checked_mul(d.cardinality())
                .expect("cube size overflows usize");
        }
        let mut strides = vec![0usize; dims.len()];
        let mut acc = class_labels.len();
        for (i, d) in dims.iter().enumerate().rev() {
            strides[i] = acc;
            acc *= d.cardinality();
        }
        Self {
            dims: dims.into(),
            class_labels,
            counts: vec![0; size],
            strides: strides.into(),
            total: 0,
        }
    }

    /// Attribute dimensions (class excluded).
    pub fn dims(&self) -> &[CubeDim] {
        &self.dims
    }

    /// Number of attribute dimensions (`p`; the cube is `p + 1`-dimensional).
    pub fn n_attr_dims(&self) -> usize {
        self.dims.len()
    }

    /// Class labels in id order.
    pub fn class_labels(&self) -> &[String] {
        &self.class_labels
    }

    /// The class labels' `Arc`, for a cube derived from this one to share.
    pub(crate) fn shared_class_labels(&self) -> &Arc<[String]> {
        &self.class_labels
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class_labels.len()
    }

    /// Total number of records counted into the cube.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of cells (including the class dimension).
    pub fn n_cells(&self) -> usize {
        self.counts.len()
    }

    /// Number of rules represented (= number of cells; the paper's Fig. 1
    /// example: 3 × 4 × 2 = 24 rules).
    pub fn n_rules(&self) -> usize {
        self.counts.len()
    }

    /// Raw flat offset for coordinates; validates arity and ranges.
    fn offset(&self, values: &[ValueId], class: ValueId) -> Result<usize, CubeError> {
        if values.len() != self.dims.len() {
            return Err(CubeError::Arity {
                expected: self.dims.len(),
                got: values.len(),
            });
        }
        let mut off = 0usize;
        for ((&v, d), &s) in values.iter().zip(self.dims.iter()).zip(self.strides.iter()) {
            if v as usize >= d.cardinality() {
                return Err(CubeError::OutOfRange {
                    dim: d.name.to_string(),
                    value: v,
                    card: d.cardinality(),
                });
            }
            off += v as usize * s;
        }
        if class as usize >= self.class_labels.len() {
            return Err(CubeError::OutOfRange {
                dim: "class".into(),
                value: class,
                card: self.class_labels.len(),
            });
        }
        Ok(off + class as usize)
    }

    /// Support count of the rule `values → class`.
    pub fn count(&self, values: &[ValueId], class: ValueId) -> Result<u64, CubeError> {
        Ok(self.counts[self.offset(values, class)?])
    }

    /// Sum of counts over all classes for a cell (`sup(values)`).
    pub fn cell_total(&self, values: &[ValueId]) -> Result<u64, CubeError> {
        let base = self.offset(values, 0)?;
        Ok(self.counts[base..base + self.n_classes()].iter().sum())
    }

    /// Add `inc` records to the rule `values → class`.
    pub fn add(&mut self, values: &[ValueId], class: ValueId, inc: u64) -> Result<(), CubeError> {
        let off = self.offset(values, class)?;
        self.counts[off] += inc;
        self.total += inc;
        Ok(())
    }

    /// Unchecked fast-path add used by the kernel's masked scan, once per
    /// row and cube. `#[inline]` keeps it inlined into that loop whatever
    /// codegen unit the two land in. Without it the masked scan measured
    /// 5–8 % slower (release build, 2-core x86-64).
    ///
    /// # Safety
    /// `flat` must be a valid flat offset.
    #[inline]
    pub(crate) fn add_flat(&mut self, flat: usize, inc: u64) {
        self.counts[flat] += inc;
        self.total += inc;
    }

    pub(crate) fn strides(&self) -> &[usize] {
        &self.strides
    }

    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }

    pub(crate) fn counts_mut(&mut self) -> &mut [u64] {
        &mut self.counts
    }

    pub(crate) fn set_total(&mut self, total: u64) {
        self.total = total;
    }

    /// Support of the rule `values → class` as a fraction of all records.
    ///
    /// The paper's Fig. 1 example: `A1=a, A2=e → C=yes` has support
    /// `100 / 1158`.
    pub fn support(&self, values: &[ValueId], class: ValueId) -> Result<f64, CubeError> {
        if self.total == 0 {
            return Ok(0.0);
        }
        Ok(self.count(values, class)? as f64 / self.total as f64)
    }

    /// Confidence of the rule `values → class` per Eq. (1):
    /// `sup(values, class) / Σ_j sup(values, c_j)`.
    ///
    /// Returns `None` for an empty cell (the paper visualizes such rules
    /// with confidence 0 but the distinction matters for the comparator's
    /// property-attribute detection).
    pub fn confidence(&self, values: &[ValueId], class: ValueId) -> Result<Option<f64>, CubeError> {
        let denom = self.cell_total(values)?;
        if denom == 0 {
            return Ok(None);
        }
        Ok(Some(self.count(values, class)? as f64 / denom as f64))
    }

    /// Marginal counts over the class dimension only.
    pub fn class_margin(&self) -> Vec<u64> {
        let c = self.n_classes();
        let mut out = vec![0u64; c];
        for chunk in self.counts.chunks_exact(c) {
            for (o, &v) in out.iter_mut().zip(chunk) {
                *o += v;
            }
        }
        out
    }

    /// Iterate all cells as `(coordinates, class, count)`.
    pub fn iter_cells(&self) -> impl Iterator<Item = (Vec<ValueId>, ValueId, u64)> + '_ {
        let cards: Vec<usize> = self.dims.iter().map(CubeDim::cardinality).collect();
        let n_classes = self.n_classes();
        self.counts.iter().enumerate().map(move |(flat, &count)| {
            let mut rest = flat;
            let class = (rest % n_classes) as ValueId;
            rest /= n_classes;
            let mut coords = vec![0 as ValueId; cards.len()];
            for (i, &card) in cards.iter().enumerate().rev() {
                coords[i] = (rest % card) as ValueId;
                rest /= card;
            }
            (coords, class, count)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact rule cube of the paper's Fig. 1: attributes A1 (a,b,c,d)
    /// and A2 (e,f,g), class C (yes,no), 1158 data points. Only the two
    /// cells used in the text are pinned; the rest of the mass is placed in
    /// one corner to reach the paper's total.
    fn fig1_cube() -> RuleCube {
        let dims = vec![
            CubeDim {
                attr_index: 0,
                name: "A1".into(),
                labels: vec!["a".into(), "b".into(), "c".into(), "d".into()].into(),
            },
            CubeDim {
                attr_index: 1,
                name: "A2".into(),
                labels: vec!["e".into(), "f".into(), "g".into()].into(),
            },
        ];
        let mut cube = RuleCube::new(dims, vec!["yes".into(), "no".into()]);
        // Paper: rule (A1=a, A2=e -> C=yes) support 100/1158, confidence 100/150.
        cube.add(&[0, 0], 0, 100).unwrap();
        cube.add(&[0, 0], 1, 50).unwrap();
        // Paper: rule (A1=a, A2=f -> C=yes) support 0, confidence 0.
        cube.add(&[0, 1], 1, 8).unwrap();
        // Fill the remaining mass elsewhere.
        cube.add(&[3, 2], 0, 1000).unwrap();
        cube
    }

    #[test]
    fn fig1_example() {
        let cube = fig1_cube();
        assert_eq!(cube.n_rules(), 24, "3 values x 4 values x 2 classes");
        assert_eq!(cube.total(), 1158);
        // Support 100/1158.
        let sup = cube.support(&[0, 0], 0).unwrap();
        assert!((sup - 100.0 / 1158.0).abs() < 1e-12);
        // Confidence 100/(100+50).
        let conf = cube.confidence(&[0, 0], 0).unwrap().unwrap();
        assert!((conf - 100.0 / 150.0).abs() < 1e-12);
        // (a, f -> yes): support 0, confidence 0 (cell non-empty via "no").
        assert_eq!(cube.count(&[0, 1], 0).unwrap(), 0);
        assert_eq!(cube.confidence(&[0, 1], 0).unwrap(), Some(0.0));
        // A completely empty cell has no confidence.
        assert_eq!(cube.confidence(&[1, 1], 0).unwrap(), None);
    }

    #[test]
    fn a_clone_shares_its_labels_and_copies_its_counts() {
        let cube = fig1_cube();
        let mut copy = cube.clone();
        assert!(std::ptr::eq(copy.dims().as_ptr(), cube.dims().as_ptr()));
        assert!(std::ptr::eq(
            copy.class_labels().as_ptr(),
            cube.class_labels().as_ptr()
        ));
        assert!(!std::ptr::eq(
            copy.counts().as_ptr(),
            cube.counts().as_ptr()
        ));
        copy.add(&[0, 0], 0, 1).unwrap();
        assert_eq!(cube.count(&[0, 0], 0).unwrap(), 100);
        assert_eq!(copy.count(&[0, 0], 0).unwrap(), 101);
    }

    #[test]
    fn class_margin_sums() {
        let cube = fig1_cube();
        assert_eq!(cube.class_margin(), vec![1100, 58]);
    }

    #[test]
    fn arity_and_range_checked() {
        let cube = fig1_cube();
        assert!(matches!(
            cube.count(&[0], 0),
            Err(CubeError::Arity {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            cube.count(&[9, 0], 0),
            Err(CubeError::OutOfRange { .. })
        ));
        assert!(matches!(
            cube.count(&[0, 0], 9),
            Err(CubeError::OutOfRange { .. })
        ));
    }

    #[test]
    fn iter_cells_round_trips_counts() {
        let cube = fig1_cube();
        let mut total = 0u64;
        for (coords, class, count) in cube.iter_cells() {
            assert_eq!(cube.count(&coords, class).unwrap(), count);
            total += count;
        }
        assert_eq!(total, cube.total());
        assert_eq!(cube.iter_cells().count(), 24);
    }

    #[test]
    fn one_dim_cube() {
        let dim = CubeDim {
            attr_index: 0,
            name: "X".into(),
            labels: vec!["p".into(), "q".into()].into(),
        };
        let mut cube = RuleCube::new(vec![dim], vec!["y".into(), "n".into()]);
        cube.add(&[0], 0, 3).unwrap();
        cube.add(&[1], 1, 7).unwrap();
        assert_eq!(cube.cell_total(&[0]).unwrap(), 3);
        assert_eq!(cube.cell_total(&[1]).unwrap(), 7);
        assert_eq!(cube.confidence(&[1], 1).unwrap(), Some(1.0));
    }

    #[test]
    fn zero_dim_cube_is_class_histogram() {
        let mut cube = RuleCube::new(vec![], vec!["y".into(), "n".into()]);
        cube.add(&[], 0, 5).unwrap();
        cube.add(&[], 1, 15).unwrap();
        assert_eq!(cube.n_rules(), 2);
        assert_eq!(cube.confidence(&[], 0).unwrap(), Some(0.25));
        assert_eq!(cube.class_margin(), vec![5, 15]);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn rejects_empty_class() {
        RuleCube::new(vec![], Vec::new());
    }

    #[test]
    #[should_panic(expected = "has no values")]
    fn rejects_empty_dim() {
        let dim = CubeDim {
            attr_index: 0,
            name: "X".into(),
            labels: Vec::new().into(),
        };
        RuleCube::new(vec![dim], vec!["y".into()]);
    }

    #[test]
    fn error_display() {
        let e = CubeError::Arity {
            expected: 2,
            got: 1,
        };
        assert!(e.to_string().contains("expected 2"));
        let e = CubeError::OutOfRange {
            dim: "X".into(),
            value: 9,
            card: 2,
        };
        assert!(e.to_string().contains("out of range"));
    }
}
