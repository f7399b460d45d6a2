//! Attribute metadata: kinds, value dictionaries, and the dataset schema.
//!
//! All categorical values are interned into per-attribute [`Domain`]
//! dictionaries so that columns store dense `u32` ids. Rule cubes (in
//! `om-cube`) index their count tensors directly with these ids, which is
//! what makes the paper's min-sup = 0 "no holes" representation cheap.

use std::collections::HashMap;

use crate::error::{DataError, Result};

/// Dense id of a categorical value within its attribute's [`Domain`].
pub type ValueId = u32;

/// A per-attribute dictionary mapping value labels to dense ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Domain {
    labels: Vec<String>,
    index: HashMap<String, ValueId>,
}

impl Domain {
    /// An empty domain.
    pub fn new() -> Self {
        Self::default()
    }

    /// A domain pre-populated with `labels`, ids assigned in order.
    ///
    /// # Panics
    /// Panics if `labels` contains duplicates.
    pub fn from_labels<I, S>(labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut d = Self::new();
        for l in labels {
            let l = l.into();
            assert!(!d.index.contains_key(&l), "duplicate label {l:?} in domain");
            d.intern(&l);
        }
        d
    }

    /// Id for `label`, interning it if new.
    pub fn intern(&mut self, label: &str) -> ValueId {
        if let Some(&id) = self.index.get(label) {
            return id;
        }
        let id = self.labels.len() as ValueId;
        self.labels.push(label.to_owned());
        self.index.insert(label.to_owned(), id);
        id
    }

    /// Id for `label` if present.
    pub fn get(&self, label: &str) -> Option<ValueId> {
        self.index.get(label).copied()
    }

    /// Label for `id` if in range.
    pub fn label(&self, id: ValueId) -> Option<&str> {
        self.labels.get(id as usize).map(String::as_str)
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the domain has no values.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterate `(id, label)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &str)> {
        self.labels
            .iter()
            .enumerate()
            .map(|(i, l)| (i as ValueId, l.as_str()))
    }

    /// All labels in id order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }
}

/// Whether an attribute holds categorical ids or raw continuous values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrKind {
    Categorical,
    Continuous,
}

/// One attribute of a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    name: String,
    kind: AttrKind,
    domain: Domain,
}

impl Attribute {
    /// A categorical attribute with an (initially empty or given) domain.
    pub fn categorical(name: impl Into<String>, domain: Domain) -> Self {
        Self {
            name: name.into(),
            kind: AttrKind::Categorical,
            domain,
        }
    }

    /// A continuous attribute (empty domain; discretization assigns one).
    pub fn continuous(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            kind: AttrKind::Continuous,
            domain: Domain::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn kind(&self) -> AttrKind {
        self.kind
    }

    pub fn is_categorical(&self) -> bool {
        self.kind == AttrKind::Categorical
    }

    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    pub(crate) fn domain_mut(&mut self) -> &mut Domain {
        &mut self.domain
    }

    /// Number of distinct values (0 for continuous attributes).
    pub fn cardinality(&self) -> usize {
        self.domain.len()
    }
}

/// Dataset schema: ordered attributes plus the index of the class attribute.
///
/// The class attribute is the paper's target attribute ("one attribute
/// indicates the final disposition of the call"); it must be categorical.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    attributes: Vec<Attribute>,
    class_idx: usize,
}

impl Schema {
    /// Build a schema; `class_idx` designates the class attribute.
    ///
    /// # Errors
    /// Fails if `class_idx` is out of range, the class attribute is not
    /// categorical, or attribute names are not unique.
    pub fn new(attributes: Vec<Attribute>, class_idx: usize) -> Result<Self> {
        if class_idx >= attributes.len() {
            return Err(DataError::Invalid(format!(
                "class index {class_idx} out of range for {} attributes",
                attributes.len()
            )));
        }
        if !attributes[class_idx].is_categorical() {
            return Err(DataError::Invalid(format!(
                "class attribute {:?} must be categorical",
                attributes[class_idx].name()
            )));
        }
        let mut seen = HashMap::new();
        for (i, a) in attributes.iter().enumerate() {
            if let Some(prev) = seen.insert(a.name().to_owned(), i) {
                return Err(DataError::Invalid(format!(
                    "duplicate attribute name {:?} (positions {prev} and {i})",
                    a.name()
                )));
            }
        }
        Ok(Self {
            attributes,
            class_idx,
        })
    }

    /// All attributes, including the class.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Number of attributes, including the class.
    pub fn n_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Index of the class attribute.
    pub fn class_index(&self) -> usize {
        self.class_idx
    }

    /// The class attribute.
    pub fn class(&self) -> &Attribute {
        &self.attributes[self.class_idx]
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class().cardinality()
    }

    /// Attribute at `idx`.
    pub fn attribute(&self, idx: usize) -> &Attribute {
        &self.attributes[idx]
    }

    pub(crate) fn attribute_mut(&mut self, idx: usize) -> &mut Attribute {
        &mut self.attributes[idx]
    }

    /// Whether `attr = value` can condition a sub-population: `value`
    /// must be an id of the attribute's domain (a continuous attribute's
    /// domain is empty, so every value fails). Every conditioning path —
    /// the record walk, the counting kernel, the cluster coordinator —
    /// validates through here, so they fail with the same message.
    ///
    /// # Errors
    /// [`DataError::UnknownValue`] naming the attribute and the id;
    /// [`DataError::UnknownAttribute`] for an index past the schema
    /// (`/internal/count` and `/internal/level` take theirs off the wire).
    pub fn check_condition(&self, attr: usize, value: ValueId) -> Result<()> {
        let attribute = self
            .attributes
            .get(attr)
            .ok_or_else(|| DataError::UnknownAttribute(format!("index {attr}")))?;
        let card = attribute.cardinality() as ValueId;
        if value >= card {
            return Err(DataError::UnknownValue {
                attribute: attribute.name().to_owned(),
                value: format!("id {value} (domain size {card})"),
            });
        }
        Ok(())
    }

    /// Index of the attribute named `name`.
    pub fn attr_index(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name() == name)
    }

    /// Indices of all non-class attributes, in schema order.
    pub fn non_class_indices(&self) -> Vec<usize> {
        (0..self.attributes.len())
            .filter(|&i| i != self.class_idx)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Schema {
        Schema::new(
            vec![
                Attribute::categorical("PhoneModel", Domain::from_labels(["ph1", "ph2"])),
                Attribute::continuous("SignalStrength"),
                Attribute::categorical("Class", Domain::from_labels(["ok", "drop"])),
            ],
            2,
        )
        .unwrap()
    }

    #[test]
    fn domain_interning_is_stable() {
        let mut d = Domain::new();
        let a = d.intern("morning");
        let b = d.intern("afternoon");
        let a2 = d.intern("morning");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.label(a), Some("morning"));
        assert_eq!(d.get("afternoon"), Some(b));
        assert_eq!(d.get("evening"), None);
        assert_eq!(d.label(99), None);
    }

    #[test]
    fn domain_iter_in_id_order() {
        let d = Domain::from_labels(["a", "b", "c"]);
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs, vec![(0, "a"), (1, "b"), (2, "c")]);
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn domain_rejects_duplicates() {
        Domain::from_labels(["x", "x"]);
    }

    #[test]
    fn schema_accessors() {
        let s = sample_schema();
        assert_eq!(s.n_attributes(), 3);
        assert_eq!(s.class_index(), 2);
        assert_eq!(s.class().name(), "Class");
        assert_eq!(s.n_classes(), 2);
        assert_eq!(s.attr_index("PhoneModel"), Some(0));
        assert_eq!(s.attr_index("Nope"), None);
        assert_eq!(s.non_class_indices(), vec![0, 1]);
    }

    #[test]
    fn schema_rejects_continuous_class() {
        let r = Schema::new(
            vec![
                Attribute::continuous("X"),
                Attribute::categorical("C", Domain::new()),
            ],
            0,
        );
        assert!(r.is_err());
    }

    #[test]
    fn schema_rejects_out_of_range_class() {
        let r = Schema::new(vec![Attribute::continuous("X")], 5);
        assert!(r.is_err());
    }

    #[test]
    fn schema_rejects_duplicate_names() {
        let r = Schema::new(
            vec![
                Attribute::categorical("A", Domain::new()),
                Attribute::categorical("A", Domain::new()),
            ],
            0,
        );
        assert!(r.is_err());
    }

    #[test]
    fn attribute_kinds() {
        let s = sample_schema();
        assert!(s.attribute(0).is_categorical());
        assert!(!s.attribute(1).is_categorical());
        assert_eq!(s.attribute(0).cardinality(), 2);
        assert_eq!(s.attribute(1).cardinality(), 0);
    }
}
