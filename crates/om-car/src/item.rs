//! Conditions: the attribute–value pairs forming rule antecedents.

use om_data::{Schema, ValueId};

/// One condition `A_i = v` ("a condition is an attribute value pair",
/// Section III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Condition {
    /// Schema index of the attribute.
    pub attr: usize,
    /// Value id within the attribute's domain.
    pub value: ValueId,
}

impl Condition {
    pub fn new(attr: usize, value: ValueId) -> Self {
        Self { attr, value }
    }

    /// Render as `Name=label` using the schema.
    pub fn display(&self, schema: &Schema) -> String {
        let attr = schema.attribute(self.attr);
        let label = attr.domain().label(self.value).unwrap_or("?");
        format!("{}={}", attr.name(), label)
    }
}

/// Whether a sorted condition list uses distinct attributes ("every
/// condition uses a distinctive attribute").
pub fn distinct_attrs(conditions: &[Condition]) -> bool {
    conditions.windows(2).all(|w| w[0].attr < w[1].attr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_data::{Attribute, Domain};

    #[test]
    fn ordering_is_by_attr_then_value() {
        let a = Condition::new(0, 5);
        let b = Condition::new(1, 0);
        let c = Condition::new(1, 2);
        assert!(a < b && b < c);
    }

    #[test]
    fn distinct_attr_check() {
        assert!(distinct_attrs(&[
            Condition::new(0, 1),
            Condition::new(2, 0)
        ]));
        assert!(!distinct_attrs(&[
            Condition::new(1, 0),
            Condition::new(1, 1)
        ]));
        assert!(distinct_attrs(&[]));
    }

    #[test]
    fn display_uses_labels() {
        let schema = Schema::new(
            vec![
                Attribute::categorical("Phone", Domain::from_labels(["ph1", "ph2"])),
                Attribute::categorical("C", Domain::from_labels(["ok"])),
            ],
            1,
        )
        .unwrap();
        assert_eq!(Condition::new(0, 1).display(&schema), "Phone=ph2");
    }
}
