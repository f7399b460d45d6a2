//! Class association rules.

use om_data::{Schema, ValueId};

use crate::item::Condition;

/// A mined class association rule `X → y` with its counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CarRule {
    /// Antecedent conditions, sorted by attribute index, attributes
    /// distinct.
    pub conditions: Vec<Condition>,
    /// Consequent class id.
    pub class: ValueId,
    /// Records matching all conditions *and* the class (rule support
    /// count).
    pub support_count: u64,
    /// Records matching all conditions regardless of class (the rule
    /// cube's `cell_total`).
    pub cond_count: u64,
    /// Records in the mined dataset.
    pub n_records: u64,
}

impl CarRule {
    /// Rule support `sup(X, y) / |D|`.
    pub fn support(&self) -> f64 {
        if self.n_records == 0 {
            return 0.0;
        }
        self.support_count as f64 / self.n_records as f64
    }

    /// Rule confidence `sup(X, y) / sup(X)` (Eq. (1) of the paper).
    pub fn confidence(&self) -> f64 {
        if self.cond_count == 0 {
            return 0.0;
        }
        self.support_count as f64 / self.cond_count as f64
    }

    /// Number of conditions.
    pub fn len(&self) -> usize {
        self.conditions.len()
    }

    /// Whether the rule has no conditions (a pure class-prior rule).
    pub fn is_empty(&self) -> bool {
        self.conditions.is_empty()
    }

    /// Render as `X=1, Y=2 -> C=c [sup=…, conf=…]`.
    pub fn display(&self, schema: &Schema) -> String {
        let conds = if self.conditions.is_empty() {
            "(true)".to_owned()
        } else {
            self.conditions
                .iter()
                .map(|c| c.display(schema))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let class_label = schema.class().domain().label(self.class).unwrap_or("?");
        format!(
            "{conds} -> {}={} [sup={:.4}, conf={:.4}]",
            schema.class().name(),
            class_label,
            self.support(),
            self.confidence()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_data::{Attribute, Domain};

    fn rule(conds: Vec<Condition>, class: ValueId, sup: u64, cond: u64) -> CarRule {
        CarRule {
            conditions: conds,
            class,
            support_count: sup,
            cond_count: cond,
            n_records: 1000,
        }
    }

    #[test]
    fn support_and_confidence() {
        let r = rule(vec![Condition::new(0, 1)], 0, 30, 120);
        assert!((r.support() - 0.03).abs() < 1e-12);
        assert!((r.confidence() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators() {
        let r = CarRule {
            conditions: vec![],
            class: 0,
            support_count: 0,
            cond_count: 0,
            n_records: 0,
        };
        assert_eq!(r.support(), 0.0);
        assert_eq!(r.confidence(), 0.0);
        assert!(r.is_empty());
    }

    #[test]
    fn display_format() {
        let schema = Schema::new(
            vec![
                Attribute::categorical("Phone", Domain::from_labels(["ph1", "ph2"])),
                Attribute::categorical("Out", Domain::from_labels(["ok", "drop"])),
            ],
            1,
        )
        .unwrap();
        let r = rule(vec![Condition::new(0, 1)], 1, 40, 200);
        let s = r.display(&schema);
        assert!(s.contains("Phone=ph2"), "{s}");
        assert!(s.contains("Out=drop"), "{s}");
        assert!(s.contains("conf=0.2000"), "{s}");
        let empty = rule(vec![], 0, 1, 1);
        assert!(empty.display(&schema).starts_with("(true)"));
    }
}
