//! Restricted mining: longer rules under fixed conditions.
//!
//! Section III-B: "we only store two-condition rules. When longer rules for
//! some attributes or values are needed, a restricted mining can be carried
//! out" — fixing some conditions avoids the combinatorial explosion of
//! mining all long rules.

use om_data::{DataError, Dataset, Result};

use crate::item::{distinct_attrs, Condition};
use crate::miner::{mine, MinerConfig};
use crate::rule::CarRule;

/// Mine rules of the form `fixed ∧ X → y`.
///
/// The returned rules include the fixed conditions; support is reported
/// relative to the *full* dataset (so thresholds keep their meaning), and
/// confidence is unchanged by the restriction. `config.min_support` and
/// `config.max_conditions` apply to the complete rule (fixed + mined
/// conditions).
///
/// # Errors
/// Fails if `fixed` is empty, repeats attributes, references the class or
/// an unknown value, or exceeds `config.max_conditions`.
pub fn mine_restricted(
    ds: &Dataset,
    fixed: &[Condition],
    config: &MinerConfig,
) -> Result<Vec<CarRule>> {
    if fixed.is_empty() {
        return Err(DataError::Invalid(
            "restricted mining requires at least one fixed condition; use mine() otherwise".into(),
        ));
    }
    let mut sorted = fixed.to_vec();
    sorted.sort();
    if !distinct_attrs(&sorted) {
        return Err(DataError::Invalid(
            "fixed conditions must use distinct attributes".into(),
        ));
    }
    if sorted.len() > config.max_conditions {
        return Err(DataError::Invalid(format!(
            "{} fixed conditions exceed max_conditions {}",
            sorted.len(),
            config.max_conditions
        )));
    }
    let schema = ds.schema();
    for c in &sorted {
        if c.attr >= schema.n_attributes() || c.attr == schema.class_index() {
            return Err(DataError::Invalid(format!(
                "fixed condition references invalid attribute {}",
                c.attr
            )));
        }
    }

    // Filter to the matching sub-population.
    let mut rows: Vec<usize> = (0..ds.n_rows()).collect();
    for c in &sorted {
        let col = ds.categorical(c.attr)?;
        let card = schema.attribute(c.attr).cardinality() as u32;
        if c.value >= card {
            return Err(DataError::UnknownValue {
                attribute: schema.attribute(c.attr).name().to_owned(),
                value: format!("id {}", c.value),
            });
        }
        rows.retain(|&r| col[r] == c.value);
    }
    let sub = ds.take_rows(&rows)?;
    let n_full = ds.n_rows() as u64;

    // Mine extensions over the other attributes, with support re-based to
    // the full dataset: a count threshold of min_support * |D| equals a
    // sub-population threshold of the same absolute count.
    let fixed_attrs: Vec<usize> = sorted.iter().map(|c| c.attr).collect();
    let attrs: Vec<usize> = match &config.attrs {
        Some(list) => list
            .iter()
            .copied()
            .filter(|a| !fixed_attrs.contains(a))
            .collect(),
        None => schema
            .non_class_indices()
            .into_iter()
            .filter(|a| !fixed_attrs.contains(a) && schema.attribute(*a).is_categorical())
            .collect(),
    };
    let sub_support = if sub.n_rows() == 0 {
        1.0 // nothing can match; produce only the base rules below
    } else {
        (config.min_support * n_full as f64) / sub.n_rows() as f64
    };
    let sub_config = MinerConfig {
        min_support: sub_support.min(1.0),
        min_confidence: config.min_confidence,
        max_conditions: config.max_conditions - sorted.len(),
        attrs: Some(attrs),
    };

    let mut out: Vec<CarRule> = Vec::new();

    // The base rules `fixed → y` themselves.
    let min_count = (config.min_support * n_full as f64).ceil().max(0.0) as u64;
    let cond_count = sub.n_rows() as u64;
    if cond_count > 0 {
        for (c, &count) in sub.class_counts().iter().enumerate() {
            if count == 0 || count < min_count {
                continue;
            }
            let conf = count as f64 / cond_count as f64;
            if conf >= config.min_confidence {
                out.push(CarRule {
                    conditions: sorted.clone(),
                    class: c as u32,
                    support_count: count,
                    cond_count,
                    n_records: n_full,
                });
            }
        }
    }

    if sub_config.max_conditions >= 1 && sub.n_rows() > 0 {
        for mut rule in mine(&sub, &sub_config)? {
            rule.conditions.extend_from_slice(&sorted);
            rule.conditions.sort();
            rule.n_records = n_full;
            out.push(rule);
        }
    }
    out.sort_by(|a, b| {
        b.confidence()
            .partial_cmp(&a.confidence())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.conditions.cmp(&b.conditions))
            .then(a.class.cmp(&b.class))
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_data::{Cell, DatasetBuilder};

    fn toy() -> Dataset {
        let mut b = DatasetBuilder::new()
            .categorical("A")
            .categorical("B")
            .categorical("D")
            .class("C");
        for i in 0..40u32 {
            let a = if i % 2 == 0 { "a0" } else { "a1" };
            let bb = if i % 4 < 2 { "b0" } else { "b1" };
            let d = if i % 5 == 0 { "d0" } else { "d1" };
            let c = if i % 2 == 0 && i % 4 < 2 { "y" } else { "n" };
            b.push_row(&[Cell::Str(a), Cell::Str(bb), Cell::Str(d), Cell::Str(c)])
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn restricted_rules_include_fixed_conditions() {
        let ds = toy();
        let fixed = [Condition::new(0, 0)];
        let rules = mine_restricted(
            &ds,
            &fixed,
            &MinerConfig {
                min_support: 0.0,
                min_confidence: 0.0,
                max_conditions: 3,
                attrs: None,
            },
        )
        .unwrap();
        assert!(!rules.is_empty());
        for r in &rules {
            assert!(
                r.conditions.contains(&Condition::new(0, 0)),
                "rule missing fixed condition: {r:?}"
            );
            assert_eq!(r.n_records, 40);
        }
        // Must contain 3-condition rules.
        assert!(rules.iter().any(|r| r.len() == 3), "{rules:?}");
    }

    #[test]
    fn counts_match_unrestricted_mining() {
        // Restricted mining at the same total length must produce the same
        // counts as full mining filtered to rules containing the condition.
        let ds = toy();
        let fixed = [Condition::new(0, 0)];
        let restricted = mine_restricted(
            &ds,
            &fixed,
            &MinerConfig {
                min_support: 0.0,
                min_confidence: 0.0,
                max_conditions: 2,
                attrs: None,
            },
        )
        .unwrap();
        let full = mine(
            &ds,
            &MinerConfig {
                min_support: 0.0,
                min_confidence: 0.0,
                max_conditions: 2,
                attrs: None,
            },
        )
        .unwrap();
        for r in &restricted {
            let matching = full
                .iter()
                .find(|f| f.conditions == r.conditions && f.class == r.class);
            let f = matching.unwrap_or_else(|| panic!("rule not found in full mining: {r:?}"));
            assert_eq!(f.support_count, r.support_count);
            assert_eq!(f.cond_count, r.cond_count);
        }
    }

    #[test]
    fn base_rule_emitted() {
        let ds = toy();
        let rules = mine_restricted(
            &ds,
            &[Condition::new(1, 0)],
            &MinerConfig {
                min_support: 0.0,
                min_confidence: 0.0,
                max_conditions: 1,
                attrs: None,
            },
        )
        .unwrap();
        // max_conditions == #fixed ⇒ only the base rules B=b0 → y / n.
        assert!(rules.iter().all(|r| r.len() == 1));
        let total: u64 = rules.iter().map(|r| r.support_count).sum();
        assert_eq!(total, 20, "b0 covers half the records");
    }

    #[test]
    fn validation() {
        let ds = toy();
        let cfg = MinerConfig::default();
        assert!(mine_restricted(&ds, &[], &cfg).is_err());
        assert!(mine_restricted(&ds, &[Condition::new(0, 0), Condition::new(0, 1)], &cfg).is_err());
        assert!(mine_restricted(&ds, &[Condition::new(3, 0)], &cfg).is_err());
        assert!(mine_restricted(&ds, &[Condition::new(0, 99)], &cfg).is_err());
        assert!(mine_restricted(
            &ds,
            &[Condition::new(0, 0), Condition::new(1, 0)],
            &MinerConfig {
                max_conditions: 1,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn empty_sub_population() {
        // Fixing a value that never co-occurs: no rules, no panic.
        let mut b = DatasetBuilder::new().categorical("A").class("C");
        b.push_row(&[Cell::Str("a0"), Cell::Str("y")]).unwrap();
        b.push_row(&[Cell::Str("a1"), Cell::Str("n")]).unwrap();
        let ds = b.finish().unwrap();
        // a0 exists; mine restricted to a0 with high support threshold.
        let rules = mine_restricted(
            &ds,
            &[Condition::new(0, 0)],
            &MinerConfig {
                min_support: 0.9,
                min_confidence: 0.0,
                max_conditions: 2,
                attrs: None,
            },
        )
        .unwrap();
        assert!(rules.is_empty());
    }
}
