//! The Eclat-style level-wise CAR miner.
//!
//! Level 1 builds a tid-list (sorted row-id list) per frequent condition;
//! level `k + 1` intersects tid-lists of prefix-sharing condition sets.
//! A condition set survives a level when *some* class reaches the minimum
//! support count (an admissible prune: a rule's support can only shrink
//! under specialization). Rules are emitted for every (condition set,
//! class) passing both thresholds.

use om_data::{DataError, Dataset, Result, ValueId};

use crate::item::{distinct_attrs, Condition};
use crate::rule::CarRule;

/// Mining thresholds and limits.
#[derive(Debug, Clone)]
pub struct MinerConfig {
    /// Minimum rule support (fraction of all records), `[0, 1]`.
    pub min_support: f64,
    /// Minimum rule confidence, `[0, 1]`.
    pub min_confidence: f64,
    /// Maximum number of conditions per rule. The paper stores cubes for
    /// two-condition rules and mines longer ones on request; the default
    /// here is 2 for the same reason ("practical applications seldom need
    /// long rules").
    pub max_conditions: usize,
    /// Attribute subset to mine over; `None` = all categorical non-class.
    pub attrs: Option<Vec<usize>>,
}

impl Default for MinerConfig {
    fn default() -> Self {
        Self {
            min_support: 0.01,
            min_confidence: 0.3,
            max_conditions: 2,
            attrs: None,
        }
    }
}

/// A condition set with its tid-list, during mining.
struct Node {
    conditions: Vec<Condition>,
    tids: Vec<u32>,
}

/// Per-class counts of a tid-list.
fn class_counts(tids: &[u32], classes: &[ValueId], n_classes: usize) -> Vec<u64> {
    let mut counts = vec![0u64; n_classes];
    for &t in tids {
        counts[classes[t as usize] as usize] += 1;
    }
    counts
}

/// Sorted-list intersection.
fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Mine all class association rules of `ds` satisfying `config`.
///
/// ```
/// use om_car::{mine, MinerConfig};
/// use om_data::{Cell, DatasetBuilder};
///
/// let mut b = DatasetBuilder::new().categorical("Time").class("Outcome");
/// for (t, o) in [("am", "drop"), ("am", "drop"), ("am", "ok"), ("pm", "ok")] {
///     b.push_row(&[Cell::Str(t), Cell::Str(o)]).unwrap();
/// }
/// let ds = b.finish().unwrap();
///
/// let rules = mine(&ds, &MinerConfig {
///     min_support: 0.25,
///     min_confidence: 0.6,
///     max_conditions: 1,
///     attrs: None,
/// }).unwrap();
/// // "Time=am -> drop" holds with support 2/4 and confidence 2/3.
/// assert!(rules.iter().any(|r| {
///     r.display(ds.schema()).starts_with("Time=am -> Outcome=drop")
/// }));
/// ```
///
/// # Errors
/// Fails on invalid thresholds, non-categorical attributes in the
/// selection, or the class attribute listed as an analysis attribute.
pub fn mine(ds: &Dataset, config: &MinerConfig) -> Result<Vec<CarRule>> {
    validate(ds, config)?;
    let schema = ds.schema();
    let n_records = ds.n_rows() as u64;
    let n_classes = schema.n_classes();
    let classes = ds.class_values();
    let min_count = (config.min_support * n_records as f64).ceil().max(0.0) as u64;

    let attrs: Vec<usize> = match &config.attrs {
        Some(list) => list.clone(),
        None => schema
            .non_class_indices()
            .into_iter()
            .filter(|&a| schema.attribute(a).is_categorical())
            .collect(),
    };

    // Level 1: tid-lists per (attr, value).
    let mut level: Vec<Node> = Vec::new();
    for &a in &attrs {
        let col = ds
            .column(a)
            .as_categorical()
            .expect("validated categorical");
        let card = schema.attribute(a).cardinality();
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); card];
        for (r, &v) in col.iter().enumerate() {
            lists[v as usize].push(r as u32);
        }
        for (v, tids) in lists.into_iter().enumerate() {
            if tids.is_empty() {
                continue;
            }
            level.push(Node {
                conditions: vec![Condition::new(a, v as ValueId)],
                tids,
            });
        }
    }

    let mut rules: Vec<CarRule> = Vec::new();
    let mut depth = 1;
    loop {
        // Emit rules and keep extendable nodes.
        let mut survivors: Vec<Node> = Vec::new();
        for node in level {
            let counts = class_counts(&node.tids, classes, n_classes);
            let cond_count = node.tids.len() as u64;
            let mut any_frequent = false;
            for (c, &count) in counts.iter().enumerate() {
                if count >= min_count && count > 0 {
                    any_frequent = true;
                    let conf = count as f64 / cond_count as f64;
                    if conf >= config.min_confidence {
                        rules.push(CarRule {
                            conditions: node.conditions.clone(),
                            class: c as ValueId,
                            support_count: count,
                            cond_count,
                            n_records,
                        });
                    }
                }
            }
            if any_frequent && depth < config.max_conditions {
                survivors.push(node);
            }
        }
        if depth >= config.max_conditions || survivors.len() < 2 {
            break;
        }

        // Extend: prefix join — nodes sharing all but the last condition,
        // with strictly increasing attribute indices.
        let mut next: Vec<Node> = Vec::new();
        for i in 0..survivors.len() {
            for j in (i + 1)..survivors.len() {
                let (a, b) = (&survivors[i], &survivors[j]);
                if a.conditions[..depth - 1] != b.conditions[..depth - 1] {
                    continue;
                }
                let (first, second) = if a.conditions[depth - 1] <= b.conditions[depth - 1] {
                    (a, b)
                } else {
                    (b, a)
                };
                let mut conditions = first.conditions.clone();
                conditions.push(second.conditions[depth - 1]);
                if !distinct_attrs(&conditions) {
                    continue;
                }
                let tids = intersect(&first.tids, &second.tids);
                if tids.is_empty() {
                    continue;
                }
                next.push(Node { conditions, tids });
            }
        }
        if next.is_empty() {
            break;
        }
        level = next;
        depth += 1;
    }

    rules.sort_by(|a, b| {
        b.confidence()
            .partial_cmp(&a.confidence())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.support_count.cmp(&a.support_count))
            .then(a.conditions.cmp(&b.conditions))
            .then(a.class.cmp(&b.class))
    });
    Ok(rules)
}

fn validate(ds: &Dataset, config: &MinerConfig) -> Result<()> {
    if !(0.0..=1.0).contains(&config.min_support) {
        return Err(DataError::Invalid(format!(
            "min_support must be in [0,1], got {}",
            config.min_support
        )));
    }
    if !(0.0..=1.0).contains(&config.min_confidence) {
        return Err(DataError::Invalid(format!(
            "min_confidence must be in [0,1], got {}",
            config.min_confidence
        )));
    }
    if config.max_conditions == 0 {
        return Err(DataError::Invalid("max_conditions must be >= 1".into()));
    }
    if let Some(attrs) = &config.attrs {
        for &a in attrs {
            if a >= ds.schema().n_attributes() {
                return Err(DataError::Invalid(format!(
                    "attribute index {a} out of range"
                )));
            }
            if a == ds.schema().class_index() {
                return Err(DataError::Invalid(
                    "class attribute cannot be a rule condition".into(),
                ));
            }
            if !ds.schema().attribute(a).is_categorical() {
                return Err(DataError::Invalid(format!(
                    "attribute {:?} is continuous; discretize before mining",
                    ds.schema().attribute(a).name()
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_data::{Cell, DatasetBuilder};

    fn toy() -> Dataset {
        let mut b = DatasetBuilder::new()
            .categorical("A")
            .categorical("B")
            .class("C");
        // 8 records, easy to tally by hand.
        for (a, bb, c) in [
            ("a0", "b0", "y"),
            ("a0", "b0", "y"),
            ("a0", "b1", "n"),
            ("a0", "b1", "y"),
            ("a1", "b0", "n"),
            ("a1", "b0", "n"),
            ("a1", "b1", "n"),
            ("a1", "b1", "y"),
        ] {
            b.push_row(&[Cell::Str(a), Cell::Str(bb), Cell::Str(c)])
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn mines_expected_one_condition_rule() {
        let ds = toy();
        let rules = mine(
            &ds,
            &MinerConfig {
                min_support: 0.25,
                min_confidence: 0.7,
                max_conditions: 1,
                attrs: None,
            },
        )
        .unwrap();
        // A=a0 -> y has support 3/8, confidence 3/4. A=a1 -> n same.
        assert!(
            rules.iter().any(|r| {
                r.conditions == vec![Condition::new(0, 0)]
                    && r.class == 0
                    && r.support_count == 3
                    && r.cond_count == 4
            }),
            "{rules:?}"
        );
        assert!(rules
            .iter()
            .all(|r| r.confidence() >= 0.7 && r.support() >= 0.25));
    }

    #[test]
    fn two_condition_counts_are_exact() {
        let ds = toy();
        let rules = mine(
            &ds,
            &MinerConfig {
                min_support: 0.0,
                min_confidence: 0.0,
                max_conditions: 2,
                attrs: None,
            },
        )
        .unwrap();
        // (a0, b0 -> y): 2 of 2.
        let r = rules
            .iter()
            .find(|r| {
                r.conditions == vec![Condition::new(0, 0), Condition::new(1, 0)] && r.class == 0
            })
            .expect("rule exists");
        assert_eq!(r.support_count, 2);
        assert_eq!(r.cond_count, 2);
        assert_eq!(r.confidence(), 1.0);
    }

    #[test]
    fn all_zero_threshold_rules_match_cube() {
        // Every 2-condition rule's counts must agree with the rule cube.
        let ds = toy();
        let rules = mine(
            &ds,
            &MinerConfig {
                min_support: 0.0,
                min_confidence: 0.0,
                max_conditions: 2,
                attrs: None,
            },
        )
        .unwrap();
        let cube = om_cube::build_cube(&ds, &[0, 1]).unwrap();
        for r in rules.iter().filter(|r| r.len() == 2) {
            let coords = [r.conditions[0].value, r.conditions[1].value];
            assert_eq!(
                cube.count(&coords, r.class).unwrap(),
                r.support_count,
                "{r:?}"
            );
            assert_eq!(cube.cell_total(&coords).unwrap(), r.cond_count);
        }
    }

    #[test]
    fn support_threshold_prunes() {
        let ds = toy();
        let rules = mine(
            &ds,
            &MinerConfig {
                min_support: 0.5,
                min_confidence: 0.0,
                max_conditions: 2,
                attrs: None,
            },
        )
        .unwrap();
        // Only rules with support_count >= 4 out of 8 survive: none exist
        // (the best class count for any single value is 3).
        assert!(rules.is_empty(), "{rules:?}");
    }

    #[test]
    fn max_conditions_respected() {
        let ds = toy();
        let rules = mine(
            &ds,
            &MinerConfig {
                min_support: 0.0,
                min_confidence: 0.0,
                max_conditions: 1,
                attrs: None,
            },
        )
        .unwrap();
        assert!(rules.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn attr_subset_restricts_conditions() {
        let ds = toy();
        let rules = mine(
            &ds,
            &MinerConfig {
                min_support: 0.0,
                min_confidence: 0.0,
                max_conditions: 2,
                attrs: Some(vec![1]),
            },
        )
        .unwrap();
        assert!(rules
            .iter()
            .all(|r| r.conditions.iter().all(|c| c.attr == 1)));
    }

    #[test]
    fn rules_sorted_by_confidence() {
        let ds = toy();
        let rules = mine(&ds, &MinerConfig::default()).unwrap();
        for w in rules.windows(2) {
            assert!(w[0].confidence() >= w[1].confidence() - 1e-12);
        }
    }

    #[test]
    fn validation_errors() {
        let ds = toy();
        assert!(mine(
            &ds,
            &MinerConfig {
                min_support: 1.5,
                ..Default::default()
            }
        )
        .is_err());
        assert!(mine(
            &ds,
            &MinerConfig {
                min_confidence: -0.1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(mine(
            &ds,
            &MinerConfig {
                max_conditions: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(mine(
            &ds,
            &MinerConfig {
                attrs: Some(vec![2]),
                ..Default::default()
            }
        )
        .is_err());
        assert!(mine(
            &ds,
            &MinerConfig {
                attrs: Some(vec![99]),
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn empty_dataset_yields_no_rules() {
        let ds = DatasetBuilder::new()
            .categorical("A")
            .class("C")
            .finish()
            .unwrap();
        let rules = mine(&ds, &MinerConfig::default()).unwrap();
        assert!(rules.is_empty());
    }
}
