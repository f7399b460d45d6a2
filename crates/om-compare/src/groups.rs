//! Group comparison: two *sets* of values instead of two single values.
//!
//! Section III-C notes that "in the application, many pairs of phones need
//! to be compared"; practitioners also asked to compare families of
//! products (e.g. all phones of one generation vs the next). A group
//! comparison merges the sub-populations `D_1 = ∪_v {A = v, v ∈ G_1}` and
//! `D_2` likewise, then applies the identical Section IV measure — counts
//! add, so everything downstream is unchanged.

use std::sync::Arc;

use om_cube::olap::slice;
use om_cube::CubeStore;
use om_data::ValueId;

use crate::measure::{score_attribute, AttrScore, SubPopCounts};
use crate::rank::{attr_name, CompareConfig, CompareError, ComparisonResult};

/// A comparison between two disjoint groups of values of one attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSpec {
    /// Schema index of the attribute.
    pub attr: usize,
    /// First value group.
    pub group_1: Vec<ValueId>,
    /// Second value group.
    pub group_2: Vec<ValueId>,
    /// The class of interest.
    pub class: ValueId,
}

impl GroupSpec {
    /// Validate shape: both groups non-empty and disjoint, no duplicates.
    ///
    /// # Errors
    /// Returns an [`CompareError::InvalidSpec`] describing the violation.
    pub fn validate(&self) -> Result<(), CompareError> {
        if self.group_1.is_empty() || self.group_2.is_empty() {
            return Err(CompareError::InvalidSpec(
                "both value groups must be non-empty".into(),
            ));
        }
        let mut all: Vec<ValueId> = self.group_1.iter().chain(&self.group_2).copied().collect();
        all.sort_unstable();
        if all.windows(2).any(|w| w[0] == w[1]) {
            return Err(CompareError::InvalidSpec(
                "value groups must be disjoint and free of duplicates".into(),
            ));
        }
        Ok(())
    }
}

/// Per-value counts of a merged sub-population for `other`, from the pair
/// cube.
fn group_counts(
    store: &CubeStore,
    sel: usize,
    other: usize,
    group: &[ValueId],
    class: ValueId,
) -> Result<(Arc<[String]>, SubPopCounts), CompareError> {
    let pair = store.pair(sel, other)?;
    let sel_dim = pair
        .dims()
        .iter()
        .position(|d| d.attr_index == sel)
        .expect("pair cube contains the selected attribute");
    let labels = Arc::clone(&pair.dims()[1 - sel_dim].labels);
    let card = labels.len();
    let mut n = vec![0u64; card];
    let mut x = vec![0u64; card];
    for &v in group {
        let sliced = slice(&pair, sel_dim, v)?;
        for k in 0..card as ValueId {
            n[k as usize] += sliced.cell_total(&[k])?;
            x[k as usize] += sliced.count(&[k], class)?;
        }
    }
    Ok((labels, SubPopCounts::new(n, x)))
}

/// Run a group comparison. Returns the same [`ComparisonResult`] shape as
/// the single-value comparator; the `value_*_label` fields hold rendered
/// group labels like `{ph1, ph3}`.
///
/// # Errors
/// See [`CompareError`].
pub fn compare_groups(
    store: &CubeStore,
    spec: &GroupSpec,
    config: &CompareConfig,
) -> Result<ComparisonResult, CompareError> {
    spec.validate()?;
    let one = store.one_dim(spec.attr)?;
    let dim = &one.dims()[0];
    let card = dim.cardinality() as ValueId;
    for &v in spec.group_1.iter().chain(&spec.group_2) {
        if v >= card {
            return Err(CompareError::InvalidSpec(format!(
                "value id {v} out of range for attribute {:?}",
                dim.name
            )));
        }
    }
    if spec.class as usize >= one.n_classes() {
        return Err(CompareError::InvalidSpec(format!(
            "class id {} out of range",
            spec.class
        )));
    }

    // Merged base statistics.
    let sum = |group: &[ValueId]| -> Result<(u64, u64), CompareError> {
        let mut n = 0;
        let mut x = 0;
        for &v in group {
            n += one.cell_total(&[v])?;
            x += one.count(&[v], spec.class)?;
        }
        Ok((n, x))
    };
    let (mut n1, mut x1) = sum(&spec.group_1)?;
    let (mut n2, mut x2) = sum(&spec.group_2)?;
    let conf = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    let (mut g1, mut g2) = (spec.group_1.clone(), spec.group_2.clone());
    let mut swapped = false;
    if conf(x1, n1) > conf(x2, n2) {
        std::mem::swap(&mut n1, &mut n2);
        std::mem::swap(&mut x1, &mut x2);
        std::mem::swap(&mut g1, &mut g2);
        swapped = true;
    }
    for (n, which) in [(n1, &g1), (n2, &g2)] {
        if n < config.min_sub_population {
            return Err(CompareError::InsufficientSupport {
                value_label: group_label(dim, which),
                count: n,
                required: config.min_sub_population,
            });
        }
    }
    let cf1 = conf(x1, n1);
    let cf2 = conf(x2, n2);
    if cf1 <= 0.0 {
        return Err(CompareError::ZeroBaselineConfidence);
    }

    let mut ranked: Vec<AttrScore> = Vec::new();
    let mut property_attrs: Vec<AttrScore> = Vec::new();
    for &other in store.attrs() {
        if other == spec.attr {
            continue;
        }
        let (labels, d1) = group_counts(store, spec.attr, other, &g1, spec.class)?;
        let (_, d2) = group_counts(store, spec.attr, other, &g2, spec.class)?;
        let name = attr_name(store, other)?;
        let score = score_attribute(other, &name, &labels, &d1, &d2, cf1, cf2, config.interval);
        if score.property.is_property(config.property_tau) {
            property_attrs.push(score);
        } else {
            ranked.push(score);
        }
    }
    ranked.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.attr.cmp(&b.attr))
    });
    property_attrs.sort_by(|a, b| {
        b.property
            .ratio()
            .partial_cmp(&a.property.ratio())
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    Ok(ComparisonResult {
        attr: spec.attr,
        attr_name: dim.name.to_string(),
        value_1: g1[0],
        value_1_label: group_label(dim, &g1),
        value_2: g2[0],
        value_2_label: group_label(dim, &g2),
        swapped,
        class: spec.class,
        class_label: one.class_labels()[spec.class as usize].clone(),
        cf1,
        cf2,
        n1,
        n2,
        ranked,
        property_attrs,
    })
}

fn group_label(dim: &om_cube::CubeDim, group: &[ValueId]) -> String {
    let names: Vec<&str> = group
        .iter()
        .map(|&v| dim.labels[v as usize].as_str())
        .collect();
    format!("{{{}}}", names.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::{Comparator, ComparisonSpec};
    use om_cube::StoreBuildOptions;
    use om_synth::{generate_call_log, CallLogConfig, Effect};

    /// Call logs where phones {2, 4} share a planted morning problem.
    fn group_scenario() -> (om_data::Dataset, GroupSpec) {
        let ds = generate_call_log(&CallLogConfig {
            n_records: 80_000,
            seed: 31,
            effects: vec![
                Effect::interaction("PhoneModel", "ph2", "TimeOfCall", "morning", "dropped", 2.0),
                Effect::interaction("PhoneModel", "ph4", "TimeOfCall", "morning", "dropped", 2.0),
            ],
            ..CallLogConfig::default()
        });
        let s = ds.schema();
        let attr = s.attr_index("PhoneModel").unwrap();
        let get = |l: &str| s.attribute(attr).domain().get(l).unwrap();
        let spec = GroupSpec {
            attr,
            group_1: vec![get("ph1"), get("ph3")],
            group_2: vec![get("ph2"), get("ph4")],
            class: s.class().domain().get("dropped").unwrap(),
        };
        (ds, spec)
    }

    #[test]
    fn group_comparison_recovers_shared_cause() {
        let (ds, spec) = group_scenario();
        let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        let result = compare_groups(&store, &spec, &CompareConfig::default()).unwrap();
        assert_eq!(result.top().unwrap().attr_name, "TimeOfCall");
        assert_eq!(result.top().unwrap().top_values()[0].label, "morning");
        assert!(result.value_2_label.contains("ph2"));
        assert!(result.value_2_label.contains("ph4"));
    }

    #[test]
    fn singleton_groups_match_single_value_comparator() {
        let (ds, spec) = group_scenario();
        let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        let single = Comparator::new(&store)
            .compare(&ComparisonSpec {
                attr: spec.attr,
                value_1: spec.group_1[0],
                value_2: spec.group_2[0],
                class: spec.class,
            })
            .unwrap();
        let grouped = compare_groups(
            &store,
            &GroupSpec {
                group_1: vec![spec.group_1[0]],
                group_2: vec![spec.group_2[0]],
                ..spec.clone()
            },
            &CompareConfig::default(),
        )
        .unwrap();
        assert_eq!(single.cf1, grouped.cf1);
        assert_eq!(single.cf2, grouped.cf2);
        assert_eq!(
            single
                .ranked
                .iter()
                .map(|s| (s.attr, s.score))
                .collect::<Vec<_>>(),
            grouped
                .ranked
                .iter()
                .map(|s| (s.attr, s.score))
                .collect::<Vec<_>>(),
            "singleton group comparison must equal the single-value comparator"
        );
    }

    #[test]
    fn validation_rejects_bad_groups() {
        let (ds, spec) = group_scenario();
        let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        let cfg = CompareConfig::default();
        // Empty group.
        let r = compare_groups(
            &store,
            &GroupSpec {
                group_1: vec![],
                ..spec.clone()
            },
            &cfg,
        );
        assert!(matches!(r, Err(CompareError::InvalidSpec(_))));
        // Overlapping groups.
        let r = compare_groups(
            &store,
            &GroupSpec {
                group_1: vec![spec.group_1[0], spec.group_2[0]],
                ..spec.clone()
            },
            &cfg,
        );
        assert!(matches!(r, Err(CompareError::InvalidSpec(_))));
        // Out-of-range id.
        let r = compare_groups(
            &store,
            &GroupSpec {
                group_2: vec![99],
                ..spec
            },
            &cfg,
        );
        assert!(matches!(r, Err(CompareError::InvalidSpec(_))));
    }

    #[test]
    fn group_swap_orients_by_merged_confidence() {
        let (ds, spec) = group_scenario();
        let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        let reversed = GroupSpec {
            group_1: spec.group_2.clone(),
            group_2: spec.group_1.clone(),
            ..spec.clone()
        };
        let a = compare_groups(&store, &spec, &CompareConfig::default()).unwrap();
        let b = compare_groups(&store, &reversed, &CompareConfig::default()).unwrap();
        assert!(!a.swapped);
        assert!(b.swapped);
        assert_eq!(a.cf2, b.cf2);
        assert_eq!(a.value_2_label, b.value_2_label);
    }
}
