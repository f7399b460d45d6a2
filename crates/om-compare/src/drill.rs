//! Drill-down comparison: recurse into the top finding.
//!
//! After the comparator isolates, say, `TimeOfCall = morning`, the
//! engineer's next question is "*within the morning*, what further
//! distinguishes the two phones?" — the same question one level deeper.
//! The deployed system answered it manually via restricted mining
//! (Section III-B); this module automates the loop: condition both
//! sub-populations on the finding, re-run the comparison over the
//! remaining attributes, and repeat until no attribute clears a
//! significance floor.
//!
//! Conditioning on a third attribute needs counts beyond the stored 3-D
//! cubes; the deployed system recounted from the records on demand. Here
//! the recount goes through the counting kernel instead: conditioning is
//! one pass over a column of a [`ColumnIndex`] into a row mask, and each
//! level's cubes come from one shared masked scan ([`PopulationSelector::build_store_anchored`]),
//! so drilling no longer copies a single record. Counts — and therefore
//! every ranked result — are byte-identical to the record walk.

use std::collections::HashMap;
use std::sync::Arc;

use om_car::Condition;
use om_cube::{ColumnIndex, CubeStore, PopulationSelector};
use om_data::{DataError, Dataset, Schema};
use om_fault::fail::{self, Seam};
use om_fault::Budget;

use crate::rank::{Comparator, CompareConfig, CompareError, ComparisonResult, ComparisonSpec};

/// One level of a drill-down: the condition added and the comparison run
/// under it.
#[derive(Debug, Clone, PartialEq)]
pub struct DrillLevel {
    /// The conditions in force for this level (empty at the root).
    pub conditions: Vec<Condition>,
    /// Human-readable rendering of `conditions`.
    pub condition_labels: Vec<String>,
    /// The comparison under those conditions.
    pub result: ComparisonResult,
}

/// Configuration for the automated drill-down.
#[derive(Debug, Clone)]
pub struct DrillConfig {
    /// Comparator settings applied at every level.
    pub compare: CompareConfig,
    /// Stop when the top attribute's normalized score falls below this.
    pub min_normalized_score: f64,
    /// Maximum number of levels below the root.
    pub max_depth: usize,
}

impl Default for DrillConfig {
    fn default() -> Self {
        Self {
            compare: CompareConfig::default(),
            min_normalized_score: 0.05,
            max_depth: 2,
        }
    }
}

/// Run the root comparison and automatically drill into the top finding
/// at each level: condition on (top attribute = top value), rebuild cubes
/// over the conditioned records, and compare again.
///
/// Returns the levels in order (root first). The walk stops when depth is
/// exhausted, the top score falls below the floor, sub-populations get
/// too small, or no attribute remains.
///
/// # Errors
/// Fails if the *root* comparison fails; deeper failures (e.g. the
/// conditioned sub-populations became too small) end the walk cleanly.
pub fn drill_down(
    ds: &Dataset,
    spec: &ComparisonSpec,
    config: &DrillConfig,
) -> Result<Vec<DrillLevel>, CompareError> {
    drill_down_budgeted(ds, spec, config, &Budget::unlimited())
}

/// [`drill_down`] under a cooperative [`Budget`]: the deadline is checked
/// before each level's cube rebuild (the cost that scales with data size)
/// and inside each level's comparison. A budget fault at *any* depth
/// aborts the whole walk — unlike ordinary deeper failures, it means the
/// caller's time is up, not that the data ran thin.
///
/// # Errors
/// Fails if the root comparison fails, or with [`CompareError::Fault`]
/// when the budget expires or the request is cancelled.
pub fn drill_down_budgeted(
    ds: &Dataset,
    spec: &ComparisonSpec,
    config: &DrillConfig,
    budget: &Budget,
) -> Result<Vec<DrillLevel>, CompareError> {
    let index = Arc::new(ColumnIndex::build(ds).map_err(CompareError::Cube)?);
    let mut pop = SelectorPopulation::new(index.selector(), spec.attr);
    drill_down_via(&mut pop, spec, config, budget, |store, spec, budget| {
        Comparator::with_config(&store, config.compare.clone()).compare_budgeted(spec, budget)
    })
}

/// The candidate attributes a drill level ranks over: categorical,
/// non-class, keeping the selected attribute, excluding anything already
/// conditioned on. Returns fewer than 2 attributes when nothing but the
/// selection is left — the walk's natural stopping point. The candidate
/// set is a schema property (conditioning never changes the schema),
/// which is what lets a distributed walk rank without holding any
/// records.
pub fn candidate_attrs_in(schema: &Schema, spec_attr: usize, excluded: &[usize]) -> Vec<usize> {
    schema
        .non_class_indices()
        .into_iter()
        .filter(|a| {
            schema.attribute(*a).is_categorical() && (*a == spec_attr || !excluded.contains(a))
        })
        .collect()
}

/// The population one drill walk narrows level by level.
///
/// The walk itself ([`drill_path_via`]) only needs three capabilities:
/// the (conditioning-invariant) schema, a restricted cube store over the
/// *current* sub-population, and the ability to descend one condition.
/// A single node backs this with the counting kernel
/// ([`SelectorPopulation`]); a distributed caller backs it with shard
/// fan-out and merged partial stores — the walk's control flow (and
/// therefore its output) is identical either way.
pub trait DrillPopulation {
    /// The schema of the population (identical at every level).
    fn schema(&self) -> &Schema;

    /// Build the restricted cube store for the current sub-population
    /// over `attrs`. Returned in an [`Arc`] so an implementation that
    /// caches stores (a coordinator merging shard partials) can hand
    /// out the cached build without cloning it.
    ///
    /// # Errors
    /// [`CompareError`] when the store cannot be built; the walk
    /// propagates it (at any depth).
    fn level_store(&mut self, attrs: Vec<usize>) -> Result<Arc<CubeStore>, CompareError>;

    /// Narrow the population to `condition`, or say why not: the
    /// automatic walk ends cleanly on either refusal, a pinned path
    /// reports it.
    ///
    /// # Errors
    /// Only for infrastructure failures (a distributed population losing
    /// a shard); a refusal is a [`Descent`], not an error.
    fn descend(&mut self, condition: Condition) -> Result<Descent, CompareError>;
}

/// What [`DrillPopulation::descend`] did with a condition.
#[derive(Debug)]
pub enum Descent {
    /// The population now satisfies the condition as well.
    Narrowed,
    /// The condition does not apply to this schema (out-of-domain value,
    /// continuous attribute); the population is unchanged.
    Invalid(DataError),
    /// The condition is valid but no record satisfies it; the population
    /// is unchanged.
    Empty,
}

/// Kernel-backed [`DrillPopulation`] — the one single-node way to
/// condition a drill. `descend` narrows the row mask by one condition;
/// each level's store is one shared masked scan anchored on the
/// compared attribute, so the scan fills exactly the pair cubes the
/// level's ranking reads.
pub struct SelectorPopulation {
    current: PopulationSelector,
    anchor: usize,
}

impl SelectorPopulation {
    /// A population at the root (unconditioned) selector. `anchor` is
    /// the compared attribute ([`ComparisonSpec::attr`]); level stores
    /// eagerly materialize exactly its pair cubes.
    pub fn new(selector: PopulationSelector, anchor: usize) -> Self {
        Self {
            current: selector,
            anchor,
        }
    }
}

impl DrillPopulation for SelectorPopulation {
    fn schema(&self) -> &Schema {
        self.current.schema()
    }

    fn level_store(&mut self, attrs: Vec<usize>) -> Result<Arc<CubeStore>, CompareError> {
        self.current
            .build_store_anchored(Some(attrs), self.anchor)
            .map(Arc::new)
            .map_err(CompareError::Cube)
    }

    fn descend(&mut self, condition: Condition) -> Result<Descent, CompareError> {
        Ok(match self.current.narrow(condition.attr, condition.value) {
            Err(e) => Descent::Invalid(e),
            Ok(sub) if sub.count() == 0 => Descent::Empty,
            Ok(sub) => {
                self.current = sub;
                Descent::Narrowed
            }
        })
    }
}

/// Level results shared between walks, keyed by the exact conditions in
/// force and the spec: a hit is the value a recompute would produce, so
/// drill items of one batch that share a path prefix — pinned or found
/// by the automatic walk — rank that prefix once.
pub type DrillMemo = HashMap<(Vec<Condition>, ComparisonSpec), ComparisonResult>;

/// The automatic drill walk over any [`DrillPopulation`]:
/// [`drill_path_via`] with no pinned path and nothing to share.
///
/// # Errors
/// Same contract as [`drill_down_budgeted`]: root failures and faults
/// propagate, deeper data-thinness failures end the walk cleanly.
pub fn drill_down_via<P, F>(
    pop: &mut P,
    spec: &ComparisonSpec,
    config: &DrillConfig,
    budget: &Budget,
    run_compare: F,
) -> Result<Vec<DrillLevel>, CompareError>
where
    P: DrillPopulation + ?Sized,
    F: FnMut(Arc<CubeStore>, &ComparisonSpec, &Budget) -> Result<ComparisonResult, CompareError>,
{
    drill_path_via(
        pop,
        spec,
        &[],
        config,
        budget,
        &mut DrillMemo::new(),
        run_compare,
    )
}

/// The drill walk — the one copy of the level loop, whoever picks the
/// next condition. An empty `path` is the automatic walk: descend into
/// each level's top finding until its normalized score falls below
/// [`DrillConfig::min_normalized_score`] or [`DrillConfig::max_depth`]
/// levels lie below the root. A non-empty `path` pins the conditions
/// instead (level `i` is conditioned on `path[..i]`, up to
/// `path.len() + 1` levels) and ignores both limits. Each level's
/// comparison is delegated to `run_compare` — the seam an execution
/// layer uses to swap the serial comparator for a sharded one — and
/// looked up in `memo` first.
///
/// # Errors
/// Root failures and faults propagate; deeper data-thinness failures
/// end the walk cleanly. A pinned condition the population refuses is
/// [`CompareError::Condition`]; the automatic walk just stops there.
pub fn drill_path_via<P, F>(
    pop: &mut P,
    spec: &ComparisonSpec,
    path: &[Condition],
    config: &DrillConfig,
    budget: &Budget,
    memo: &mut DrillMemo,
    mut run_compare: F,
) -> Result<Vec<DrillLevel>, CompareError>
where
    P: DrillPopulation + ?Sized,
    F: FnMut(Arc<CubeStore>, &ComparisonSpec, &Budget) -> Result<ComparisonResult, CompareError>,
{
    let mut levels = Vec::new();
    let mut conditions: Vec<Condition> = Vec::new();
    let mut excluded: Vec<usize> = vec![spec.attr];
    let last = if path.is_empty() {
        config.max_depth
    } else {
        path.len()
    };

    for depth in 0..=last {
        budget.check()?;
        fail::inject(Seam::CompareDrillLevel)?;
        let attrs = candidate_attrs_in(pop.schema(), spec.attr, &excluded);
        if attrs.len() < 2 {
            break; // only the selected attribute left — nothing to rank
        }
        let key = (conditions.clone(), *spec);
        let result = match memo.get(&key) {
            Some(hit) => hit.clone(),
            None => {
                let store = pop.level_store(attrs)?;
                match run_compare(store, spec, budget) {
                    Ok(r) => {
                        memo.insert(key, r.clone());
                        r
                    }
                    Err(e) if depth == 0 => return Err(e),
                    Err(e @ CompareError::Fault(_)) => return Err(e),
                    Err(_) => break, // conditioned data too thin — stop cleanly
                }
            }
        };

        let next = match path.get(depth) {
            Some(&pinned) => Some(pinned),
            None if depth == last => None,
            None => result.top().and_then(|top| {
                if top.normalized < config.min_normalized_score {
                    return None;
                }
                let value = top.top_values().first().map_or(0, |c| c.value);
                Some(Condition::new(top.attr, value))
            }),
        };
        levels.push(DrillLevel {
            conditions: conditions.clone(),
            condition_labels: conditions.iter().map(|c| c.display(pop.schema())).collect(),
            result,
        });

        let Some(condition) = next else {
            break;
        };
        match pop.descend(condition)? {
            Descent::Narrowed => {}
            _ if path.is_empty() => break,
            Descent::Invalid(e) => {
                return Err(CompareError::Condition(format!(
                    "condition {} is invalid: {e}",
                    condition.display(pop.schema())
                )))
            }
            Descent::Empty => {
                return Err(CompareError::Condition(format!(
                    "condition {} selects no records",
                    condition.display(pop.schema())
                )))
            }
        }
        conditions.push(condition);
        excluded.push(condition.attr);
    }
    Ok(levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_synth::{generate_call_log, CallLogConfig, Effect};

    /// Nested causes: ph2 is worse in the morning, and *within* morning
    /// calls the excess concentrates on highway driving.
    fn nested_scenario() -> (Dataset, ComparisonSpec) {
        let ds = generate_call_log(&CallLogConfig {
            n_records: 120_000,
            seed: 77,
            effects: vec![
                Effect::interaction("PhoneModel", "ph2", "TimeOfCall", "morning", "dropped", 1.2),
                Effect::conjunction(
                    [
                        ("PhoneModel", "ph2"),
                        ("TimeOfCall", "morning"),
                        ("LocationType", "highway"),
                    ],
                    "dropped",
                    2.5,
                ),
            ],
            ..CallLogConfig::default()
        });
        let s = ds.schema();
        let attr = s.attr_index("PhoneModel").unwrap();
        let spec = ComparisonSpec {
            attr,
            value_1: s.attribute(attr).domain().get("ph1").unwrap(),
            value_2: s.attribute(attr).domain().get("ph2").unwrap(),
            class: s.class().domain().get("dropped").unwrap(),
        };
        (ds, spec)
    }

    #[test]
    fn drill_finds_the_nested_cause() {
        let (ds, spec) = nested_scenario();
        let levels = drill_down(&ds, &spec, &DrillConfig::default()).unwrap();
        assert!(
            levels.len() >= 2,
            "expected a drill step, got {}",
            levels.len()
        );
        // Root: TimeOfCall / morning.
        let root_top = levels[0].result.top().unwrap();
        assert_eq!(root_top.attr_name, "TimeOfCall");
        assert_eq!(root_top.top_values()[0].label, "morning");
        assert!(levels[0].conditions.is_empty());
        // Level 1 is conditioned on morning and surfaces LocationType.
        assert_eq!(levels[1].condition_labels, vec!["TimeOfCall=morning"]);
        let l1_top = levels[1].result.top().unwrap();
        assert_eq!(
            l1_top.attr_name,
            "LocationType",
            "{:?}",
            levels[1]
                .result
                .ranked
                .iter()
                .map(|s| (&s.attr_name, s.normalized))
                .collect::<Vec<_>>()
        );
        assert_eq!(l1_top.top_values()[0].label, "highway");
    }

    #[test]
    fn drill_stops_when_nothing_left() {
        // Single flat effect: after conditioning on morning, nothing
        // should clear the score floor.
        let ds = generate_call_log(&CallLogConfig {
            n_records: 60_000,
            seed: 78,
            effects: vec![Effect::interaction(
                "PhoneModel",
                "ph2",
                "TimeOfCall",
                "morning",
                "dropped",
                2.0,
            )],
            ..CallLogConfig::default()
        });
        let s = ds.schema();
        let attr = s.attr_index("PhoneModel").unwrap();
        let spec = ComparisonSpec {
            attr,
            value_1: s.attribute(attr).domain().get("ph1").unwrap(),
            value_2: s.attribute(attr).domain().get("ph2").unwrap(),
            class: s.class().domain().get("dropped").unwrap(),
        };
        let levels = drill_down(&ds, &spec, &DrillConfig::default()).unwrap();
        // Root finds morning; at most one further level, and if one was
        // produced its top score must be small (the stop condition).
        assert!(!levels.is_empty());
        assert_eq!(levels[0].result.top().unwrap().attr_name, "TimeOfCall");
        if let Some(last) = levels.get(1) {
            if let Some(top) = last.result.top() {
                assert!(
                    top.normalized < 0.25,
                    "unexpected strong nested finding: {} {:.3}",
                    top.attr_name,
                    top.normalized
                );
            }
        }
    }

    #[test]
    fn root_failure_propagates() {
        let (ds, spec) = nested_scenario();
        let bad = ComparisonSpec {
            value_2: 99,
            ..spec
        };
        assert!(drill_down(&ds, &bad, &DrillConfig::default()).is_err());
    }

    #[test]
    fn expired_budget_aborts_drill() {
        use om_fault::FaultError;
        use std::time::Duration;
        let (ds, spec) = nested_scenario();
        let spent = Budget::with_timeout(Duration::ZERO);
        let r = drill_down_budgeted(&ds, &spec, &DrillConfig::default(), &spent);
        assert!(
            matches!(
                r,
                Err(CompareError::Fault(FaultError::DeadlineExceeded { .. }))
            ),
            "{r:?}"
        );
    }

    #[test]
    fn depth_zero_is_just_the_root() {
        let (ds, spec) = nested_scenario();
        let levels = drill_down(
            &ds,
            &spec,
            &DrillConfig {
                max_depth: 0,
                ..DrillConfig::default()
            },
        )
        .unwrap();
        assert_eq!(levels.len(), 1);
    }
}
