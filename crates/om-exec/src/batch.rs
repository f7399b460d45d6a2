//! Shared-scan comparison batches.
//!
//! The COMPARE system (Siddiqui et al.) observes that groupwise
//! comparison workloads overlap heavily: many requests read the same
//! base population. The smart-drill-down session shape (Joglekar et
//! al.) is the extreme case — one parent, many children. A batch
//! exploits both overlaps:
//!
//! * **compare items** sharing a selected attribute and value pair are
//!   grouped so each candidate attribute's pair-cube slices are fetched
//!   **once per cube pass** and re-read per class of interest, instead
//!   of once per request;
//! * **drill items** sharing a condition-path prefix reuse the
//!   per-level comparison result, so 32 children of one parent compute
//!   the parent's comparison once (re-narrowing a prefix is one column
//!   pass per condition — well under a millisecond against the masked
//!   scan a memo hit skips);
//! * each item carries an optional budget narrowing; a deadline marks
//!   the *remaining* items overloaded while completed items are still
//!   returned — partial results, never all-or-nothing.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use om_car::Condition;
use om_compare::{
    assemble, attr_name, counts_for_class, drill_path_via, normalize, score_attribute,
    subpop_slices, AttrScore, CompareConfig, CompareError, ComparisonResult, ComparisonSpec,
    DrillConfig, DrillLevel, DrillMemo, DrillPopulation, NormalizedSpec, SelectorPopulation,
};
use om_cube::ColumnIndex;
use om_data::ValueId;
use om_fault::fail::{self, Seam};
use om_fault::Budget;

use crate::pool::Executor;
use crate::rank::{rank_parallel, StoreRef};

/// One unit of a comparison batch.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItem {
    /// Rank all attributes for one spec against the pinned store.
    Compare {
        spec: ComparisonSpec,
        /// Narrow this item's share of the batch budget; `None` means
        /// the batch budget applies unchanged.
        budget_ms: Option<u64>,
    },
    /// Walk a drill path over the base dataset. An empty `path` is the
    /// automated drill-down (the `/drill` behavior); a non-empty path
    /// pins the conditions level by level — level 0 is the root, level
    /// `i` is conditioned on `path[..i]` — producing up to
    /// `path.len() + 1` levels.
    Drill {
        spec: ComparisonSpec,
        path: Vec<Condition>,
        /// Narrow this item's share of the batch budget.
        budget_ms: Option<u64>,
    },
}

/// Per-item result of a batch: success, or a typed reason.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOutcome {
    Compare(ComparisonResult),
    Drill(Vec<DrillLevel>),
    /// The item's (or the batch's) budget ran out before this item
    /// completed; retry later.
    Overloaded {
        message: String,
    },
    /// The item itself is invalid or unanswerable; retrying won't help.
    Failed {
        message: String,
    },
}

impl BatchOutcome {
    /// Map a comparison failure onto its per-item outcome — overload
    /// faults are retryable, everything else is a terminal item
    /// failure.
    #[must_use]
    pub fn from_error(e: &CompareError) -> Self {
        match e {
            CompareError::Fault(f) if f.is_overload() => BatchOutcome::Overloaded {
                message: e.to_string(),
            },
            _ => BatchOutcome::Failed {
                message: e.to_string(),
            },
        }
    }
}

/// One drill item's walk, handed to a [`DrillSource`] to run.
pub type DrillWalk<'a> =
    dyn FnMut(&mut dyn DrillPopulation) -> Result<Vec<DrillLevel>, CompareError> + 'a;

/// Where a batch's drill items get their populations. A single node's
/// source is its counting kernel; a distributed backend's fans out to
/// its shards.
pub trait DrillSource {
    /// Run `walk` over a fresh root (unconditioned) population for a
    /// drill anchored on `anchor` (the compared attribute) and report
    /// the item's outcome. A walk's failure maps through
    /// [`BatchOutcome::from_error`] — except that a source whose
    /// population failed for reasons of its own (a shard down) reports
    /// those, in its own words.
    fn drill(&self, anchor: usize, walk: &mut DrillWalk<'_>) -> BatchOutcome;
}

impl DrillSource for Arc<ColumnIndex> {
    fn drill(&self, anchor: usize, walk: &mut DrillWalk<'_>) -> BatchOutcome {
        match walk(&mut SelectorPopulation::new(self.selector(), anchor)) {
            Ok(levels) => BatchOutcome::Drill(levels),
            Err(e) => BatchOutcome::from_error(&e),
        }
    }
}

/// Key grouping compare items that can share one cube pass: same
/// selected attribute and same (unordered) value pair. Orientation is
/// per-item — it depends on the class of interest — so the key uses the
/// unordered pair and each item maps the shared slices to its own
/// orientation.
type GroupKey = (usize, ValueId, ValueId);

fn group_key(spec: &ComparisonSpec) -> GroupKey {
    let (lo, hi) = if spec.value_1 <= spec.value_2 {
        (spec.value_1, spec.value_2)
    } else {
        (spec.value_2, spec.value_1)
    };
    (spec.attr, lo, hi)
}

fn item_budget(batch: &Budget, budget_ms: Option<u64>) -> Budget {
    match budget_ms {
        Some(ms) => batch.narrowed(Duration::from_millis(ms)),
        None => batch.clone(),
    }
}

/// Execute a batch: compare groups are scattered across the pool (one
/// shared cube pass per group), then each drill item walks its path
/// over a fresh root population from `source`, with per-level
/// comparisons memoized across items. Outcomes are returned in item
/// order.
///
/// Every individual result is byte-identical to what the corresponding
/// single request (`compare` / fixed-path drill) would return: the
/// shared pass runs the exact `normalize → score → assemble` stages of
/// the serial comparator, merely reusing slice fetches.
pub fn run_batch<S: StoreRef, D: DrillSource + ?Sized>(
    exec: &Executor,
    store: &S,
    source: &D,
    compare_config: &CompareConfig,
    drill_config: &DrillConfig,
    items: &[BatchItem],
    budget: &Budget,
) -> Vec<BatchOutcome> {
    let mut outcomes: Vec<Option<BatchOutcome>> = vec![None; items.len()];

    // ---- compare items: group by shared base population ------------
    let mut groups: HashMap<GroupKey, Vec<(usize, ComparisonSpec, Budget)>> = HashMap::new();
    let mut group_order: Vec<GroupKey> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        if let BatchItem::Compare { spec, budget_ms } = item {
            let key = group_key(spec);
            let entry = groups.entry(key).or_insert_with(|| {
                group_order.push(key);
                Vec::new()
            });
            entry.push((i, *spec, item_budget(budget, *budget_ms)));
        }
    }
    type GroupJob = Box<dyn FnOnce() -> Vec<(usize, BatchOutcome)> + Send>;
    let jobs: Vec<GroupJob> = group_order
        .into_iter()
        .filter_map(|key| groups.remove(&key))
        .map(|members| {
            let store = store.clone();
            let config = compare_config.clone();
            Box::new(move || run_compare_group(store.store(), &config, members)) as GroupJob
        })
        .collect();
    for group_outcomes in exec.scatter(jobs) {
        for (i, outcome) in group_outcomes {
            if let Some(slot) = outcomes.get_mut(i) {
                *slot = Some(outcome);
            }
        }
    }

    // ---- drill items: memoized path walk ---------------------------
    let mut memo = DrillMemo::new();
    for (i, item) in items.iter().enumerate() {
        if let BatchItem::Drill {
            spec,
            path,
            budget_ms,
        } = item
        {
            let item_budget = item_budget(budget, *budget_ms);
            let outcome = source.drill(spec.attr, &mut |pop| {
                drill_path_via(
                    pop,
                    spec,
                    path,
                    drill_config,
                    &item_budget,
                    &mut memo,
                    |store, spec, budget| rank_parallel(exec, &store, compare_config, spec, budget),
                )
            });
            if let Some(slot) = outcomes.get_mut(i) {
                *slot = Some(outcome);
            }
        }
    }

    // Every item is Compare or Drill and both passes fill their slots;
    // a hole would be a batching bug, reported as a typed failure
    // rather than a panic on the request path.
    outcomes
        .into_iter()
        .map(|o| {
            o.unwrap_or_else(|| BatchOutcome::Failed {
                message: "batch item produced no outcome".to_owned(),
            })
        })
        .collect()
}

/// One cube pass serving every member of a compare group. Per-candidate
/// slices are fetched once; each member extracts its own per-class
/// counts and scores from them.
fn run_compare_group(
    store: &om_cube::CubeStore,
    config: &CompareConfig,
    members: Vec<(usize, ComparisonSpec, Budget)>,
) -> Vec<(usize, BatchOutcome)> {
    if let Err(e) = fail::inject(Seam::ExecBatchGroup) {
        let out = BatchOutcome::from_error(&CompareError::Fault(e));
        return members.iter().map(|(i, _, _)| (*i, out.clone())).collect();
    }

    // Normalize every member first; invalid specs fail individually
    // without sinking the group.
    let mut live: Vec<(usize, NormalizedSpec, Budget, Vec<AttrScore>)> = Vec::new();
    let mut out: Vec<(usize, BatchOutcome)> = Vec::new();
    for (i, spec, item_budget) in members {
        if let Err(e) = item_budget.check() {
            out.push((i, BatchOutcome::from_error(&CompareError::Fault(e))));
            continue;
        }
        match normalize(store, config, &spec) {
            Ok(norm) => live.push((i, norm, item_budget, Vec::new())),
            Err(e) => out.push((i, BatchOutcome::from_error(&e))),
        }
    }
    let Some(sel) = live.first().map(|(_, n, _, _)| n.spec.attr) else {
        return out;
    };

    for &other in store.attrs() {
        if other == sel {
            continue;
        }
        // Every member shares the unordered pair (the group key), so the
        // first live member's spec names the slices for all of them.
        let (pair_lo, pair_hi) = match live.first() {
            Some((_, norm, _, _)) => (
                norm.spec.value_1.min(norm.spec.value_2),
                norm.spec.value_1.max(norm.spec.value_2),
            ),
            None => break,
        };
        // The shared fetch: one pair-cube access and two slices serve
        // every live member of the group.
        let fetched = subpop_slices(store, sel, other, pair_lo, pair_hi)
            .and_then(|slices| Ok((attr_name(store, other)?, slices)));
        let (name, (labels, s_lo, s_hi)) = match fetched {
            Ok(v) => v,
            Err(e) => {
                let outcome = BatchOutcome::from_error(&e);
                out.extend(live.drain(..).map(|(i, ..)| (i, outcome.clone())));
                break;
            }
        };
        let mut still_live = Vec::with_capacity(live.len());
        for (i, norm, item_budget, mut scores) in live {
            let step = (|| -> Result<AttrScore, CompareError> {
                item_budget.check()?;
                fail::inject(Seam::CompareAttr)?;
                let oriented_lo = norm.spec.value_1 <= norm.spec.value_2;
                let (d1, d2) = if oriented_lo {
                    (&s_lo, &s_hi)
                } else {
                    (&s_hi, &s_lo)
                };
                Ok(score_attribute(
                    other,
                    &name,
                    &labels,
                    &counts_for_class(d1, norm.spec.class)?,
                    &counts_for_class(d2, norm.spec.class)?,
                    norm.base.cf1,
                    norm.base.cf2,
                    config.interval,
                ))
            })();
            match step {
                Ok(score) => {
                    scores.push(score);
                    still_live.push((i, norm, item_budget, scores));
                }
                Err(e) => out.push((i, BatchOutcome::from_error(&e))),
            }
        }
        live = still_live;
    }

    for (i, norm, _, scores) in live {
        out.push((i, BatchOutcome::Compare(assemble(norm, scores, config))));
    }
    out
}
