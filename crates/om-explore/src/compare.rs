//! `explore_compare`: drill both sub-populations of a comparison and
//! interleave the two summary streams by distinguishing mass.
//!
//! The anchoring comparison runs through `om-exec::rank_parallel` (so
//! it shards like every other comparison and stays byte-identical at
//! any width). Both candidate pools are then built in one shared scan:
//! for each candidate attribute the `(selected, other)` pair cube is
//! fetched once and sliced twice — the conditioned-population
//! memoization `om-exec::run_batch` applies to batched drills.

use std::cmp::Ordering;

use om_compare::{subpop_slices, CompareConfig, ComparisonResult, ComparisonSpec};
use om_data::ValueId;
use om_exec::{rank_parallel, Executor, StoreRef};
use om_fault::fail::{self, Seam};
use om_fault::Budget;

use crate::error::ExploreError;
use crate::greedy::{greedy, GreedyOutcome, Picked};
use crate::pool::{push_cands_from, Cand, Cond};
use crate::query::{CompareNames, ExploreQuery};
use crate::report::{row_for, CompareMeta, ExploreReport};
use crate::{attr_by_name, class_by_label, value_by_label};

use std::sync::Arc;

/// Distinguishing mass `W_k = max(F_k, 0) · N_2k` of one condition in
/// the anchoring comparison; 0 when the attribute or value did not
/// contribute.
fn mass_for(result: &ComparisonResult, attr: usize, value: ValueId) -> f64 {
    result
        .ranked
        .iter()
        .chain(result.property_attrs.iter())
        .find(|a| a.attr == attr)
        .and_then(|a| a.contributions.get(value as usize))
        .map_or(0.0, |c| c.w)
}

pub(crate) fn explore_compare<S: StoreRef>(
    exec: &Executor,
    store: &S,
    config: &CompareConfig,
    names: &CompareNames,
    query: &ExploreQuery,
    budget: &Budget,
) -> Result<ExploreReport, ExploreError> {
    let cs = store.store();
    let attr = attr_by_name(cs, &names.attr)?;
    let one = cs.one_dim(attr)?;
    let dim = one.dims().first().ok_or_else(|| {
        ExploreError::Invalid(format!(
            "one-dim cube for attribute {:?} has no dimension",
            names.attr
        ))
    })?;
    let spec = ComparisonSpec {
        attr,
        value_1: value_by_label(dim, &names.value_1)?,
        value_2: value_by_label(dim, &names.value_2)?,
        class: class_by_label(cs, &names.class)?,
    };
    let result = rank_parallel(exec, store, config, &spec, budget)?;

    // Shared scan: each pair cube serves both sides' candidate pools.
    let mut pool1: Vec<Arc<Cand>> = Vec::new();
    let mut pool2: Vec<Arc<Cand>> = Vec::new();
    for &b in cs.attrs() {
        if b == attr {
            continue;
        }
        budget.check()?;
        fail::inject(Seam::ExploreScan)?;
        let (_labels, d1, d2) = subpop_slices(cs, attr, b, result.value_1, result.value_2)?;
        push_cands_from(&d1, &[], &mut pool1)?;
        push_cands_from(&d2, &[], &mut pool2)?;
    }

    let s1 = Cond {
        attr,
        value: result.value_1,
    };
    let s2 = Cond {
        attr,
        value: result.value_2,
    };
    let out1 = greedy(exec, store, pool1, Some(s1), query.k, false, budget)?;
    let out2 = match greedy(exec, store, pool2, Some(s2), query.k, false, budget) {
        Ok(o) => o,
        // Side 1 already produced summaries; a budget fault on side 2
        // degrades to a truncated partial instead of losing them.
        Err(ExploreError::Fault(_)) if !out1.picks.is_empty() => GreedyOutcome {
            truncated: true,
            ..GreedyOutcome::default()
        },
        Err(e) => return Err(e),
    };

    let mut tagged: Vec<(Picked, u8, f64)> =
        Vec::with_capacity(out1.picks.len() + out2.picks.len());
    for p in &out1.picks {
        let m = mass_of(&result, p);
        tagged.push((p.clone(), 1, m));
    }
    for p in &out2.picks {
        let m = mass_of(&result, p);
        tagged.push((p.clone(), 2, m));
    }
    // Interleave by where the distinguishing mass concentrates; ties
    // fall back to coverage, then side, then condition content — all
    // deterministic.
    tagged.sort_by(|x, y| {
        y.2.total_cmp(&x.2)
            .then_with(|| y.0.gain.cmp(&x.0.gain))
            .then_with(|| x.1.cmp(&y.1))
            .then_with(|| x.0.cand.conds.cmp(&y.0.cand.conds))
    });
    tagged.truncate(query.k);

    let mut summaries = Vec::with_capacity(tagged.len());
    for (p, side, m) in &tagged {
        summaries.push(row_for(cs, p, Some(*side), Some(*m))?);
    }
    debug_assert!(tagged.is_sorted_by(|a, b| a.2.total_cmp(&b.2) != Ordering::Less));
    Ok(ExploreReport {
        classes: cs.class_labels().to_vec(),
        universe: result.n1 + result.n2,
        covered: out1.covered + out2.covered,
        steps: out1.steps + out2.steps,
        truncated: out1.truncated || out2.truncated,
        summaries,
        compare: Some(CompareMeta {
            attr: result.attr_name.clone(),
            value_1: result.value_1_label.clone(),
            value_2: result.value_2_label.clone(),
            class: result.class_label.clone(),
            swapped: result.swapped,
        }),
    })
}

/// Mass of a picked summary's (single) condition.
fn mass_of(result: &ComparisonResult, p: &Picked) -> f64 {
    p.cand
        .conds
        .first()
        .map_or(0.0, |c| mass_for(result, c.attr, c.value))
}
