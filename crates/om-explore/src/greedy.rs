//! The budgeted greedy selection loop.
//!
//! Each step scores every remaining candidate's *marginal* weighted
//! coverage against the already-selected set, picks the strict maximum
//! under a content-keyed tie-break (gain desc, fewer conditions first,
//! then lexicographic `(attr, value)`), and — in whole-population mode —
//! expands the chosen single condition into its two-condition
//! refinements, which re-cover the same rows at weight 2 exactly as the
//! smart drill-down paper prescribes.
//!
//! Determinism: gains are u64, candidates are compared by content (never
//! by pool position), and shards are gathered in order — the selected
//! sequence is byte-identical for every `ExecConfig.workers`.

use std::collections::HashSet;
use std::sync::Arc;

use om_cube::CubeStore;
use om_exec::{gather_in_order, Executor, StoreRef};
use om_fault::fail::{self, Seam};
use om_fault::Budget;

use crate::error::ExploreError;
use crate::pool::{conditioned, overlap_upper, push_cands_from, Cand, Cond};

/// One selected summary and the marginal weighted coverage it earned at
/// selection time.
#[derive(Debug, Clone)]
pub(crate) struct Picked {
    pub cand: Arc<Cand>,
    pub gain: u64,
}

/// What a greedy run produced.
#[derive(Debug, Clone, Default)]
pub(crate) struct GreedyOutcome {
    pub picks: Vec<Picked>,
    /// Sum of marginal gains (weighted coverage accumulated).
    pub covered: u64,
    /// Greedy steps actually executed (≤ k; fewer when the pool dries
    /// up or the budget truncates).
    pub steps: u64,
    /// Whether the budget (or an injected step fault) cut the loop
    /// short after at least one summary completed.
    pub truncated: bool,
}

/// Marginal weighted coverage of `cand` given the chosen sets.
///
/// A row covered by a summary with `s` conditions is worth `s`; the
/// marginal only credits weight above the row's current best. With
/// conjunction width capped at 2 this closes to:
///
/// ```text
/// s = 1:  support − min(support, Σ_T overlap(cand, T))
/// s = 2:  the above  +  support − min(support, Σ_{|T| = 2} overlap)
/// ```
///
/// using the Bonferroni overlap upper bound, so the result is a lower
/// bound on the true marginal and never negative.
fn marginal_gain(
    store: &CubeStore,
    cand: &Cand,
    chosen: &[Vec<Cond>],
    slice: Option<Cond>,
) -> Result<u64, ExploreError> {
    let sup = cand.support;
    let mut sum_all: u64 = 0;
    let mut sum_deep: u64 = 0;
    for t in chosen {
        let ov = overlap_upper(store, &cand.conds, t, slice)?;
        sum_all = sum_all.saturating_add(ov);
        if t.len() >= 2 {
            sum_deep = sum_deep.saturating_add(ov);
        }
    }
    let g1 = sup - sum_all.min(sup);
    if cand.conds.len() < 2 {
        return Ok(g1);
    }
    let g2 = sup - sum_deep.min(sup);
    Ok(g1 + g2)
}

fn score_shard(
    store: &CubeStore,
    shard: &[Arc<Cand>],
    chosen: &[Vec<Cond>],
    slice: Option<Cond>,
    budget: &Budget,
) -> Result<Vec<u64>, ExploreError> {
    let mut out = Vec::with_capacity(shard.len());
    for cand in shard {
        budget.check()?;
        out.push(marginal_gain(store, cand, chosen, slice)?);
    }
    Ok(out)
}

/// Score the whole pool (sharded across `exec`) and return the index
/// and gain of the best candidate, or `None` when nothing adds
/// coverage. The winner is keyed on candidate *content*, so the answer
/// is independent of pool order and worker count.
fn best_candidate<S: StoreRef>(
    exec: &Executor,
    store: &S,
    pool: &[Arc<Cand>],
    chosen: &Arc<Vec<Vec<Cond>>>,
    slice: Option<Cond>,
    budget: &Budget,
) -> Result<Option<(usize, u64)>, ExploreError> {
    if pool.is_empty() {
        return Ok(None);
    }
    let shards = exec.width().min(pool.len()).max(1);
    let gains: Vec<u64> = if shards <= 1 {
        score_shard(store.store(), pool, chosen, slice, budget)?
    } else {
        type Job = Box<dyn FnOnce() -> Result<Vec<u64>, ExploreError> + Send>;
        let chunk = pool.len().div_ceil(shards);
        let jobs: Vec<Job> = pool
            .chunks(chunk)
            .map(|shard| {
                let shard: Vec<Arc<Cand>> = shard.to_vec();
                let store = store.clone();
                let chosen = Arc::clone(chosen);
                let budget = budget.clone();
                Box::new(move || score_shard(store.store(), &shard, &chosen, slice, &budget)) as Job
            })
            .collect();
        gather_in_order(exec.scatter(jobs))?
            .into_iter()
            .flatten()
            .collect()
    };
    // `gains` has one entry per pool candidate, in pool order.
    let mut best: Option<(usize, u64, &Cand)> = None;
    for (i, (&g, cand)) in gains.iter().zip(pool).enumerate() {
        let better = best.is_none_or(|(_, bg, b)| {
            let (ci, cb) = (&cand.conds, &b.conds);
            g > bg || (g == bg && (ci.len(), ci) < (cb.len(), cb))
        });
        if better {
            best = Some((i, g, cand));
        }
    }
    Ok(best.map(|(i, g, _)| (i, g)).filter(|&(_, g)| g > 0))
}

/// Spawn the two-condition refinements of a just-selected single
/// condition into the pool, deduplicating against everything already
/// generated (two parents can refine to the same child).
fn expand_children(
    store: &CubeStore,
    parent: &Cand,
    seen: &mut HashSet<Vec<Cond>>,
    pool: &mut Vec<Arc<Cand>>,
    budget: &Budget,
) -> Result<(), ExploreError> {
    let Some(&p) = parent.conds.first() else {
        return Ok(());
    };
    for &b in store.attrs() {
        if b == p.attr {
            continue;
        }
        budget.check()?;
        fail::inject(Seam::ExploreScan)?;
        let sub = conditioned(store, p, b)?;
        let mut fresh = Vec::new();
        push_cands_from(&sub, &[p], &mut fresh)?;
        for cand in fresh {
            if seen.insert(cand.conds.clone()) {
                pool.push(cand);
            }
        }
    }
    Ok(())
}

/// Run the greedy loop for up to `k` summaries over a prebuilt pool.
///
/// Degradation contract: a budget expiry (or injected `explore.step`
/// fault) after at least one summary completed returns a partial
/// outcome with `truncated = true`; before anything completed, the
/// fault propagates so the service layer can answer with a typed
/// overload envelope.
pub(crate) fn greedy<S: StoreRef>(
    exec: &Executor,
    store: &S,
    mut pool: Vec<Arc<Cand>>,
    slice: Option<Cond>,
    k: usize,
    expand: bool,
    budget: &Budget,
) -> Result<GreedyOutcome, ExploreError> {
    let cs = store.store();
    let mut seen: HashSet<Vec<Cond>> = pool.iter().map(|c| c.conds.clone()).collect();
    let mut chosen_conds: Vec<Vec<Cond>> = Vec::new();
    let mut out = GreedyOutcome::default();
    while out.picks.len() < k && !pool.is_empty() {
        if let Err(e) = budget.check() {
            if out.picks.is_empty() {
                return Err(e.into());
            }
            out.truncated = true;
            break;
        }
        out.steps += 1;
        let shared = Arc::new(chosen_conds.clone());
        let best = match best_candidate(exec, store, &pool, &shared, slice, budget) {
            Ok(b) => b,
            Err(e @ ExploreError::Fault(_)) => {
                if out.picks.is_empty() {
                    return Err(e);
                }
                out.truncated = true;
                break;
            }
            Err(e) => return Err(e),
        };
        let Some((idx, gain)) = best else { break };
        let cand = pool.swap_remove(idx);
        chosen_conds.push(cand.conds.clone());
        out.covered += gain;
        let expand_this = expand && cand.conds.len() == 1;
        out.picks.push(Picked {
            cand: Arc::clone(&cand),
            gain,
        });
        if expand_this {
            match expand_children(cs, &cand, &mut seen, &mut pool, budget) {
                Ok(()) => {}
                Err(ExploreError::Fault(_)) => {
                    out.truncated = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        if fail::inject(Seam::ExploreStep).is_err() {
            out.truncated = true;
            break;
        }
    }
    Ok(out)
}
