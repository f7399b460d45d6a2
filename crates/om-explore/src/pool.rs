//! Candidate pool construction and cube-backed support / overlap
//! arithmetic. Everything here is exact cube reads — no row scans.

use std::sync::Arc;

use om_cube::{CubeStore, RuleCube};
use om_data::ValueId;
use om_fault::fail::{self, Seam};
use om_fault::Budget;

use crate::error::ExploreError;

/// One `attribute = value` condition of a summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cond {
    /// Schema index of the attribute.
    pub attr: usize,
    /// Value id within the attribute's domain.
    pub value: ValueId,
}

/// A candidate summary: its conditions (sorted by attribute, excluding
/// any slice condition shared by the whole pool), exact support within
/// the explored population, and per-class counts for confidence.
#[derive(Debug, Clone)]
pub(crate) struct Cand {
    pub conds: Vec<Cond>,
    pub support: u64,
    pub class_counts: Vec<u64>,
}

/// Exact support of a 1- or 2-condition conjunction from the store's
/// cubes. Two-condition cells are read from the (order-insensitive)
/// pair cube, oriented by its dimension order.
pub(crate) fn support_exact(store: &CubeStore, conds: &[Cond]) -> Result<u64, ExploreError> {
    match conds {
        [c] => Ok(store.one_dim(c.attr)?.cell_total(&[c.value])?),
        [c1, c2] => {
            let pair = store.pair(c1.attr, c2.attr)?;
            let first = pair.dims().first().ok_or_else(|| {
                ExploreError::Invalid(format!(
                    "pair cube ({}, {}) has no dimensions",
                    c1.attr, c2.attr
                ))
            })?;
            let coords = if first.attr_index == c1.attr {
                [c1.value, c2.value]
            } else {
                [c2.value, c1.value]
            };
            Ok(pair.cell_total(&coords)?)
        }
        _ => Err(ExploreError::Invalid(format!(
            "unsupported conjunction width {}",
            conds.len()
        ))),
    }
}

/// Upper bound on `|rows(a) ∩ rows(b)|` within the sliced population.
///
/// The union of the two condition sets (plus the slice) either
/// conflicts on an attribute (overlap is exactly 0), fits in a single
/// cube cell (≤ 2 conditions: exact), or is bounded by the minimum
/// support over all its condition pairs — a Bonferroni bound. Because
/// this *over*-estimates overlap, every greedy marginal is a lower
/// bound and accumulated coverage never exceeds the universe.
pub(crate) fn overlap_upper(
    store: &CubeStore,
    a: &[Cond],
    b: &[Cond],
    slice: Option<Cond>,
) -> Result<u64, ExploreError> {
    let mut merged: Vec<Cond> = Vec::with_capacity(a.len() + b.len() + 1);
    for &c in slice.iter().chain(a.iter()).chain(b.iter()) {
        match merged.iter().find(|m| m.attr == c.attr) {
            Some(m) if m.value != c.value => return Ok(0),
            Some(_) => {}
            None => merged.push(c),
        }
    }
    merged.sort_unstable();
    if merged.len() <= 2 {
        return support_exact(store, &merged);
    }
    let mut best = u64::MAX;
    for (i, &a) in merged.iter().enumerate() {
        for &b in merged.iter().skip(i + 1) {
            best = best.min(support_exact(store, &[a, b])?);
            if best == 0 {
                return Ok(0);
            }
        }
    }
    Ok(best)
}

/// The one-dimensional cube over `b` restricted to rows matching `s`:
/// the `(s.attr, b)` pair cube sliced at `s.value`
/// ([`om_cube::conditioned_one_dim`]).
pub(crate) fn conditioned(store: &CubeStore, s: Cond, b: usize) -> Result<RuleCube, ExploreError> {
    Ok(om_cube::conditioned_one_dim(store, s.attr, s.value, b)?)
}

/// Append one candidate per non-empty value of `cube`'s first (and
/// only attribute) dimension, with `extra` prepended to the condition
/// set. `cube` must be one-dimensional (a one-dim store cube or a
/// sliced pair cube).
pub(crate) fn push_cands_from(
    cube: &RuleCube,
    extra: &[Cond],
    pool: &mut Vec<Arc<Cand>>,
) -> Result<(), ExploreError> {
    let dim = cube
        .dims()
        .first()
        .ok_or_else(|| ExploreError::Invalid("candidate cube has no dimensions".into()))?;
    let attr = dim.attr_index;
    for w in 0..dim.cardinality() {
        let v = ValueId::try_from(w).map_err(|_| {
            ExploreError::Invalid(format!("value index {w} overflows the id space"))
        })?;
        let support = cube.cell_total(&[v])?;
        if support == 0 {
            continue;
        }
        let mut class_counts = Vec::with_capacity(cube.n_classes());
        for c in 0..cube.n_classes() {
            let cid = ValueId::try_from(c).map_err(|_| {
                ExploreError::Invalid(format!("class index {c} overflows the id space"))
            })?;
            class_counts.push(cube.count(&[v], cid)?);
        }
        let mut conds = extra.to_vec();
        conds.push(Cond { attr, value: v });
        conds.sort_unstable();
        pool.push(Arc::new(Cand {
            conds,
            support,
            class_counts,
        }));
    }
    Ok(())
}

/// Build the initial candidate pool: every single `attribute = value`
/// condition with non-zero support within the (optionally sliced)
/// population. One budget check and one `explore.scan` failpoint per
/// attribute, so a 600-attribute store degrades attribute-by-attribute.
pub(crate) fn build_pool(
    store: &CubeStore,
    slice: Option<Cond>,
    budget: &Budget,
) -> Result<Vec<Arc<Cand>>, ExploreError> {
    let mut pool = Vec::new();
    match slice {
        None => {
            for &a in store.attrs() {
                budget.check()?;
                fail::inject(Seam::ExploreScan)?;
                let one = store.one_dim(a)?;
                push_cands_from(&one, &[], &mut pool)?;
            }
        }
        Some(s) => {
            for &b in store.attrs() {
                if b == s.attr {
                    continue;
                }
                budget.check()?;
                fail::inject(Seam::ExploreScan)?;
                let sub = conditioned(store, s, b)?;
                push_cands_from(&sub, &[], &mut pool)?;
            }
        }
    }
    Ok(pool)
}
