//! Smart drill-down over the rule-cube store (arxiv 1412.0364), chained
//! with the comparator.
//!
//! The operator answers "where should I look first?": given an optional
//! slice of the population, [`explore`] returns the top-k rule
//! *summaries* — conjunctions of `attribute = value` conditions with
//! every other attribute wildcarded — chosen greedily to maximize
//! **weighted coverage**:
//!
//! ```text
//! score(S) = Σ_r w(r) · marginal-coverage(r, S)
//! ```
//!
//! where a row covered by a summary with `s` non-⋆ conditions counts
//! with weight `s`, and the marginal of a candidate only credits weight
//! *above* what already-selected summaries gave the row. The objective
//! is monotone submodular, so the greedy loop carries the classic
//! `(1 − 1/e)` approximation guarantee.
//!
//! Everything is computed from the store's one- and two-dimensional
//! cubes — no row scans. Supports of single conditions and pairs are
//! exact cube cells; the residual overlap of wider conjunctions is
//! upper-bounded by the minimum over their pair supports (a Bonferroni
//! bound), which makes every reported marginal a *lower* bound on the
//! true marginal and keeps accumulated coverage within the weighted
//! total `max_conditions × universe` by construction.
//!
//! Budgets degrade, never panic: the greedy loop checks its
//! [`Budget`] once per candidate and once per step. An expired budget
//! with at least one summary selected returns a partial report with
//! `truncated = true`; expiring before anything completes surfaces the
//! fault to the caller (a typed 503 at the service layer).
//!
//! The second mode, [`explore_compare`](compare), drills *both*
//! sub-populations of a comparison and interleaves the two summary
//! streams by where the distinguishing mass (the paper's
//! `W_k = max(F_k, 0) · N_2k` contribution weights) concentrates. The
//! two candidate pools are built in one shared scan — each `(selected,
//! other)` pair cube is fetched once and sliced twice, the same
//! memoization `om-exec::run_batch` applies to batched drills.

// Request-path crate: a panic here is a 500 or a dead worker, so every
// panicking construct is denied outside unit tests. A site that cannot
// fire says why in `#[expect(clippy::indexing_slicing, reason = ...)]`;
// om-lint's tier-1 clippy test enforces both (docs/lint.md).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::string_slice
    )
)]

mod compare;
mod error;
mod greedy;
mod pool;
mod query;
mod report;

pub use error::ExploreError;
pub use pool::Cond;
pub use query::{CompareNames, ExploreQuery};
pub use report::{CompareMeta, CondLabel, ExploreReport, SummaryRow};

use om_compare::CompareConfig;
use om_cube::CubeStore;
use om_data::ValueId;
use om_exec::{Executor, StoreRef};
use om_fault::Budget;

use crate::greedy::greedy;
use crate::pool::{build_pool, support_exact};

/// Upper bound on `k`; keeps a hostile request from asking for an
/// unbounded greedy loop.
pub const MAX_K: usize = 1_000;

/// Widest conjunction a summary can carry. The store holds one- and
/// two-dimensional cubes, so supports and overlaps of up to two
/// conditions are exact; requests asking for more are clamped here.
pub const MAX_CONDITIONS: usize = 2;

/// Run a smart drill-down query against `store`.
///
/// Candidate scoring is sharded across `exec`'s workers; the result is
/// byte-identical for every worker count (u64 gain arithmetic, content-
/// keyed tie-breaking). `config` parameterizes the embedded comparison
/// when `query.compare` is set.
///
/// # Errors
/// [`ExploreError::Invalid`] for malformed queries,
/// [`ExploreError::Unknown`] for names absent from the store,
/// [`ExploreError::Fault`] when the budget expires before any summary
/// completes (later expiry truncates instead), and
/// [`ExploreError::Cube`] when the store itself fails.
pub fn explore<S: StoreRef>(
    exec: &Executor,
    store: &S,
    config: &CompareConfig,
    query: &ExploreQuery,
    budget: &Budget,
) -> Result<ExploreReport, ExploreError> {
    budget.check()?;
    let cs = store.store();
    validate(query)?;
    if let Some(names) = &query.compare {
        return compare::explore_compare(exec, store, config, names, query, budget);
    }
    let slice = resolve_slice(cs, &query.slice)?;
    let max_conditions = effective_max_conditions(query, slice.is_some())?;
    let universe = match slice {
        None => cs.total_records(),
        Some(s) => support_exact(cs, &[s])?,
    };
    let pool = build_pool(cs, slice, budget)?;
    let expand = slice.is_none() && max_conditions >= 2;
    let outcome = greedy(exec, store, pool, slice, query.k, expand, budget)?;
    report::assemble(cs, universe, &outcome, None)
}

fn validate(query: &ExploreQuery) -> Result<(), ExploreError> {
    if query.k == 0 {
        return Err(ExploreError::Invalid("k must be at least 1".into()));
    }
    if query.k > MAX_K {
        return Err(ExploreError::Invalid(format!(
            "k {} exceeds the maximum of {MAX_K}",
            query.k
        )));
    }
    if query.compare.is_some() && !query.slice.is_empty() {
        return Err(ExploreError::Invalid(
            "compare mode drills both compared sub-populations; a slice cannot be combined with it"
                .into(),
        ));
    }
    Ok(())
}

/// Clamp `max_conditions` to what the store can answer exactly.
///
/// The bound counts *all* conditions of a reported summary, including
/// the slice condition, so a sliced exploration needs room for the
/// slice plus at least one drill condition.
fn effective_max_conditions(query: &ExploreQuery, sliced: bool) -> Result<usize, ExploreError> {
    let mc = query.max_conditions.unwrap_or(MAX_CONDITIONS);
    if mc == 0 {
        return Err(ExploreError::Invalid(
            "max_conditions must be at least 1".into(),
        ));
    }
    if sliced && mc < 2 {
        return Err(ExploreError::Invalid(
            "max_conditions must exceed the slice width".into(),
        ));
    }
    Ok(mc.min(MAX_CONDITIONS))
}

fn resolve_slice(cs: &CubeStore, slice: &[(String, String)]) -> Result<Option<Cond>, ExploreError> {
    match slice {
        [] => Ok(None),
        [(attr, value)] => {
            let a = attr_by_name(cs, attr)?;
            let one = cs.one_dim(a)?;
            let dim = one.dims().first().ok_or_else(|| {
                ExploreError::Invalid(format!(
                    "one-dim cube for attribute {attr:?} has no dimension"
                ))
            })?;
            let v = value_by_label(dim, value)?;
            Ok(Some(Cond { attr: a, value: v }))
        }
        _ => Err(ExploreError::Invalid(
            "slice supports at most one condition (the store holds one- and two-dimensional cubes)"
                .into(),
        )),
    }
}

/// Resolve an attribute by schema name, store-side.
///
/// The lookup goes through the one-dim cube dimensions rather than a
/// dataset schema so it works identically on a coordinator's merged
/// store, which has no dataset behind it.
pub(crate) fn attr_by_name(cs: &CubeStore, name: &str) -> Result<usize, ExploreError> {
    for &a in cs.attrs() {
        let one = cs.one_dim(a)?;
        if one.dims().first().is_some_and(|d| &*d.name == name) {
            return Ok(a);
        }
    }
    Err(ExploreError::Unknown(format!("unknown attribute {name:?}")))
}

pub(crate) fn value_by_label(dim: &om_cube::CubeDim, label: &str) -> Result<ValueId, ExploreError> {
    let pos = dim.labels.iter().position(|l| l == label).ok_or_else(|| {
        ExploreError::Unknown(format!(
            "unknown value {label:?} for attribute {:?}",
            dim.name
        ))
    })?;
    ValueId::try_from(pos)
        .map_err(|_| ExploreError::Invalid(format!("value index {pos} overflows the id space")))
}

pub(crate) fn class_by_label(cs: &CubeStore, label: &str) -> Result<ValueId, ExploreError> {
    let pos = cs
        .class_labels()
        .iter()
        .position(|l| l == label)
        .ok_or_else(|| ExploreError::Unknown(format!("unknown class {label:?}")))?;
    ValueId::try_from(pos)
        .map_err(|_| ExploreError::Invalid(format!("class index {pos} overflows the id space")))
}
