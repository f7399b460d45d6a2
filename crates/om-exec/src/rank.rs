//! Sharded ranking: Fig. 3's per-attribute loop split across the pool.
//!
//! Determinism contract: [`rank_parallel`] produces output
//! **byte-identical** to [`om_compare::Comparator::compare_budgeted`]
//! for every store, spec and worker count. It holds by construction:
//! both paths run the same `normalize → score_candidate → assemble`
//! stages from om-compare; the only thing sharding changes is *which
//! thread* scores each attribute, and the per-shard score vectors are
//! concatenated back into exact store-attribute order before the stable
//! canonical sorts.

use std::sync::Arc;

use om_compare::{
    assemble, normalize, score_candidate, AttrScore, CompareConfig, CompareError, ComparisonResult,
    ComparisonSpec, NormalizedSpec,
};
use om_cube::{CubeStore, StoreSnapshot};
use om_fault::fail::{self, Seam};
use om_fault::Budget;

use crate::pool::Executor;

/// A cheaply clonable, thread-shareable handle to a cube store — the
/// form a store must take to be fanned out to pool workers. Both the
/// engine's epoch snapshots and ad-hoc `Arc<CubeStore>`s qualify.
pub trait StoreRef: Clone + Send + Sync + 'static {
    /// The underlying store.
    fn store(&self) -> &CubeStore;
}

impl StoreRef for Arc<CubeStore> {
    fn store(&self) -> &CubeStore {
        self
    }
}

impl StoreRef for Arc<StoreSnapshot> {
    fn store(&self) -> &CubeStore {
        self
    }
}

/// Rank all candidate attributes for `spec`, sharding the loop across
/// `exec`'s workers. With a width-1 executor this is exactly the serial
/// comparator; wider executors split the candidate set into one
/// contiguous shard per worker.
///
/// The budget is checked once per attribute inside every shard, so an
/// expired deadline stops each shard within one attribute's worth of
/// work — same granularity as serial.
///
/// # Errors
/// See [`CompareError`]; when shards fail concurrently the error of the
/// earliest shard (lowest attribute positions) wins, matching the error
/// serial execution would have hit first.
pub fn rank_parallel<S: StoreRef>(
    exec: &Executor,
    store: &S,
    config: &CompareConfig,
    spec: &ComparisonSpec,
    budget: &Budget,
) -> Result<ComparisonResult, CompareError> {
    budget.check()?;
    fail::inject(Seam::ExecRank)?;
    let norm = normalize(store.store(), config, spec)?;
    let candidates: Vec<usize> = store
        .store()
        .attrs()
        .iter()
        .copied()
        .filter(|&a| a != norm.spec.attr)
        .collect();
    let shards = exec.width().min(candidates.len()).max(1);
    if shards <= 1 {
        let scores = score_shard(store.store(), config, &norm, &candidates, budget)?;
        return Ok(assemble(norm, scores, config));
    }

    type ShardJob = Box<dyn FnOnce() -> Result<Vec<AttrScore>, CompareError> + Send>;
    let chunk = candidates.len().div_ceil(shards);
    let jobs: Vec<ShardJob> = candidates
        .chunks(chunk)
        .map(|shard| {
            let store = store.clone();
            let config = config.clone();
            let norm = norm.clone();
            let shard = shard.to_vec();
            let budget = budget.clone();
            Box::new(move || score_shard(store.store(), &config, &norm, &shard, &budget))
                as ShardJob
        })
        .collect();

    let scores = gather_in_order(exec.scatter(jobs))?
        .into_iter()
        .flatten()
        .collect();
    Ok(assemble(norm, scores, config))
}

/// Deterministic merge of per-shard partial results: shards are gathered
/// in shard order and the **earliest** shard's error wins — the error a
/// serial execution over the concatenated shards would have reached
/// first. This is the merge rule `rank_parallel` applies to in-process
/// pool shards, exported so a distributed coordinator can apply the
/// identical rule to per-process shards.
///
/// # Errors
/// The first (lowest-index) shard error, verbatim.
pub fn gather_in_order<T, E>(shards: impl IntoIterator<Item = Result<T, E>>) -> Result<Vec<T>, E> {
    let mut out = Vec::new();
    for shard in shards {
        out.push(shard?);
    }
    Ok(out)
}

/// Score one contiguous shard of candidate attributes, in order.
fn score_shard(
    store: &CubeStore,
    config: &CompareConfig,
    norm: &NormalizedSpec,
    shard: &[usize],
    budget: &Budget,
) -> Result<Vec<AttrScore>, CompareError> {
    let mut out = Vec::with_capacity(shard.len());
    for &other in shard {
        budget.check()?;
        out.push(score_candidate(store, config, norm, other)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_compare::Comparator;
    use om_cube::StoreBuildOptions;
    use om_synth::paper_scenario;

    fn fixture() -> (Arc<CubeStore>, ComparisonSpec) {
        let (ds, truth) = paper_scenario(20_000, 11);
        let store = Arc::new(CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap());
        let s = ds.schema();
        let attr = s.attr_index(&truth.compare_attr).unwrap();
        let spec = ComparisonSpec {
            attr,
            value_1: s
                .attribute(attr)
                .domain()
                .get(&truth.baseline_value)
                .unwrap(),
            value_2: s.attribute(attr).domain().get(&truth.target_value).unwrap(),
            class: s.class().domain().get(&truth.target_class).unwrap(),
        };
        (store, spec)
    }

    #[test]
    fn parallel_equals_serial_across_widths() {
        let (store, spec) = fixture();
        let config = CompareConfig::default();
        let serial = Comparator::new(&store).compare(&spec).unwrap();
        for workers in [1, 2, 3, 8] {
            let exec = Executor::new(&crate::ExecConfig { workers });
            let parallel =
                rank_parallel(&exec, &store, &config, &spec, &Budget::unlimited()).unwrap();
            assert_eq!(parallel, serial, "workers={workers}");
        }
    }

    #[test]
    fn expired_budget_faults() {
        let (store, spec) = fixture();
        let exec = Executor::new(&crate::ExecConfig { workers: 4 });
        let spent = Budget::with_timeout(std::time::Duration::ZERO);
        let r = rank_parallel(&exec, &store, &CompareConfig::default(), &spec, &spent);
        assert!(matches!(r, Err(CompareError::Fault(_))), "{r:?}");
    }

    #[test]
    fn invalid_spec_errors_before_touching_the_pool() {
        let (store, spec) = fixture();
        let exec = Executor::serial();
        let bad = ComparisonSpec {
            value_2: spec.value_1,
            ..spec
        };
        let r = rank_parallel(
            &exec,
            &store,
            &CompareConfig::default(),
            &bad,
            &Budget::unlimited(),
        );
        assert!(matches!(r, Err(CompareError::InvalidSpec(_))));
    }
}
