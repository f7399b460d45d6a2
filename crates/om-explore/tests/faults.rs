//! Fault seams in smart drill-down: an armed `explore.step` truncates to
//! a partial prefix, an armed `explore.scan` before the first summary
//! propagates as a typed fault.
//!
//! The failpoint registry is process-global, so these tests live in a
//! binary of their own and serialize on one lock: no other explore test
//! can cross an armed seam.

use std::sync::{Arc, Mutex, MutexGuard};

use om_compare::CompareConfig;
use om_cube::{CubeStore, StoreBuildOptions};
use om_exec::Executor;
use om_explore::{explore, ExploreError, ExploreQuery, ExploreReport};
use om_fault::fail::{self, Action, Seam};
use om_fault::{Budget, FaultError};
use om_synth::paper_scenario;

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn explore_top5(store: &Arc<CubeStore>) -> Result<ExploreReport, ExploreError> {
    explore(
        &Executor::serial(),
        store,
        &CompareConfig::default(),
        &ExploreQuery::top_k(5),
        &Budget::unlimited(),
    )
}

fn store() -> Arc<CubeStore> {
    let (ds, _) = paper_scenario(4_000, 7);
    Arc::new(CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap())
}

#[test]
fn step_fault_truncates_with_a_partial_prefix() {
    let _g = guard();
    let store = store();
    let full = explore_top5(&store).unwrap();
    fail::configure(Seam::ExploreStep, Action::Error("injected".into()));
    let partial = explore_top5(&store);
    fail::remove(Seam::ExploreStep);
    let partial = partial.unwrap();
    assert!(partial.truncated);
    assert_eq!(
        partial.summaries.len(),
        1,
        "one step completed before the fault"
    );
    assert_eq!(
        partial.summaries[0], full.summaries[0],
        "partial is a prefix"
    );
}

#[test]
fn scan_fault_before_any_summary_propagates() {
    let _g = guard();
    let store = store();
    fail::configure(Seam::ExploreScan, Action::Error("injected".into()));
    let r = explore_top5(&store);
    fail::remove(Seam::ExploreScan);
    assert!(
        matches!(r, Err(ExploreError::Fault(FaultError::Injected(_)))),
        "{r:?}"
    );
}
