//! Crash-recovery chaos suite: kill the append→seal→merge protocol at
//! each stage via injected faults, restart over the same WAL directory,
//! and require the recovered store to be count-identical to a run that
//! never crashed.
//!
//! One test function walks all stages sequentially — the failpoint
//! registry is process-global, so scenarios must not run concurrently.

use std::path::{Path, PathBuf};

use om_compare::{Comparator, ComparisonSpec};
use om_cube::{CubeStore, SharedStore, StoreBuildOptions};
use om_data::{Dataset, ValueId};
use om_fault::fail::{self, Action, Seam};
use om_ingest::{IngestConfig, IngestHandle};
use om_synth::{generate_scaleup, ScaleUpConfig};

fn dataset(n_records: usize, seed: u64) -> Dataset {
    generate_scaleup(&ScaleUpConfig {
        n_attrs: 4,
        n_records,
        seed,
        ..ScaleUpConfig::default()
    })
}

fn rows_of(ds: &Dataset) -> Vec<Vec<ValueId>> {
    let n_attrs = ds.schema().n_attributes();
    let cols: Vec<&[ValueId]> = (0..n_attrs)
        .map(|i| ds.column(i).as_categorical().expect("categorical"))
        .collect();
    (0..ds.n_rows())
        .map(|r| cols.iter().map(|c| c[r]).collect())
        .collect()
}

fn shared_over(ds: &Dataset) -> SharedStore {
    SharedStore::new(CubeStore::build(ds, &StoreBuildOptions::default()).unwrap())
}

fn start(base: &Dataset, shared: &SharedStore, dir: &Path) -> IngestHandle {
    IngestHandle::start(
        base.schema().clone(),
        &[],
        shared.clone(),
        &IngestConfig {
            wal_dir: dir.to_path_buf(),
            seal_rows: 200,
            sync_writes: true,
        },
    )
    .unwrap()
}

fn assert_stores_equal(a: &CubeStore, b: &CubeStore, stage: &str) {
    assert_eq!(a.total_records(), b.total_records(), "{stage}: totals");
    assert_eq!(a.class_counts(), b.class_counts(), "{stage}: class counts");
    for &i in a.attrs() {
        assert_eq!(
            *a.one_dim(i).unwrap(),
            *b.one_dim(i).unwrap(),
            "{stage}: 1-D cube {i}"
        );
    }
    for (i, &x) in a.attrs().iter().enumerate() {
        for &y in &a.attrs()[i + 1..] {
            assert_eq!(
                *a.pair(x, y).unwrap(),
                *b.pair(x, y).unwrap(),
                "{stage}: pair cube ({x},{y})"
            );
        }
    }
}

/// A full ranked comparison over both stores must agree bit-for-bit:
/// identical counts feed identical arithmetic, so even the float scores
/// match exactly.
fn assert_comparisons_equal(a: &CubeStore, b: &CubeStore, stage: &str) {
    let spec = ComparisonSpec {
        attr: a.attrs()[0],
        value_1: 0,
        value_2: 1,
        class: 0,
    };
    let ra = Comparator::new(a).compare(&spec).unwrap();
    let rb = Comparator::new(b).compare(&spec).unwrap();
    assert_eq!(ra.cf1.to_bits(), rb.cf1.to_bits(), "{stage}: cf1");
    assert_eq!(ra.cf2.to_bits(), rb.cf2.to_bits(), "{stage}: cf2");
    assert_eq!(ra.ranked.len(), rb.ranked.len(), "{stage}: rank length");
    for (x, y) in ra.ranked.iter().zip(&rb.ranked) {
        assert_eq!(x.attr, y.attr, "{stage}: rank order");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{stage}: score of {}",
            x.attr_name
        );
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("om-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn crash_at_every_protocol_stage_recovers_exact_counts() {
    let base = dataset(1_200, 20);
    let live = dataset(700, 21);

    // Ground truth: the same rows ingested with no faults at all.
    let clean_dir = tmp_dir("clean");
    let clean_shared = shared_over(&base);
    let clean = start(&base, &clean_shared, &clean_dir);
    clean.append_rows(rows_of(&live)).unwrap();
    clean.flush().unwrap();
    let truth = clean_shared.snapshot();

    for (stage, seam) in [
        ("append", Seam::IngestAppend),
        ("seal", Seam::IngestSeal),
        ("merge", Seam::IngestMerge),
    ] {
        let dir = tmp_dir(stage);
        // Life 1: the fault fires mid-protocol, then the process "dies"
        // (handle dropped without flushing).
        {
            let shared = shared_over(&base);
            let handle = start(&base, &shared, &dir);
            fail::configure(seam, Action::Error(format!("killed at {stage}")));
            let result = handle.append_rows(rows_of(&live));
            // Drain the compactor while the fault is still armed so a
            // merge-stage fault deterministically drops its delta.
            let _ = handle.flush();
            fail::reset();
            match stage {
                // An append fault rejects the batch before any WAL write:
                // re-submit after the "transient" fault clears, as a
                // client retrying a 500 would.
                "append" => {
                    assert!(result.is_err());
                    handle.append_rows(rows_of(&live)).unwrap();
                }
                // A seal fault strikes *after* the rows are WAL-durable:
                // the caller sees an error but must not retry — recovery
                // owns those rows now.
                "seal" => assert!(result.is_err()),
                // A merge fault is invisible to the writer (the compactor
                // drops the delta in memory); the WAL still has it, and
                // the drop is accounted rather than silent.
                _ => {
                    assert!(result.is_ok());
                    assert_eq!(
                        handle.stats().merge_failures_total,
                        1,
                        "{stage}: dropped delta must be counted"
                    );
                }
            }
            handle.shutdown();
        }
        // Life 2: fresh base rebuild + WAL replay must reproduce the
        // never-crashed counts exactly.
        let shared = shared_over(&base);
        let handle = start(&base, &shared, &dir);
        handle.flush().unwrap();
        assert_eq!(handle.stats().rows_total, 700, "{stage}: rows recovered");
        assert_stores_equal(shared.snapshot().store(), truth.store(), stage);
        assert_comparisons_equal(shared.snapshot().store(), truth.store(), stage);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    clean.shutdown();
    std::fs::remove_dir_all(&clean_dir).unwrap();
}
