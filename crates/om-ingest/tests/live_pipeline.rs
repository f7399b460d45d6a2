//! End-to-end ingestion: append → seal → compact → publish, recovery
//! after an unclean shutdown, and the no-torn-reads guarantee under
//! concurrent query load.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use om_cube::{CubeStore, SharedStore, StoreBuildOptions};
use om_data::{Dataset, ValueId};
use om_ingest::{IngestConfig, IngestHandle};
use om_synth::{generate_scaleup, ScaleUpConfig};

fn dataset(n_records: usize, seed: u64) -> Dataset {
    generate_scaleup(&ScaleUpConfig {
        n_attrs: 5,
        n_records,
        seed,
        ..ScaleUpConfig::default()
    })
}

/// Every row of `ds` as schema-ordered `ValueId` vectors.
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

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("om-ingest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_stores_equal(a: &CubeStore, b: &CubeStore) {
    assert_eq!(a.total_records(), b.total_records());
    assert_eq!(a.class_counts(), b.class_counts());
    for &i in a.attrs() {
        assert_eq!(*a.one_dim(i).unwrap(), *b.one_dim(i).unwrap());
    }
    for (i, &x) in a.attrs().iter().enumerate() {
        for &y in &a.attrs()[i + 1..] {
            assert_eq!(*a.pair(x, y).unwrap(), *b.pair(x, y).unwrap());
        }
    }
}

#[test]
fn ingested_rows_reach_the_published_snapshot() {
    let base = dataset(2_000, 1);
    let live = dataset(1_000, 2);
    let dir = tmp_dir("publish");
    let shared = shared_over(&base);
    let handle = IngestHandle::start(
        base.schema().clone(),
        &[],
        shared.clone(),
        &IngestConfig {
            wal_dir: dir.clone(),
            seal_rows: 256,
            sync_writes: false,
        },
    )
    .unwrap();

    let before = shared.snapshot();
    assert_eq!(before.generation(), 0);
    for chunk in rows_of(&live).chunks(100) {
        handle.append_rows(chunk.to_vec()).unwrap();
    }
    handle.flush().unwrap();

    let after = shared.snapshot();
    assert!(after.generation() >= 1);
    assert_eq!(after.total_records(), 3_000);
    // The pinned pre-ingest snapshot is untouched.
    assert_eq!(before.total_records(), 2_000);

    // The published store equals a batch rebuild over the union.
    let mut union = base.clone();
    union.append(&live).unwrap();
    let direct = CubeStore::build(&union, &StoreBuildOptions::default()).unwrap();
    assert_stores_equal(after.store(), &direct);

    let stats = handle.stats();
    assert_eq!(stats.rows_total, 1_000);
    assert!(
        stats.segments_sealed_total >= 3,
        "256-row seals over 1000 rows"
    );
    assert!(stats.compactions_total >= 1);
    assert!(stats.wal_bytes > 0);
    assert_eq!(stats.store_generation, after.generation());

    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restart_recovers_to_identical_counts() {
    let base = dataset(1_500, 3);
    let live = dataset(900, 4);
    let dir = tmp_dir("recover");

    // First life: ingest with a seal threshold that leaves rows both in
    // sealed segments and in the unsealed active segment, then shut down
    // abruptly (no flush).
    {
        let shared = shared_over(&base);
        let handle = IngestHandle::start(
            base.schema().clone(),
            &[],
            shared,
            &IngestConfig {
                wal_dir: dir.clone(),
                seal_rows: 400,
                sync_writes: true,
            },
        )
        .unwrap();
        handle.append_rows(rows_of(&live)).unwrap();
        handle.shutdown();
    }

    // Second life: a fresh base rebuild plus WAL replay.
    let shared = shared_over(&base);
    let handle = IngestHandle::start(
        base.schema().clone(),
        &[],
        shared.clone(),
        &IngestConfig {
            wal_dir: dir.clone(),
            seal_rows: 400,
            sync_writes: true,
        },
    )
    .unwrap();
    assert_eq!(
        handle.stats().rows_total,
        900,
        "every appended row recovered"
    );
    handle.flush().unwrap();

    // A run that never crashed: same rows, sealed and flushed normally.
    let never_dir = tmp_dir("recover-never");
    let never_shared = shared_over(&base);
    let never = IngestHandle::start(
        base.schema().clone(),
        &[],
        never_shared.clone(),
        &IngestConfig {
            wal_dir: never_dir.clone(),
            seal_rows: 400,
            sync_writes: true,
        },
    )
    .unwrap();
    never.append_rows(rows_of(&live)).unwrap();
    never.flush().unwrap();

    assert_stores_equal(shared.snapshot().store(), never_shared.snapshot().store());
    handle.shutdown();
    never.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&never_dir).unwrap();
}

#[test]
fn bad_batches_commit_nothing() {
    let base = dataset(500, 5);
    let dir = tmp_dir("badrow");
    let shared = shared_over(&base);
    let handle = IngestHandle::start(
        base.schema().clone(),
        &[],
        shared.clone(),
        &IngestConfig {
            wal_dir: dir.clone(),
            seal_rows: 64,
            sync_writes: false,
        },
    )
    .unwrap();

    let mut rows = rows_of(&dataset(10, 6));
    rows[7] = vec![9_999; base.schema().n_attributes()];
    assert!(handle.append_rows(rows).is_err());
    let short: Vec<String> = ["definitely", "not", "enough", "fields"]
        .map(String::from)
        .into();
    assert!(handle.append_labeled(&[short]).is_err());
    assert_eq!(
        handle.stats().rows_total,
        0,
        "rejected batches left no trace"
    );
    handle.flush().unwrap();
    assert_eq!(shared.snapshot().total_records(), 500);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_queries_never_see_a_torn_store() {
    let base = dataset(1_000, 7);
    let live = dataset(2_000, 8);
    let dir = tmp_dir("torn-reads");
    let shared = shared_over(&base);
    let handle = IngestHandle::start(
        base.schema().clone(),
        &[],
        shared.clone(),
        &IngestConfig {
            wal_dir: dir.clone(),
            seal_rows: 100,
            sync_writes: false,
        },
    )
    .unwrap();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // 4 readers hammer snapshots, asserting internal consistency:
        // within one generation every cube's total equals the record
        // count and every class margin equals the class counts — a mix
        // of pre- and post-merge cubes would violate both immediately.
        for _ in 0..4 {
            scope.spawn(|| {
                let mut last_generation = 0;
                while !stop.load(Ordering::Relaxed) {
                    let snap = shared.snapshot();
                    assert!(
                        snap.generation() >= last_generation,
                        "generation went backwards"
                    );
                    last_generation = snap.generation();
                    let total = snap.total_records();
                    let class_counts = snap.class_counts().to_vec();
                    for &a in snap.attrs() {
                        let cube = snap.one_dim(a).unwrap();
                        assert_eq!(
                            cube.total(),
                            total,
                            "torn 1-D cube in gen {last_generation}"
                        );
                        assert_eq!(cube.class_margin(), class_counts);
                    }
                    let pair = snap.pair(snap.attrs()[0], snap.attrs()[1]).unwrap();
                    assert_eq!(pair.total(), total, "torn pair cube");
                }
            });
        }
        // Writer: many small batches, constant sealing and publishing.
        for chunk in rows_of(&live).chunks(50) {
            handle.append_rows(chunk.to_vec()).unwrap();
        }
        handle.flush().unwrap();
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(shared.snapshot().total_records(), 3_000);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
