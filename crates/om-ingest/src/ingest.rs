//! The live ingestion pipeline: WAL append → staging → sealed segment →
//! background compaction → snapshot publish.
//!
//! ```text
//!  rows ──► RowParser ──► WAL append (durable) ──► staging buffer
//!                                                     │ seal_rows
//!                                                     ▼
//!                                           sealed segment's rows,
//!                                           transposed to columns
//!                                                     │ channel
//!                                                     ▼
//!                                        compactor thread: fold into
//!                                        master, publish snapshot
//! ```
//!
//! Writers hold the state lock only for the WAL write and an occasional
//! seal (a WAL rotation plus a transpose of at most `seal_rows` rows);
//! queries never touch that lock — they read the [`SharedStore`]'s
//! current generation. The compactor folds every segment waiting in its
//! channel into the master store ([`CubeStore::fold`]: the rows are
//! counted straight into each cube) and publishes once, so cube
//! copy-on-write cost is amortized under bursts.
//!
//! Crash model: a row is durable once its WAL append returned. Recovery
//! ([`IngestHandle::start`]) folds every sealed segment into the store
//! before serving, and reloads the active segment into the staging
//! buffer — counts after a crash are byte-identical to a run that never
//! crashed, because counting is additive over row batches.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;

use om_cube::{CubeStore, SharedStore};
use om_data::{Column, Dataset, Schema, ValueId};
use om_discretize::CutPoints;
use om_fault::fail::{self, Seam};

use crate::error::IngestError;
use crate::row::RowParser;
use crate::wal::Wal;

/// Knobs for a live ingestor.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Directory of WAL segments; created if absent, replayed if not.
    pub wal_dir: PathBuf,
    /// Staged rows that trigger sealing a segment for the compactor.
    pub seal_rows: usize,
    /// Fsync after every append (durable but slower). Benchmarks turn
    /// this off; production keeps it on.
    pub sync_writes: bool,
}

impl IngestConfig {
    /// Defaults: seal every 4096 rows, fsync on.
    pub fn new(wal_dir: impl Into<PathBuf>) -> Self {
        Self {
            wal_dir: wal_dir.into(),
            seal_rows: 4096,
            sync_writes: true,
        }
    }
}

/// Point-in-time ingestion counters (the `/metrics` ingest series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// Rows accepted (durably appended) since start, recovery included.
    pub rows_total: u64,
    /// Segments sealed and handed to the compactor.
    pub segments_sealed_total: u64,
    /// Compactor merge+publish cycles.
    pub compactions_total: u64,
    /// Sealed segments the compactor failed to fold in (each leaves the
    /// served store lagging the WAL until a restart replays the segment).
    pub merge_failures_total: u64,
    /// Currently-published store generation.
    pub store_generation: u64,
    /// Bytes across all WAL segment files.
    pub wal_bytes: u64,
}

#[derive(Default)]
struct Metrics {
    rows: AtomicU64,
    sealed: AtomicU64,
    compactions: AtomicU64,
    merge_failures: AtomicU64,
    wal_bytes: AtomicU64,
}

enum Msg {
    /// One sealed segment's rows, transposed into columns.
    SealedRows(Dataset),
    Barrier(Sender<()>),
}

struct State {
    wal: Wal,
    staging: Vec<Vec<ValueId>>,
}

struct Inner {
    parser: RowParser,
    seal_rows: usize,
    shared: SharedStore,
    // Arc'd because the compactor thread shares the counters; the thread
    // must NOT hold the whole `Inner`, or the drop-to-join cycle would
    // keep both alive forever.
    metrics: Arc<Metrics>,
    state: Mutex<State>,
    tx: Mutex<Option<Sender<Msg>>>,
    compactor: Mutex<Option<JoinHandle<()>>>,
}

/// Clonable handle to a running ingestor. All clones feed the same WAL,
/// staging buffer, and compactor; dropping the last clone shuts the
/// compactor down (after it drains its queue).
#[derive(Clone)]
pub struct IngestHandle {
    inner: Arc<Inner>,
}

/// Transpose a sealed segment's schema-ordered rows into a dataset.
fn segment_dataset(schema: &Schema, rows: &[Vec<ValueId>]) -> Result<Dataset, IngestError> {
    let mut columns: Vec<Vec<ValueId>> = (0..schema.n_attributes())
        .map(|_| Vec::with_capacity(rows.len()))
        .collect();
    for row in rows {
        for (col, &id) in columns.iter_mut().zip(row) {
            col.push(id);
        }
    }
    Ok(Dataset::from_columns(
        schema.clone(),
        columns.into_iter().map(Column::Categorical).collect(),
    )?)
}

/// Fold every queued segment into `master`, publish once per batch.
fn compactor_loop(
    mut master: CubeStore,
    rx: &Receiver<Msg>,
    shared: &SharedStore,
    metrics: &Metrics,
) {
    while let Ok(first) = rx.recv() {
        let mut queue = vec![first];
        while let Ok(more) = rx.try_recv() {
            queue.push(more);
        }
        let mut acks = Vec::new();
        let mut dirty = false;
        for msg in queue {
            match msg {
                Msg::SealedRows(batch) => {
                    // An injected merge fault models the process dying
                    // before compaction: the segment stays WAL-durable
                    // and is replayed on restart.
                    let folded = fail::inject(Seam::IngestMerge)
                        .map_err(IngestError::from)
                        .and_then(|()| Ok(master.fold(&batch)?));
                    match folded {
                        Ok(()) => dirty = true,
                        Err(e) => {
                            // Rows are validated on append, so a real
                            // fold failure means the served store diverges
                            // from the WAL until a restart replays the
                            // segment — it must not vanish silently.
                            metrics.merge_failures.fetch_add(1, Ordering::Relaxed);
                            eprintln!(
                                "om-ingest: compactor dropped a sealed segment ({e}); \
                                 served store lags the WAL until restart"
                            );
                        }
                    }
                }
                Msg::Barrier(ack) => acks.push(ack),
            }
        }
        if dirty {
            shared.publish(master.clone());
            metrics.compactions.fetch_add(1, Ordering::Relaxed);
        }
        for ack in acks {
            let _ = ack.send(());
        }
    }
}

impl IngestHandle {
    /// Start (or recover) a live ingestor over the store currently
    /// published in `shared`.
    ///
    /// `schema` must be the discretized schema the store was built over;
    /// `cuts` are the cut points of originally-continuous attributes so
    /// numeric fields in live rows bin identically to the offline build.
    ///
    /// Recovery: the rows of every sealed WAL segment found in
    /// `config.wal_dir` are folded into the store (then published) before
    /// this returns; the active segment's rows are reloaded into staging.
    ///
    /// # Errors
    /// Schema rejection (continuous attributes, lazy store), WAL I/O,
    /// or a fold failure on corrupted history.
    pub fn start(
        schema: Schema,
        cuts: &[(usize, CutPoints)],
        shared: SharedStore,
        config: &IngestConfig,
    ) -> Result<Self, IngestError> {
        if config.seal_rows == 0 {
            return Err(IngestError::Schema("seal_rows must be at least 1".into()));
        }
        let base = shared.snapshot();
        if !base.is_eager() {
            return Err(IngestError::Schema(
                "live ingestion requires an eager cube store".into(),
            ));
        }
        let parser = RowParser::new(schema, cuts)?;

        let (wal, recovery) = Wal::open(&config.wal_dir, config.sync_writes)?;
        if recovery.torn_tail {
            // The torn rows were never acked (their append/seal did not
            // return), so dropping them is correct — but worth a trace.
            eprintln!(
                "om-ingest: WAL recovery in {} dropped a torn/corrupt segment tail \
                 (rows from an unacknowledged write)",
                config.wal_dir.display()
            );
        }
        let mut master = base.store().clone();
        drop(base);
        let mut recovered_rows = 0u64;
        let mut sealed = 0u64;
        for segment in &recovery.sealed {
            if segment.is_empty() {
                continue;
            }
            recovered_rows += segment.len() as u64;
            sealed += 1;
            master.fold(&segment_dataset(parser.schema(), segment)?)?;
        }
        if sealed > 0 {
            shared.publish(master.clone());
        }
        recovered_rows += recovery.active.len() as u64;

        let (tx, rx) = channel::unbounded::<Msg>();
        let metrics = Arc::new(Metrics {
            rows: AtomicU64::new(recovered_rows),
            sealed: AtomicU64::new(sealed),
            compactions: AtomicU64::new(0),
            merge_failures: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(wal.bytes()),
        });
        let inner = Arc::new(Inner {
            parser,
            seal_rows: config.seal_rows,
            shared: shared.clone(),
            metrics: Arc::clone(&metrics),
            state: Mutex::new(State {
                wal,
                staging: recovery.active,
            }),
            tx: Mutex::new(Some(tx)),
            compactor: Mutex::new(None),
        });
        let handle = std::thread::Builder::new()
            .name("om-ingest-compactor".into())
            .spawn(move || compactor_loop(master, &rx, &shared, &metrics))
            .map_err(IngestError::Io)?;
        *inner.compactor.lock() = Some(handle);

        let this = Self { inner };
        // A recovered staging buffer past the seal threshold (crash
        // landed between append and seal) seals immediately.
        {
            // om-lint: allow(lock-across-io) — single-writer recovery: nothing else can observe the store until open() returns; the seal fsync must complete under the lock
            let mut state = this.inner.state.lock();
            if state.staging.len() >= this.inner.seal_rows {
                this.seal_locked(&mut state)?;
            }
        }
        Ok(this)
    }

    /// Append already-split label rows (the typed `/v1/ingest` path:
    /// each row is every schema attribute's label, class included, in
    /// schema order). All-or-nothing: on any bad row, nothing is
    /// appended. Returns the number of rows accepted.
    ///
    /// # Errors
    /// [`IngestError::BadRow`] on validation failures; WAL/fault errors
    /// on the durability path.
    pub fn append_labeled(&self, rows: &[Vec<String>]) -> Result<usize, IngestError> {
        self.append_label_rows(rows.iter().map(Vec::as_slice))
    }

    /// [`Self::append_labeled`] over rows of any string form, such as
    /// labels still borrowed from the request body that carried them:
    /// each label is read once, into its value id.
    ///
    /// # Errors
    /// As [`Self::append_labeled`].
    pub fn append_label_rows<'r, S: AsRef<str> + 'r>(
        &self,
        rows: impl IntoIterator<Item = &'r [S]>,
    ) -> Result<usize, IngestError> {
        let parsed = rows
            .into_iter()
            .enumerate()
            .map(|(i, fields)| self.inner.parser.parse_fields(fields, i + 1))
            .collect::<Result<Vec<_>, _>>()?;
        self.append_rows(parsed)
    }

    /// Append pre-encoded rows (each: every schema attribute's `ValueId`
    /// in schema order). Validates arity and id ranges.
    ///
    /// # Errors
    /// As [`Self::append_labeled`].
    pub fn append_rows(&self, rows: Vec<Vec<ValueId>>) -> Result<usize, IngestError> {
        let schema = self.inner.parser.schema();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != schema.n_attributes() {
                return Err(IngestError::BadRow {
                    row: i + 1,
                    reason: format!(
                        "expected {} values, got {}",
                        schema.n_attributes(),
                        row.len()
                    ),
                });
            }
            for (attr, &id) in row.iter().enumerate() {
                if id as usize >= schema.attribute(attr).cardinality() {
                    return Err(IngestError::BadRow {
                        row: i + 1,
                        reason: format!(
                            "attribute {:?}: value id {id} out of range",
                            schema.attribute(attr).name()
                        ),
                    });
                }
            }
        }
        if rows.is_empty() {
            return Ok(0);
        }
        let n = rows.len();
        // om-lint: allow(lock-across-io) — the state lock IS the WAL serialization point: appends must hit the log in lock order, so the fsync happens under it by contract (docs/ingest.md)
        let mut state = self.inner.state.lock();
        fail::inject(Seam::IngestAppend)?;
        state.wal.append(&rows)?;
        self.inner
            .metrics
            .rows
            .fetch_add(n as u64, Ordering::Relaxed);
        self.inner
            .metrics
            .wal_bytes
            .store(state.wal.bytes(), Ordering::Relaxed);
        state.staging.extend(rows);
        if state.staging.len() >= self.inner.seal_rows {
            self.seal_locked(&mut state)?;
        }
        Ok(n)
    }

    /// Seal the current staging buffer now, regardless of size, and hand
    /// its rows to the compactor. No-op on an empty buffer.
    ///
    /// # Errors
    /// WAL rotation failures.
    pub fn seal_now(&self) -> Result<(), IngestError> {
        // om-lint: allow(lock-across-io) — seal swaps the staging buffer and rotates the WAL atomically; the segment fsync under the lock is the crash-consistency boundary
        let mut state = self.inner.state.lock();
        self.seal_locked(&mut state)
    }

    fn seal_locked(&self, state: &mut State) -> Result<(), IngestError> {
        if state.staging.is_empty() {
            return Ok(());
        }
        // The ISSUE's crash point: rows are WAL-durable but the segment
        // is not yet sealed. An injected error here leaves exactly that
        // state behind for recovery to replay.
        fail::inject(Seam::IngestSeal)?;
        state.wal.seal()?;
        let rows = std::mem::take(&mut state.staging);
        let batch = segment_dataset(self.inner.parser.schema(), &rows)?;
        self.inner.metrics.sealed.fetch_add(1, Ordering::Relaxed);
        self.inner
            .metrics
            .wal_bytes
            .store(state.wal.bytes(), Ordering::Relaxed);
        self.send(Msg::SealedRows(batch))
    }

    fn send(&self, msg: Msg) -> Result<(), IngestError> {
        match self.inner.tx.lock().as_ref() {
            Some(tx) => tx.send(msg).map_err(|_| IngestError::Closed),
            None => Err(IngestError::Closed),
        }
    }

    /// Seal pending rows and block until the compactor has merged and
    /// published everything submitted before this call. After `flush`,
    /// a fresh snapshot reflects every accepted row.
    ///
    /// # Errors
    /// Seal failures, or [`IngestError::Closed`] after shutdown.
    pub fn flush(&self) -> Result<(), IngestError> {
        self.seal_now()?;
        let (ack_tx, ack_rx) = channel::bounded::<()>(1);
        self.send(Msg::Barrier(ack_tx))?;
        ack_rx.recv().map_err(|_| IngestError::Closed)
    }

    /// Current counters, including the published store generation.
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            rows_total: self.inner.metrics.rows.load(Ordering::Relaxed),
            segments_sealed_total: self.inner.metrics.sealed.load(Ordering::Relaxed),
            compactions_total: self.inner.metrics.compactions.load(Ordering::Relaxed),
            merge_failures_total: self.inner.metrics.merge_failures.load(Ordering::Relaxed),
            store_generation: self.inner.shared.generation(),
            wal_bytes: self.inner.metrics.wal_bytes.load(Ordering::Relaxed),
        }
    }

    /// The shared store this ingestor publishes into.
    pub fn shared_store(&self) -> &SharedStore {
        &self.inner.shared
    }

    /// Stop accepting rows and join the compactor after it drains its
    /// queue. Staged-but-unsealed rows stay in the WAL for the next
    /// start. Idempotent.
    pub fn shutdown(&self) {
        self.inner.tx.lock().take();
        // Take the handle out, then join: an `if let` on the lock call
        // would keep the guard alive across the join (scrutinee
        // temporaries live for the whole body), serializing anyone who
        // touches the handle slot behind a thread exit.
        let handle = self.inner.compactor.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.tx.lock().take();
        let handle = self.compactor.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}
