//! The backend seam of the `/v1` API: one set of reads, two backends.
//!
//! Every `/v1` handler runs against [`EngineOps`]. Its read methods —
//! name resolution, compare, drill, general impressions, slices,
//! batches, explore — are *provided*: each resolves names on the
//! backend's engine, passes the `engine.*` failpoint seam, asks the
//! backend for a pinned store or a root drill population, and runs the
//! engine's own code over it. A backend supplies only what genuinely
//! differs between deployment shapes:
//!
//! * [`EngineOps::engine`] — the [`OpportunityMap`] that resolves names
//!   and carries the configs and the executor (the resident engine; a
//!   coordinator's zero-row twin built from its shards' schema);
//! * [`EngineOps::pin_store`] — where the pinned store comes from (the
//!   engine's current snapshot; a generation-pinned merge of shard
//!   stores, possibly partial);
//! * [`EngineOps::drill_root`] — how a drill population narrows (row
//!   masks over the resident kernel; `/internal/level` and
//!   `/internal/count` fan-outs);
//! * ingestion and the backend's own `/metrics` families.
//!
//! Because both backends run the same function over the same counts, a
//! coordinator's answers are byte-identical to a single node's by
//! construction rather than by keeping two copies in step.

use std::sync::Arc;

use om_api::{CoverageWire, ErrorCode, ErrorEnvelope, LabelRows};
use om_compare::{
    CompareConfig, ComparisonResult, ComparisonSpec, DrillConfig, DrillLevel, DrillPopulation,
    SelectorPopulation,
};
use om_engine::fail::Seam;
use om_engine::{
    fail, BatchItem, BatchOutcome, Budget, Condition, EngineError, FaultError, GiReport,
    IngestError, IngestHandle, OpportunityMap, StoreSnapshot,
};
use om_exec::{DrillSource, DrillWalk};

use crate::metrics::{self, Exposition};

/// A backend failure, in one of the two shapes the handlers map from:
/// an engine error (classified by the `/v1` handlers) or a ready-made
/// `/v1` envelope (the cluster coordinator's native error shape — shard
/// failures arrive with code, message and retry hint already decided).
#[derive(Debug)]
pub enum OpsError {
    /// A single-node engine failure.
    Engine(EngineError),
    /// A pre-shaped `/v1` error envelope, used verbatim.
    Envelope(ErrorEnvelope),
}

impl From<EngineError> for OpsError {
    fn from(e: EngineError) -> Self {
        Self::Engine(e)
    }
}

impl From<FaultError> for OpsError {
    fn from(e: FaultError) -> Self {
        Self::Engine(e.into())
    }
}

impl From<ErrorEnvelope> for OpsError {
    fn from(e: ErrorEnvelope) -> Self {
        Self::Envelope(e)
    }
}

/// What `POST /v1/ingest` reports back after an accepted batch.
#[derive(Debug, Clone, Copy)]
pub struct IngestAck {
    pub accepted: u64,
    pub rows_total: u64,
    pub generation: u64,
}

/// Map an ingest failure onto its `/v1` envelope — the single mapping
/// shared by the resident backend and the cluster coordinator's
/// pre-validation (which must reject a bad row with the same body the
/// owning shard would have).
#[must_use]
pub fn ingest_envelope(e: &IngestError) -> ErrorEnvelope {
    match e {
        IngestError::BadRow { row, .. } => ErrorEnvelope {
            row: Some(*row as u64),
            ..ErrorEnvelope::new(ErrorCode::BadRow, e.to_string())
        },
        e if e.is_bad_request() => ErrorEnvelope::new(ErrorCode::BadRequest, e.to_string()),
        e => ErrorEnvelope::new(ErrorCode::Internal, e.to_string()),
    }
}

/// The root (unconditioned) drill population a backend hands out.
pub trait RootPopulation: DrillPopulation {
    /// The `/v1` envelope of the failure that aborted the walk, when the
    /// population failed for reasons of its own (a shard down): it
    /// replaces the carrier error the walk returned.
    fn take_failure(&mut self) -> Option<ErrorEnvelope> {
        None
    }
}

impl RootPopulation for SelectorPopulation {}

/// Everything a `/v1` handler asks of its backend. See the module docs
/// for which methods a backend implements and why.
///
/// Contract: a conforming backend answers every method with the exact
/// bytes (results *and* error messages) a resident [`OpportunityMap`]
/// over the same logical record set would produce. The only sanctioned
/// divergences are availability errors a single node cannot have (a
/// shard down, a generation race), which surface as
/// [`OpsError::Envelope`] overload envelopes.
pub trait EngineOps: Send + Sync {
    /// The engine whose code answers the reads: names, configs,
    /// executor.
    fn engine(&self) -> &OpportunityMap;

    /// Pin one store generation over the backend's whole record set.
    /// With `allow_partial`, a distributed backend may answer from the
    /// live subset of its partitions and report the gap in the returned
    /// [`CoverageWire`]; `None` means full coverage. The resident
    /// backend ignores `budget` — pinning is a pointer copy — while a
    /// distributed one may need it to bound shard fan-out.
    ///
    /// # Errors
    /// Backend unavailability only.
    fn pin_store(
        &self,
        allow_partial: bool,
        budget: &Budget,
    ) -> Result<(Arc<StoreSnapshot>, Option<CoverageWire>), OpsError>;

    /// A fresh root population for a drill anchored on `anchor` (the
    /// compared attribute), over the backend's *base* records.
    ///
    /// # Errors
    /// Backend unavailability only.
    fn drill_root(&self, anchor: usize) -> Result<Box<dyn RootPopulation + '_>, OpsError>;

    /// Whether `POST /v1/ingest` is live on this backend.
    fn ingest_enabled(&self) -> bool;

    /// Append a decoded `/v1/ingest` batch; all-or-nothing per batch.
    /// The labels stay borrowed from the request body: a backend reads
    /// each one where it is, never copying the batch whole.
    ///
    /// # Errors
    /// An envelope: `bad_row` naming the 1-based offending row,
    /// `bad_request` for malformed batches, `not_found` when ingestion
    /// is disabled.
    fn ingest_table(&self, rows: &LabelRows<'_>) -> Result<IngestAck, OpsError>;

    /// [`EngineOps::ingest_table`] over rows already held as strings.
    ///
    /// # Errors
    /// As [`EngineOps::ingest_table`].
    fn ingest_rows(&self, rows: &[Vec<String>]) -> Result<IngestAck, OpsError> {
        self.ingest_table(&LabelRows::borrowing(rows))
    }

    /// Write this backend's families into `/metrics`, after the
    /// server's own (the resident backend's ingest counters, a
    /// coordinator's cluster series).
    fn write_metrics(&self, _out: &mut Exposition) {}

    /// The comparison configuration drill configs inherit from.
    fn compare_config(&self) -> CompareConfig {
        self.engine().config().compare.clone()
    }

    /// Resolve a named comparison into a spec.
    ///
    /// # Errors
    /// Unknown names.
    fn spec_by_name(
        &self,
        attr: &str,
        value_1: &str,
        value_2: &str,
        class: &str,
    ) -> Result<ComparisonSpec, OpsError> {
        Ok(self.engine().spec_by_name(attr, value_1, value_2, class)?)
    }

    /// Resolve a named drill condition (`attr = value`).
    ///
    /// # Errors
    /// Unknown names.
    fn condition_by_name(&self, attr: &str, value: &str) -> Result<Condition, OpsError> {
        Ok(self.engine().condition_by_name(attr, value)?)
    }

    /// Resolve an attribute name to its schema index.
    ///
    /// # Errors
    /// Unknown names.
    fn attr_index(&self, name: &str) -> Result<usize, OpsError> {
        Ok(self.engine().attr_index(name)?)
    }

    /// Run a named comparison under `budget`.
    ///
    /// # Errors
    /// Unknown names, comparator errors, budget overrun, unavailability.
    fn run_compare_by_name(
        &self,
        attr: &str,
        value_1: &str,
        value_2: &str,
        class: &str,
        budget: &Budget,
    ) -> Result<ComparisonResult, OpsError> {
        compare_by_name(self, [attr, value_1, value_2, class], false, budget).map(|(r, _)| r)
    }

    /// [`EngineOps::run_compare_by_name`], but with the caller opting
    /// into a degraded partial answer (see [`EngineOps::pin_store`]).
    ///
    /// # Errors
    /// Same as [`EngineOps::run_compare_by_name`].
    fn run_compare_by_name_partial(
        &self,
        attr: &str,
        value_1: &str,
        value_2: &str,
        class: &str,
        budget: &Budget,
    ) -> Result<(ComparisonResult, Option<CoverageWire>), OpsError> {
        compare_by_name(self, [attr, value_1, value_2, class], true, budget)
    }

    /// Run a named smart drill-down under `budget`.
    ///
    /// # Errors
    /// Unknown names, comparator errors, budget overrun, unavailability.
    fn run_drill_down_by_name(
        &self,
        attr: &str,
        value_1: &str,
        value_2: &str,
        class: &str,
        config: &DrillConfig,
        budget: &Budget,
    ) -> Result<Vec<DrillLevel>, OpsError> {
        let om = self.engine();
        fail::inject(Seam::EngineDrill)?;
        let spec = om.spec_by_name(attr, value_1, value_2, class)?;
        let mut pop = self.drill_root(spec.attr)?;
        om.drill_down_on(&mut *pop, &spec, config, om.exec_ctx(Some(budget)))
            .map_err(|e| match pop.take_failure() {
                Some(env) => OpsError::Envelope(env),
                None => OpsError::Engine(e.into()),
            })
    }

    /// Mine the general-impressions report under `budget`.
    ///
    /// # Errors
    /// Miner errors, budget overrun, unavailability.
    fn run_general_impressions(&self, budget: &Budget) -> Result<GiReport, OpsError> {
        general_impressions(self, false, budget).map(|(r, _)| r)
    }

    /// [`EngineOps::run_general_impressions`] with partial-answer
    /// opt-in; same contract as
    /// [`EngineOps::run_compare_by_name_partial`].
    ///
    /// # Errors
    /// Same as [`EngineOps::run_general_impressions`].
    fn run_general_impressions_partial(
        &self,
        budget: &Budget,
    ) -> Result<(GiReport, Option<CoverageWire>), OpsError> {
        general_impressions(self, true, budget)
    }

    /// Pin one store generation for a cube-slice read: all-or-nothing
    /// [`EngineOps::pin_store`]. Slices read precomputed counts, so on
    /// the resident backend `/v1/cube/slice` answers even on an expired
    /// budget; a distributed backend is the one place a slice can fail
    /// with an overload envelope.
    ///
    /// # Errors
    /// Backend unavailability only.
    fn query_store(&self, budget: &Budget) -> Result<Arc<StoreSnapshot>, OpsError> {
        self.pin_store(false, budget).map(|(store, _)| store)
    }

    /// Run a comparison/drill batch under `budget`, one outcome per item
    /// in item order, over one pinned store for the whole batch.
    ///
    /// # Errors
    /// Whole-batch failures only; per-item failures are outcomes.
    fn run_batch(
        &self,
        items: &[BatchItem],
        drill_config: &DrillConfig,
        budget: &Budget,
    ) -> Result<Vec<BatchOutcome>, OpsError> {
        let om = self.engine();
        fail::inject(Seam::EngineBatch)?;
        budget.check()?;
        let store = self.query_store(budget)?;
        let ctx = om.exec_ctx(Some(budget));
        Ok(om.batch_on(&store, &RootSource(self), items, drill_config, ctx))
    }

    /// Run a smart drill-down exploration under `budget`. Exploration
    /// reads only cube cells, so the pinned store is all it needs.
    ///
    /// # Errors
    /// Unknown names, invalid queries, budget overrun before the first
    /// summary (later overrun truncates the report), unavailability.
    fn run_explore(
        &self,
        query: &om_explore::ExploreQuery,
        budget: &Budget,
    ) -> Result<om_explore::ExploreReport, OpsError> {
        let om = self.engine();
        fail::inject(Seam::EngineExplore)?;
        let store = self.query_store(budget)?;
        Ok(om.explore_on(&store, query, om.exec_ctx(Some(budget)))?)
    }
}

/// Both compare reads: resolve, seam, pin, rank.
fn compare_by_name<T: EngineOps + ?Sized>(
    ops: &T,
    [attr, value_1, value_2, class]: [&str; 4],
    allow_partial: bool,
    budget: &Budget,
) -> Result<(ComparisonResult, Option<CoverageWire>), OpsError> {
    let om = ops.engine();
    let spec = om.spec_by_name(attr, value_1, value_2, class)?;
    fail::inject(Seam::EngineCompare)?;
    let (store, coverage) = ops.pin_store(allow_partial, budget)?;
    let result = om.compare_on(&store, &spec, om.exec_ctx(Some(budget)))?;
    Ok((result, coverage))
}

/// Both general-impressions reads: seam, pin, mine.
fn general_impressions<T: EngineOps + ?Sized>(
    ops: &T,
    allow_partial: bool,
    budget: &Budget,
) -> Result<(GiReport, Option<CoverageWire>), OpsError> {
    let om = ops.engine();
    fail::inject(Seam::EngineGi)?;
    let (store, coverage) = ops.pin_store(allow_partial, budget)?;
    let report = om.general_impressions_on(&store, om.exec_ctx(Some(budget)))?;
    Ok((report, coverage))
}

/// A backend's [`EngineOps::drill_root`] as the batch executor's
/// population source.
struct RootSource<'a, T: ?Sized>(&'a T);

impl<T: EngineOps + ?Sized> DrillSource for RootSource<'_, T> {
    fn drill(&self, anchor: usize, walk: &mut DrillWalk<'_>) -> BatchOutcome {
        let overloaded = |message| BatchOutcome::Overloaded { message };
        let mut pop = match self.0.drill_root(anchor) {
            Ok(pop) => pop,
            Err(OpsError::Envelope(env)) => return overloaded(env.message),
            Err(OpsError::Engine(e)) if e.is_overload() => return overloaded(e.to_string()),
            Err(OpsError::Engine(e)) => {
                return BatchOutcome::Failed {
                    message: e.to_string(),
                }
            }
        };
        match walk(&mut *pop) {
            Ok(levels) => BatchOutcome::Drill(levels),
            Err(e) => match pop.take_failure() {
                Some(env) => overloaded(env.message),
                None => BatchOutcome::from_error(&e),
            },
        }
    }
}

/// The resident single-node backend: an [`OpportunityMap`] (and its
/// optional live-ingest handle).
pub struct EngineBackend<'a> {
    pub om: &'a OpportunityMap,
    pub ingest: Option<&'a IngestHandle>,
}

impl EngineOps for EngineBackend<'_> {
    fn engine(&self) -> &OpportunityMap {
        self.om
    }

    fn pin_store(
        &self,
        _allow_partial: bool,
        _budget: &Budget,
    ) -> Result<(Arc<StoreSnapshot>, Option<CoverageWire>), OpsError> {
        Ok((self.om.store(), None))
    }

    fn drill_root(&self, anchor: usize) -> Result<Box<dyn RootPopulation + '_>, OpsError> {
        let selector = self.om.kernel()?.selector();
        Ok(Box::new(SelectorPopulation::new(selector, anchor)))
    }

    fn ingest_enabled(&self) -> bool {
        self.ingest.is_some()
    }

    fn ingest_table(&self, rows: &LabelRows<'_>) -> Result<IngestAck, OpsError> {
        let Some(handle) = self.ingest else {
            return Err(ErrorEnvelope::new(
                ErrorCode::NotFound,
                "live ingestion is not enabled (start the server with an ingest WAL)",
            )
            .into());
        };
        match handle.append_label_rows(rows.iter()) {
            Ok(accepted) => {
                let stats = handle.stats();
                Ok(IngestAck {
                    accepted: accepted as u64,
                    rows_total: stats.rows_total,
                    generation: stats.store_generation,
                })
            }
            Err(e) => Err(ingest_envelope(&e).into()),
        }
    }

    fn write_metrics(&self, out: &mut Exposition) {
        if let Some(handle) = self.ingest {
            metrics::write_ingest(out, &handle.stats());
        }
    }
}
