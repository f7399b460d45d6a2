//! The backend seam of the `/v1` API: one trait, two implementations.
//!
//! Every `/v1` handler runs against [`EngineOps`] instead of a concrete
//! engine. [`EngineBackend`] delegates verbatim to a resident
//! [`OpportunityMap`] — that is the single-node server. The om-cluster
//! coordinator provides the second implementation: the same methods
//! answered by fanning out over shard processes and merging, which is
//! what lets a coordinator serve the `/v1` contract unchanged.

use std::sync::Arc;

use om_api::{CoverageWire, ErrorCode, ErrorEnvelope};
use om_compare::{CompareConfig, ComparisonResult, ComparisonSpec, DrillConfig, DrillLevel};
use om_engine::{
    BatchItem, BatchOutcome, Budget, Condition, EngineError, GiReport, IngestError, IngestHandle,
    OpportunityMap, StoreSnapshot,
};

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

/// Everything a `/v1` handler asks of its backend.
///
/// Contract: a conforming implementation answers every method with the
/// exact bytes (results *and* error messages) a resident
/// [`OpportunityMap`] over the same logical record set would produce.
/// [`EngineBackend`] satisfies that trivially; the om-cluster
/// coordinator satisfies it by deterministic distributed merge. The only
/// sanctioned divergences are availability errors a single node cannot
/// have (a shard down, a generation race), which surface as
/// [`OpsError::Envelope`] overload envelopes.
pub trait EngineOps: Send + Sync {
    /// The comparison configuration drill configs inherit from.
    fn compare_config(&self) -> CompareConfig;

    /// Resolve a named comparison into a spec.
    ///
    /// # Errors
    /// Unknown names, or backend unavailability.
    fn spec_by_name(
        &self,
        attr: &str,
        value_1: &str,
        value_2: &str,
        class: &str,
    ) -> Result<ComparisonSpec, OpsError>;

    /// Resolve a named drill condition (`attr = value`).
    ///
    /// # Errors
    /// Unknown names, or backend unavailability.
    fn condition_by_name(&self, attr: &str, value: &str) -> Result<Condition, OpsError>;

    /// Resolve an attribute name to its schema index.
    ///
    /// # Errors
    /// Unknown names, or backend unavailability.
    fn attr_index(&self, name: &str) -> Result<usize, OpsError>;

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
    ) -> Result<ComparisonResult, OpsError>;

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
    ) -> Result<Vec<DrillLevel>, OpsError>;

    /// Mine the general-impressions report under `budget`.
    ///
    /// # Errors
    /// Miner errors, budget overrun, unavailability.
    fn run_general_impressions(&self, budget: &Budget) -> Result<GiReport, OpsError>;

    /// [`EngineOps::run_compare_by_name`], but with the caller opting
    /// into a degraded partial answer: a distributed backend may answer
    /// from the live subset of its partitions and report the gap in the
    /// returned [`CoverageWire`]. `None` coverage means full coverage. A
    /// single node always has full coverage, so the default delegates
    /// and never degrades.
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
        self.run_compare_by_name(attr, value_1, value_2, class, budget)
            .map(|r| (r, None))
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
        self.run_general_impressions(budget).map(|r| (r, None))
    }

    /// Pin one store generation for a cube-slice read. The resident
    /// backend ignores `budget` — slices read precomputed counts, and
    /// `/v1/cube/slice` answers even on an expired budget. A distributed
    /// backend may need `budget` to bound shard fan-out and is the one
    /// place a slice can fail with an overload envelope.
    ///
    /// # Errors
    /// Backend unavailability only.
    fn query_store(&self, budget: &Budget) -> Result<Arc<StoreSnapshot>, OpsError>;

    /// Run a comparison/drill batch under `budget`, one outcome per item
    /// in item order.
    ///
    /// # Errors
    /// Whole-batch failures only; per-item failures are outcomes.
    fn run_batch(
        &self,
        items: &[BatchItem],
        drill_config: &DrillConfig,
        budget: &Budget,
    ) -> Result<Vec<BatchOutcome>, OpsError>;

    /// Run a smart drill-down exploration under `budget`.
    ///
    /// The default pins a store snapshot and runs om-explore serially
    /// over it — exploration reads only cube cells, so any backend that
    /// can answer [`EngineOps::query_store`] (the cluster coordinator's
    /// merged store included) serves `/v1/explore` with zero extra
    /// protocol work and byte-identical output.
    ///
    /// # Errors
    /// Unknown names, invalid queries, budget overrun before the first
    /// summary (later overrun truncates the report), unavailability.
    fn run_explore(
        &self,
        query: &om_explore::ExploreQuery,
        budget: &Budget,
    ) -> Result<om_explore::ExploreReport, OpsError> {
        let store = self.query_store(budget)?;
        om_explore::explore(
            &om_exec::Executor::serial(),
            &store,
            &self.compare_config(),
            query,
            budget,
        )
        .map_err(|e| OpsError::Engine(e.into()))
    }

    /// Whether `POST /v1/ingest` is live on this backend.
    fn ingest_enabled(&self) -> bool;

    /// Append pre-split labeled rows; all-or-nothing per batch.
    ///
    /// # Errors
    /// An envelope: `bad_row` naming the 1-based offending row,
    /// `bad_request` for malformed batches, `not_found` when ingestion
    /// is disabled.
    fn ingest_rows(&self, rows: &[Vec<String>]) -> Result<IngestAck, OpsError>;

    /// Extra text appended to `/metrics` after the server's own counters
    /// (the resident backend's ingest counters, a coordinator's
    /// `om_cluster_*` series).
    fn extra_metrics(&self) -> String {
        String::new()
    }
}

/// The resident single-node backend: verbatim delegation to an
/// [`OpportunityMap`] (and its optional live-ingest handle).
pub struct EngineBackend<'a> {
    pub om: &'a OpportunityMap,
    pub ingest: Option<&'a IngestHandle>,
}

impl EngineOps for EngineBackend<'_> {
    fn compare_config(&self) -> CompareConfig {
        self.om.config().compare.clone()
    }

    fn spec_by_name(
        &self,
        attr: &str,
        value_1: &str,
        value_2: &str,
        class: &str,
    ) -> Result<ComparisonSpec, OpsError> {
        Ok(self.om.spec_by_name(attr, value_1, value_2, class)?)
    }

    fn condition_by_name(&self, attr: &str, value: &str) -> Result<Condition, OpsError> {
        Ok(self.om.condition_by_name(attr, value)?)
    }

    fn attr_index(&self, name: &str) -> Result<usize, OpsError> {
        Ok(self.om.attr_index(name)?)
    }

    fn run_compare_by_name(
        &self,
        attr: &str,
        value_1: &str,
        value_2: &str,
        class: &str,
        budget: &Budget,
    ) -> Result<ComparisonResult, OpsError> {
        Ok(self.om.run_compare_by_name(
            attr,
            value_1,
            value_2,
            class,
            self.om.exec_ctx(Some(budget)),
        )?)
    }

    fn run_drill_down_by_name(
        &self,
        attr: &str,
        value_1: &str,
        value_2: &str,
        class: &str,
        config: &DrillConfig,
        budget: &Budget,
    ) -> Result<Vec<DrillLevel>, OpsError> {
        Ok(self.om.run_drill_down_by_name(
            attr,
            value_1,
            value_2,
            class,
            config,
            self.om.exec_ctx(Some(budget)),
        )?)
    }

    fn run_general_impressions(&self, budget: &Budget) -> Result<GiReport, OpsError> {
        Ok(self
            .om
            .run_general_impressions(self.om.exec_ctx(Some(budget)))?)
    }

    fn query_store(&self, _budget: &Budget) -> Result<Arc<StoreSnapshot>, OpsError> {
        Ok(self.om.store())
    }

    fn run_batch(
        &self,
        items: &[BatchItem],
        drill_config: &DrillConfig,
        budget: &Budget,
    ) -> Result<Vec<BatchOutcome>, OpsError> {
        Ok(self
            .om
            .run_batch(items, drill_config, self.om.exec_ctx(Some(budget)))?)
    }

    fn run_explore(
        &self,
        query: &om_explore::ExploreQuery,
        budget: &Budget,
    ) -> Result<om_explore::ExploreReport, OpsError> {
        Ok(self
            .om
            .run_explore(query, self.om.exec_ctx(Some(budget)))?)
    }

    fn ingest_enabled(&self) -> bool {
        self.ingest.is_some()
    }

    fn ingest_rows(&self, rows: &[Vec<String>]) -> Result<IngestAck, OpsError> {
        let Some(handle) = self.ingest else {
            return Err(ErrorEnvelope::new(
                ErrorCode::NotFound,
                "live ingestion is not enabled (start the server with an ingest WAL)",
            )
            .into());
        };
        match handle.append_labeled(rows) {
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

    fn extra_metrics(&self) -> String {
        self.ingest
            .map(om_engine::IngestHandle::render_metrics)
            .unwrap_or_default()
    }
}
