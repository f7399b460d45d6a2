//! The engine façade.

use std::fmt;
use std::sync::{Arc, OnceLock};

use om_car::{mine, mine_restricted, CarRule, Condition, MinerConfig};
use om_compare::{
    compare_groups, drill_down_via, Comparator, CompareConfig, CompareError, ComparisonResult,
    ComparisonSpec, DrillConfig, DrillLevel, DrillPopulation, GroupSpec, SelectorPopulation,
};
use om_cube::{
    ColumnIndex, CubeError, CubeStore, CubeView, SharedStore, StoreBuildOptions, StoreSnapshot,
};
use om_data::{DataError, Dataset};
use om_discretize::{discretize_all, CutPoints, Method};
use om_exec::{
    rank_parallel, BatchItem, BatchOutcome, DrillSource, ExecConfig, Executor, StoreRef,
};
use om_explore::{ExploreError, ExploreQuery, ExploreReport};
use om_fault::fail::{self, Seam};
use om_fault::{Budget, FaultError};
use om_gi::{
    mine_exceptions_budgeted, mine_influence_budgeted, mine_trends_budgeted, Exception,
    ExceptionConfig, InfluenceResult, TrendConfig, TrendResult,
};
use om_ingest::{IngestConfig, IngestError, IngestHandle};
use om_viz::compare_view::{render_top_attribute, CompareViewOptions};
use om_viz::detailed::{render_detailed, DetailedOptions};
use om_viz::overall::{render_overall, OverallOptions};

/// Engine-wide configuration: one knob per component.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Discretization method for continuous attributes (Section V-A's
    /// first component). Supervised MDL by default.
    pub discretization: Method,
    /// Cube-store build options (attribute selection, parallelism).
    pub store: StoreBuildOptions,
    /// Comparator configuration (Section IV).
    pub compare: CompareConfig,
    /// Trend miner thresholds.
    pub trend: TrendConfig,
    /// Exception miner thresholds.
    pub exception: ExceptionConfig,
    /// When set, merge values with fewer records than this into an
    /// `other` bucket before building cubes (high-cardinality hygiene;
    /// see `om_data::collapse`).
    pub collapse_min_count: Option<u64>,
    /// Comparator execution policy. Serial by default; a wider policy
    /// sizes the engine's persistent worker pool and routes ranking
    /// through om-exec's sharded path (byte-identical output).
    pub exec: ExecConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            discretization: Method::EntropyMdl,
            store: StoreBuildOptions::default(),
            compare: CompareConfig::default(),
            trend: TrendConfig::default(),
            exception: ExceptionConfig::default(),
            collapse_min_count: None,
            exec: ExecConfig::serial(),
        }
    }
}

/// Per-call execution context: the one argument every query method
/// takes beyond its inputs. Collapses the old `foo`/`foo_budgeted`
/// method pairs and carries the parallelism policy.
#[derive(Debug, Clone, Copy)]
pub struct ExecCtx<'a> {
    /// Cooperative deadline/cancellation; `None` runs unlimited.
    pub budget: Option<&'a Budget>,
    /// Parallelism policy for this call. Serial runs inline on the
    /// calling thread; anything wider routes through the engine's
    /// worker pool (whose width was fixed by [`EngineConfig::exec`] at
    /// build time). Output is byte-identical either way.
    pub exec: ExecConfig,
}

impl Default for ExecCtx<'_> {
    fn default() -> Self {
        Self {
            budget: None,
            exec: ExecConfig::serial(),
        }
    }
}

impl<'a> ExecCtx<'a> {
    /// Serial, unlimited — the old `foo()` behavior.
    #[must_use]
    pub fn serial() -> Self {
        Self::default()
    }

    /// Serial under `budget` — the old `foo_budgeted()` behavior.
    #[must_use]
    pub fn budgeted(budget: &'a Budget) -> Self {
        Self {
            budget: Some(budget),
            exec: ExecConfig::serial(),
        }
    }

    /// Replace the parallelism policy.
    #[must_use]
    pub fn with_exec(self, exec: ExecConfig) -> Self {
        Self { exec, ..self }
    }
}

/// Unified error type of the engine.
#[derive(Debug)]
pub enum EngineError {
    Data(DataError),
    Cube(CubeError),
    Compare(CompareError),
    /// A name lookup failed (attribute, value or class label).
    Unknown(String),
    /// The request ran out of budget, was cancelled, or hit an injected
    /// fault — work was cut short, not wrong.
    Fault(FaultError),
    /// Live ingestion failed (bad rows, WAL I/O, schema mismatch).
    Ingest(IngestError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Data(e) => write!(f, "data error: {e}"),
            EngineError::Cube(e) => write!(f, "cube error: {e}"),
            EngineError::Compare(e) => write!(f, "comparison error: {e}"),
            EngineError::Unknown(what) => write!(f, "unknown name: {what}"),
            EngineError::Fault(e) => write!(f, "{e}"),
            EngineError::Ingest(e) => write!(f, "ingest error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DataError> for EngineError {
    fn from(e: DataError) -> Self {
        EngineError::Data(e)
    }
}
impl From<CubeError> for EngineError {
    fn from(e: CubeError) -> Self {
        match e {
            CubeError::Fault(f) => EngineError::Fault(f),
            other => EngineError::Cube(other),
        }
    }
}
impl From<CompareError> for EngineError {
    fn from(e: CompareError) -> Self {
        match e {
            // Unwrap nested faults so callers (the server's status
            // mapping, the CLI's message) match on one variant.
            CompareError::Fault(f) => EngineError::Fault(f),
            other => EngineError::Compare(other),
        }
    }
}
impl From<FaultError> for EngineError {
    fn from(e: FaultError) -> Self {
        EngineError::Fault(e)
    }
}
impl From<ExploreError> for EngineError {
    fn from(e: ExploreError) -> Self {
        match e {
            ExploreError::Cube(c) => EngineError::Cube(c),
            ExploreError::Unknown(m) => EngineError::Unknown(m),
            ExploreError::Invalid(m) => EngineError::Compare(CompareError::InvalidSpec(m)),
            ExploreError::Fault(f) => EngineError::Fault(f),
        }
    }
}
impl From<IngestError> for EngineError {
    fn from(e: IngestError) -> Self {
        match e {
            IngestError::Fault(f) => EngineError::Fault(f),
            other => EngineError::Ingest(other),
        }
    }
}

impl EngineError {
    /// Whether this error means "the service is busy, retry later"
    /// (deadline exceeded / cancelled) rather than a fault of the request.
    #[must_use]
    pub fn is_overload(&self) -> bool {
        matches!(self, EngineError::Fault(f) if f.is_overload())
    }
}

/// The general-impressions report: trends + exceptions + influence.
#[derive(Debug, Clone)]
pub struct GiReport {
    pub trends: Vec<TrendResult>,
    pub exceptions: Vec<Exception>,
    pub influence: Vec<InfluenceResult>,
}

/// The assembled Opportunity Map system over one dataset.
///
/// The cube store lives behind a [`SharedStore`]: every query pins one
/// immutable [`StoreSnapshot`] up front, so a concurrent live-ingestion
/// compactor publishing a new generation mid-query can never produce a
/// torn read — the query finishes against the generation it started on.
pub struct OpportunityMap {
    dataset: Dataset,
    shared: SharedStore,
    config: EngineConfig,
    cuts: Vec<(usize, CutPoints)>,
    /// Persistent worker pool for parallel execution, sized by
    /// [`EngineConfig::exec`]. Width 1 spawns no threads at all.
    executor: Executor,
    /// The counting kernel over the *base* dataset (the one drill-downs
    /// and batches condition on — ingested rows exist only in the cube
    /// store, exactly as with the old record walks). It scans
    /// `dataset`'s own columns (shared, not copied). Seeded from the
    /// generation-0 store's index when available, built on first use
    /// otherwise.
    kernel: OnceLock<Arc<ColumnIndex>>,
}

impl OpportunityMap {
    /// Build the system: discretize all continuous attributes, then build
    /// the full cube store (the paper's offline step).
    ///
    /// # Errors
    /// Propagates discretization and cube-construction failures.
    pub fn build(mut dataset: Dataset, config: EngineConfig) -> Result<Self, EngineError> {
        if let Some(min_count) = config.collapse_min_count {
            om_data::collapse::collapse_all(&mut dataset, min_count)?;
        }
        let cuts = discretize_all(&mut dataset, &config.discretization)?;
        let store = CubeStore::build(&dataset, &config.store)?;
        let executor = Executor::new(&config.exec);
        let kernel = OnceLock::new();
        if let Some(index) = store.index() {
            let _ = kernel.set(Arc::clone(index));
        }
        Ok(Self {
            dataset,
            shared: SharedStore::new(store),
            config,
            cuts,
            executor,
            kernel,
        })
    }

    /// The counting kernel ([`ColumnIndex`]) over the base dataset —
    /// what drill-downs and batches condition sub-populations with.
    /// Built at most once for the engine's lifetime; it shares the
    /// dataset's columns.
    ///
    /// # Errors
    /// Propagates [`ColumnIndex::build`]'s error (first call only, and
    /// only when the store was built without an index).
    pub fn kernel(&self) -> Result<&Arc<ColumnIndex>, EngineError> {
        if let Some(k) = self.kernel.get() {
            return Ok(k);
        }
        let built = Arc::new(ColumnIndex::build(&self.dataset)?);
        Ok(self.kernel.get_or_init(|| built))
    }

    /// The context a caller should run queries under: the engine's
    /// configured parallelism policy, plus an optional budget.
    #[must_use]
    pub fn exec_ctx<'a>(&self, budget: Option<&'a Budget>) -> ExecCtx<'a> {
        ExecCtx {
            budget,
            exec: self.config.exec,
        }
    }

    /// The (discretized) dataset. With live ingestion running this is the
    /// *base* dataset the engine was built from; ingested rows exist only
    /// in the cube store. The one copy of the rows: the kernel reads
    /// these columns in place, and a clone copies pointers, not rows.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Pin the current store generation. The snapshot derefs to
    /// [`CubeStore`] and stays valid (and unchanging) however long it is
    /// held, even while ingestion publishes newer generations.
    pub fn store(&self) -> Arc<StoreSnapshot> {
        self.shared.snapshot()
    }

    /// The shared store handle itself (for wiring ingestion or metrics).
    pub fn shared_store(&self) -> &SharedStore {
        &self.shared
    }

    /// The store generation currently being served.
    pub fn store_generation(&self) -> u64 {
        self.shared.generation()
    }

    /// Start live ingestion into this engine's store: appended rows are
    /// WAL-logged under `config.wal_dir`, folded into the store segment
    /// by segment off the query path, and published as new store
    /// generations. Sealed WAL segments from a previous run are folded in
    /// first.
    ///
    /// # Errors
    /// Fails if the schema still has continuous attributes the engine did
    /// not discretize, or on WAL I/O / replay errors.
    pub fn start_ingest(&self, config: &IngestConfig) -> Result<IngestHandle, EngineError> {
        Ok(IngestHandle::start(
            self.dataset.schema().clone(),
            &self.cuts,
            self.shared.clone(),
            config,
        )?)
    }

    /// The configuration in force.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Replace the comparator configuration (cubes are untouched; the
    /// adjustment happens at comparison time).
    pub fn with_compare_config(mut self, compare: CompareConfig) -> Self {
        self.config.compare = compare;
        self
    }

    /// Cut points chosen during discretization, per attribute index.
    pub fn cut_points(&self) -> &[(usize, CutPoints)] {
        &self.cuts
    }

    /// Resolve an attribute name.
    ///
    /// # Errors
    /// Fails if no attribute has that name.
    pub fn attr_index(&self, name: &str) -> Result<usize, EngineError> {
        self.dataset
            .schema()
            .attr_index(name)
            .ok_or_else(|| EngineError::Unknown(format!("attribute {name:?}")))
    }

    /// Resolve a value label of an attribute.
    ///
    /// # Errors
    /// Fails on unknown attribute or label.
    pub fn value_id(&self, attr: usize, label: &str) -> Result<u32, EngineError> {
        self.dataset
            .schema()
            .attribute(attr)
            .domain()
            .get(label)
            .ok_or_else(|| {
                EngineError::Unknown(format!(
                    "value {label:?} of attribute {:?}",
                    self.dataset.schema().attribute(attr).name()
                ))
            })
    }

    /// Resolve a class label.
    ///
    /// # Errors
    /// Fails on an unknown class label.
    pub fn class_id(&self, label: &str) -> Result<u32, EngineError> {
        self.dataset
            .schema()
            .class()
            .domain()
            .get(label)
            .ok_or_else(|| EngineError::Unknown(format!("class {label:?}")))
    }

    /// The overall visualization (Fig. 5).
    pub fn overall_view(&self, options: &OverallOptions) -> String {
        render_overall(&self.store(), options)
    }

    /// The detailed visualization of one attribute (Fig. 6).
    ///
    /// # Errors
    /// Fails on an unknown attribute name.
    pub fn detailed_view(
        &self,
        attr_name: &str,
        options: &DetailedOptions,
    ) -> Result<String, EngineError> {
        let attr = self.attr_index(attr_name)?;
        let cube = self.store().one_dim(attr)?;
        let view = CubeView::from_cube(&cube)?;
        Ok(render_detailed(&view, options))
    }

    /// Resolve a named comparison ("ph1 vs ph2 of PhoneModel on class
    /// dropped") into a [`ComparisonSpec`].
    ///
    /// # Errors
    /// Fails on unknown names.
    pub fn spec_by_name(
        &self,
        attr_name: &str,
        value_1: &str,
        value_2: &str,
        class: &str,
    ) -> Result<ComparisonSpec, EngineError> {
        let attr = self.attr_index(attr_name)?;
        Ok(ComparisonSpec {
            attr,
            value_1: self.value_id(attr, value_1)?,
            value_2: self.value_id(attr, value_2)?,
            class: self.class_id(class)?,
        })
    }

    /// Resolve a named drill condition (`attr = value`).
    ///
    /// # Errors
    /// Fails on unknown names.
    pub fn condition_by_name(
        &self,
        attr_name: &str,
        value: &str,
    ) -> Result<Condition, EngineError> {
        let attr = self.attr_index(attr_name)?;
        Ok(Condition::new(attr, self.value_id(attr, value)?))
    }

    /// Run the comparator on a resolved spec under `ctx`: the budget (if
    /// any) is checked per attribute, and a non-serial policy shards the
    /// candidate loop across the engine's worker pool — output is
    /// byte-identical to serial either way.
    ///
    /// # Errors
    /// See [`CompareError`]; [`EngineError::Fault`] on budget overrun.
    pub fn run_compare(
        &self,
        spec: &ComparisonSpec,
        ctx: ExecCtx<'_>,
    ) -> Result<ComparisonResult, EngineError> {
        fail::inject(Seam::EngineCompare)?;
        self.compare_on(&self.store(), spec, ctx)
    }

    /// [`run_compare`](Self::run_compare) over a store the caller pinned
    /// — this engine's own snapshot, or a coordinator's merged one.
    ///
    /// # Errors
    /// See [`CompareError`]; [`EngineError::Fault`] on budget overrun.
    pub fn compare_on(
        &self,
        snapshot: &Arc<StoreSnapshot>,
        spec: &ComparisonSpec,
        ctx: ExecCtx<'_>,
    ) -> Result<ComparisonResult, EngineError> {
        let unlimited = Budget::unlimited();
        let budget = ctx.budget.unwrap_or(&unlimited);
        Ok(self.rank(snapshot, &self.config.compare, spec, ctx.exec, budget)?)
    }

    /// One ranking under an execution policy: the serial comparator, or
    /// the sharded one on the engine's pool.
    fn rank<S: StoreRef>(
        &self,
        store: &S,
        config: &CompareConfig,
        spec: &ComparisonSpec,
        exec: ExecConfig,
        budget: &Budget,
    ) -> Result<ComparisonResult, CompareError> {
        if exec.is_serial() {
            Comparator::with_config(store.store(), config.clone()).compare_budgeted(spec, budget)
        } else {
            rank_parallel(&self.executor, store, config, spec, budget)
        }
    }

    /// Run a smart drill-down exploration under `ctx`: budgeted greedy
    /// top-k summaries over the current snapshot, optionally chained
    /// with the comparator (`query.compare`). A non-serial policy
    /// shards candidate scoring across the engine's worker pool —
    /// output is byte-identical to serial either way.
    ///
    /// # Errors
    /// See [`ExploreError`] (mapped into [`EngineError`]);
    /// [`EngineError::Fault`] when the budget expires before any
    /// summary completes — later expiry returns a truncated report.
    pub fn run_explore(
        &self,
        query: &ExploreQuery,
        ctx: ExecCtx<'_>,
    ) -> Result<ExploreReport, EngineError> {
        fail::inject(Seam::EngineExplore)?;
        self.explore_on(&self.store(), query, ctx)
    }

    /// [`run_explore`](Self::run_explore) over a store the caller
    /// pinned. Exploration reads only cube cells, so any store over the
    /// same logical rows gives the same report.
    ///
    /// # Errors
    /// As [`run_explore`](Self::run_explore).
    pub fn explore_on(
        &self,
        snapshot: &Arc<StoreSnapshot>,
        query: &ExploreQuery,
        ctx: ExecCtx<'_>,
    ) -> Result<ExploreReport, EngineError> {
        let unlimited = Budget::unlimited();
        let budget = ctx.budget.unwrap_or(&unlimited);
        let serial = Executor::serial();
        let exec = if ctx.exec.is_serial() {
            &serial
        } else {
            &self.executor
        };
        Ok(om_explore::explore(
            exec,
            snapshot,
            &self.config.compare,
            query,
            budget,
        )?)
    }

    /// [`run_compare`](Self::run_compare) by names — the exact gesture
    /// of Section V-B's case study.
    ///
    /// # Errors
    /// Fails on unknown names or comparator errors.
    pub fn run_compare_by_name(
        &self,
        attr_name: &str,
        value_1: &str,
        value_2: &str,
        class: &str,
        ctx: ExecCtx<'_>,
    ) -> Result<ComparisonResult, EngineError> {
        let spec = self.spec_by_name(attr_name, value_1, value_2, class)?;
        self.run_compare(&spec, ctx)
    }

    /// Text rendering of a comparison's top attribute (Fig. 7).
    pub fn comparison_view(&self, result: &ComparisonResult) -> String {
        render_top_attribute(result, &CompareViewOptions::default())
    }

    /// Compare two *groups* of values of one attribute (merged
    /// sub-populations; same measure).
    ///
    /// # Errors
    /// Fails on unknown names or group-validation failures.
    pub fn compare_groups_by_name(
        &self,
        attr_name: &str,
        group_1: &[&str],
        group_2: &[&str],
        class: &str,
    ) -> Result<ComparisonResult, EngineError> {
        let attr = self.attr_index(attr_name)?;
        let resolve = |labels: &[&str]| -> Result<Vec<u32>, EngineError> {
            labels.iter().map(|l| self.value_id(attr, l)).collect()
        };
        let spec = GroupSpec {
            attr,
            group_1: resolve(group_1)?,
            group_2: resolve(group_2)?,
            class: self.class_id(class)?,
        };
        Ok(compare_groups(&self.store(), &spec, &self.config.compare)?)
    }

    /// Automated drill-down from a named comparison under `ctx`:
    /// condition on each level's top finding and compare again (Section
    /// III-B's restricted analysis, automated). The walk re-checks the
    /// deadline before each level's cube rebuild — the engine's most
    /// expensive interactive path. Under a non-serial policy each
    /// level's ranking is sharded across the pool.
    ///
    /// # Errors
    /// Fails on unknown names, a failed root comparison, or
    /// [`EngineError::Fault`] on budget overrun at any depth.
    pub fn run_drill_down_by_name(
        &self,
        attr_name: &str,
        value_1: &str,
        value_2: &str,
        class: &str,
        config: &DrillConfig,
        ctx: ExecCtx<'_>,
    ) -> Result<Vec<DrillLevel>, EngineError> {
        fail::inject(Seam::EngineDrill)?;
        let spec = self.spec_by_name(attr_name, value_1, value_2, class)?;
        let mut pop = SelectorPopulation::new(self.kernel()?.selector(), spec.attr);
        Ok(self.drill_down_on(&mut pop, &spec, config, ctx)?)
    }

    /// The automated drill walk over a root population the caller
    /// supplies — this engine's kernel selector, or a coordinator's
    /// shard fan-out.
    ///
    /// # Errors
    /// A failed root comparison, or a fault at any depth.
    pub fn drill_down_on<P: DrillPopulation + ?Sized>(
        &self,
        pop: &mut P,
        spec: &ComparisonSpec,
        config: &DrillConfig,
        ctx: ExecCtx<'_>,
    ) -> Result<Vec<DrillLevel>, CompareError> {
        let unlimited = Budget::unlimited();
        let budget = ctx.budget.unwrap_or(&unlimited);
        drill_down_via(pop, spec, config, budget, |store, spec, budget| {
            self.rank(&store, &config.compare, spec, ctx.exec, budget)
        })
    }

    /// Execute a comparison batch (see [`om_exec::run_batch`]): compare
    /// items sharing a base population share one cube pass, drill items
    /// sharing a path prefix share its level results, and per-item
    /// budgets yield partial results — completed items return even when
    /// later ones run out of time. Outcomes come back in item order; item
    /// failures never fail the batch.
    ///
    /// # Errors
    /// Only batch-level failures: an armed `engine.batch` failpoint or
    /// an already-expired batch budget.
    pub fn run_batch(
        &self,
        items: &[BatchItem],
        drill_config: &DrillConfig,
        ctx: ExecCtx<'_>,
    ) -> Result<Vec<BatchOutcome>, EngineError> {
        fail::inject(Seam::EngineBatch)?;
        if let Some(budget) = ctx.budget {
            budget.check()?;
        }
        Ok(self.batch_on(&self.store(), self.kernel()?, items, drill_config, ctx))
    }

    /// [`run_batch`](Self::run_batch) over a store the caller pinned and
    /// drill populations from `source`; item failures are outcomes, so
    /// nothing here fails the batch.
    pub fn batch_on<D: DrillSource + ?Sized>(
        &self,
        snapshot: &Arc<StoreSnapshot>,
        source: &D,
        items: &[BatchItem],
        drill_config: &DrillConfig,
        ctx: ExecCtx<'_>,
    ) -> Vec<BatchOutcome> {
        let unlimited = Budget::unlimited();
        let budget = ctx.budget.unwrap_or(&unlimited);
        om_exec::run_batch(
            &self.executor,
            snapshot,
            source,
            &self.config.compare,
            drill_config,
            items,
            budget,
        )
    }

    /// Mine all general impressions (trends, exceptions, influence)
    /// under `ctx`: each miner checks the deadline per attribute, and a
    /// non-serial policy scatters the three miners across the pool.
    ///
    /// # Errors
    /// [`EngineError::Fault`] on budget overrun.
    pub fn run_general_impressions(&self, ctx: ExecCtx<'_>) -> Result<GiReport, EngineError> {
        fail::inject(Seam::EngineGi)?;
        self.general_impressions_on(&self.store(), ctx)
    }

    /// [`run_general_impressions`](Self::run_general_impressions) over
    /// a store the caller pinned: one snapshot across all three miners,
    /// so trends, exceptions and influence describe the same generation.
    ///
    /// # Errors
    /// [`EngineError::Fault`] on budget overrun.
    pub fn general_impressions_on(
        &self,
        snapshot: &Arc<StoreSnapshot>,
        ctx: ExecCtx<'_>,
    ) -> Result<GiReport, EngineError> {
        let unlimited = Budget::unlimited();
        let budget = ctx.budget.unwrap_or(&unlimited);
        if ctx.exec.is_serial() {
            return Ok(GiReport {
                trends: mine_trends_budgeted(snapshot, &self.config.trend, budget)?,
                exceptions: mine_exceptions_budgeted(snapshot, &self.config.exception, budget)?,
                influence: mine_influence_budgeted(snapshot, budget)?,
            });
        }

        enum GiPart {
            Trends(Vec<TrendResult>),
            Exceptions(Vec<Exception>),
            Influence(Vec<InfluenceResult>),
        }
        let job = |part: fn(
            &StoreSnapshot,
            &EngineConfig,
            &Budget,
        ) -> Result<GiPart, FaultError>|
         -> Box<dyn FnOnce() -> Result<GiPart, FaultError> + Send> {
            let snapshot = Arc::clone(snapshot);
            let config = self.config.clone();
            let budget = budget.clone();
            Box::new(move || part(&snapshot, &config, &budget))
        };
        let jobs = vec![
            job(|s, c, b| Ok(GiPart::Trends(mine_trends_budgeted(s, &c.trend, b)?))),
            job(|s, c, b| {
                Ok(GiPart::Exceptions(mine_exceptions_budgeted(
                    s,
                    &c.exception,
                    b,
                )?))
            }),
            job(|s, _, b| Ok(GiPart::Influence(mine_influence_budgeted(s, b)?))),
        ];
        // Scatter preserves job order, so `?` surfaces errors with the
        // same priority as the serial path: trends, then exceptions,
        // then influence.
        let mut parts = self.executor.scatter(jobs).into_iter();
        let mut report = GiReport {
            trends: Vec::new(),
            exceptions: Vec::new(),
            influence: Vec::new(),
        };
        for _ in 0..3 {
            match parts.next().expect("three jobs scattered")? {
                GiPart::Trends(t) => report.trends = t,
                GiPart::Exceptions(e) => report.exceptions = e,
                GiPart::Influence(i) => report.influence = i,
            }
        }
        Ok(report)
    }

    /// Render the general-impressions report as text (top `n` entries per
    /// section), including the pair-cube interaction exceptions.
    pub fn gi_report(&self, n: usize) -> String {
        use om_gi::{mine_pair_exceptions, PairExceptionConfig};
        use om_viz::gi_view;
        let gi = self
            .run_general_impressions(self.exec_ctx(None))
            .expect("unlimited budget never trips");
        let pair = mine_pair_exceptions(&self.store(), &PairExceptionConfig::default());
        let mut out = String::new();
        out.push_str(&gi_view::render_trends(
            &gi.trends,
            false,
            om_viz::ColorMode::Plain,
        ));
        out.push('\n');
        out.push_str(&gi_view::render_exceptions(&gi.exceptions, n));
        out.push('\n');
        out.push_str(&gi_view::render_pair_exceptions(&pair, n));
        out.push('\n');
        out.push_str(&gi_view::render_influence(&gi.influence, n));
        out
    }

    /// Mine class association rules (the CAR generator component).
    ///
    /// # Errors
    /// Propagates miner validation failures.
    pub fn mine_rules(&self, config: &MinerConfig) -> Result<Vec<CarRule>, EngineError> {
        Ok(mine(&self.dataset, config)?)
    }

    /// Restricted mining with fixed conditions (Section III-B).
    ///
    /// # Errors
    /// Propagates miner validation failures.
    pub fn mine_restricted(
        &self,
        fixed: &[Condition],
        config: &MinerConfig,
    ) -> Result<Vec<CarRule>, EngineError> {
        Ok(mine_restricted(&self.dataset, fixed, config)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_synth::paper_scenario;

    fn engine() -> (OpportunityMap, om_synth::GroundTruth) {
        let (ds, truth) = paper_scenario(40_000, 21);
        (
            OpportunityMap::build(ds, EngineConfig::default()).unwrap(),
            truth,
        )
    }

    #[test]
    fn build_discretizes_everything() {
        let (om, _) = engine();
        assert!(om.dataset().all_categorical());
        // SignalStrength and BatteryLevel were continuous.
        assert_eq!(om.cut_points().len(), 2);
        // The store includes the discretized attributes too.
        let sig = om.attr_index("SignalStrength").unwrap();
        assert!(om.store().one_dim(sig).is_ok());
    }

    #[test]
    fn build_aliases_the_callers_categorical_columns() {
        let (ds, _) = paper_scenario(2_000, 21);
        let om = OpportunityMap::build(ds.clone(), EngineConfig::default()).unwrap();
        let mut aliased = 0;
        for idx in 0..ds.schema().n_attributes() {
            match ds.column(idx).as_categorical() {
                // Already categorical: the engine holds the caller's buffer.
                Some(ids) => {
                    assert_eq!(
                        om.dataset().categorical(idx).unwrap().as_ptr(),
                        ids.as_ptr()
                    );
                    aliased += 1;
                }
                // Discretized: a new column, and the caller's is untouched.
                None => assert!(om.dataset().categorical(idx).is_ok()),
            }
        }
        assert_eq!(aliased + om.cut_points().len(), ds.schema().n_attributes());
        assert_eq!(ds, paper_scenario(2_000, 21).0);
    }

    #[test]
    fn end_to_end_case_study() {
        let (om, truth) = engine();
        let result = om
            .run_compare_by_name(
                &truth.compare_attr,
                &truth.baseline_value,
                &truth.target_value,
                &truth.target_class,
                ExecCtx::serial(),
            )
            .unwrap();
        assert_eq!(result.top().unwrap().attr_name, truth.expected_top_attr);
        let view = om.comparison_view(&result);
        assert!(view.contains(&truth.expected_top_attr));
    }

    #[test]
    fn parallel_engine_matches_serial_engine() {
        let (ds, truth) = paper_scenario(40_000, 21);
        let serial = OpportunityMap::build(ds.clone(), EngineConfig::default()).unwrap();
        let parallel = OpportunityMap::build(
            ds,
            EngineConfig {
                exec: ExecConfig { workers: 4 },
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let names = (
            truth.compare_attr.as_str(),
            truth.baseline_value.as_str(),
            truth.target_value.as_str(),
            truth.target_class.as_str(),
        );
        let a = serial
            .run_compare_by_name(names.0, names.1, names.2, names.3, serial.exec_ctx(None))
            .unwrap();
        let b = parallel
            .run_compare_by_name(names.0, names.1, names.2, names.3, parallel.exec_ctx(None))
            .unwrap();
        assert_eq!(a, b);
        let da = serial
            .run_drill_down_by_name(
                names.0,
                names.1,
                names.2,
                names.3,
                &DrillConfig::default(),
                serial.exec_ctx(None),
            )
            .unwrap();
        let db = parallel
            .run_drill_down_by_name(
                names.0,
                names.1,
                names.2,
                names.3,
                &DrillConfig::default(),
                parallel.exec_ctx(None),
            )
            .unwrap();
        assert_eq!(da, db);
        let ga = serial
            .run_general_impressions(serial.exec_ctx(None))
            .unwrap();
        let gb = parallel
            .run_general_impressions(parallel.exec_ctx(None))
            .unwrap();
        assert_eq!(ga.trends, gb.trends);
        assert_eq!(ga.exceptions, gb.exceptions);
        assert_eq!(ga.influence, gb.influence);
    }

    #[test]
    fn batch_outcomes_arrive_in_item_order() {
        let (om, truth) = engine();
        let spec = om
            .spec_by_name(
                &truth.compare_attr,
                &truth.baseline_value,
                &truth.target_value,
                &truth.target_class,
            )
            .unwrap();
        let bogus = ComparisonSpec {
            value_2: spec.value_1,
            ..spec
        };
        let items = vec![
            BatchItem::Compare {
                spec,
                budget_ms: None,
            },
            BatchItem::Compare {
                spec: bogus,
                budget_ms: None,
            },
            BatchItem::Drill {
                spec,
                path: Vec::new(),
                budget_ms: None,
            },
        ];
        let outcomes = om
            .run_batch(&items, &DrillConfig::default(), om.exec_ctx(None))
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        let single = om.run_compare(&spec, om.exec_ctx(None)).unwrap();
        assert!(matches!(&outcomes[0], BatchOutcome::Compare(r) if *r == single));
        assert!(matches!(&outcomes[1], BatchOutcome::Failed { .. }));
        let walked = om
            .run_drill_down_by_name(
                &truth.compare_attr,
                &truth.baseline_value,
                &truth.target_value,
                &truth.target_class,
                &DrillConfig::default(),
                om.exec_ctx(None),
            )
            .unwrap();
        assert!(matches!(&outcomes[2], BatchOutcome::Drill(levels) if *levels == walked));
    }

    #[test]
    fn views_render() {
        let (om, _) = engine();
        let overall = om.overall_view(&Default::default());
        assert!(overall.contains("dropped"));
        let detailed = om.detailed_view("PhoneModel", &Default::default()).unwrap();
        assert!(detailed.contains("ph1"));
        assert!(om.detailed_view("Nope", &Default::default()).is_err());
    }

    #[test]
    fn general_impressions_nonempty() {
        let (om, _) = engine();
        let gi = om.run_general_impressions(ExecCtx::serial()).unwrap();
        assert_eq!(
            gi.trends.len(),
            om.store().attrs().len() * om.dataset().schema().n_classes()
        );
        assert!(!gi.influence.is_empty());
        // The planted interaction produces at least one exception
        // somewhere (ph2-morning raises TimeOfCall=morning's drop rate).
        assert!(!gi.exceptions.is_empty());
    }

    #[test]
    fn rule_mining_through_engine() {
        let (om, _) = engine();
        let rules = om
            .mine_rules(&MinerConfig {
                min_support: 0.001,
                min_confidence: 0.01,
                max_conditions: 2,
                attrs: None,
            })
            .unwrap();
        assert!(!rules.is_empty());
        let phone = om.attr_index("PhoneModel").unwrap();
        let ph2 = om.value_id(phone, "ph2").unwrap();
        let restricted = om
            .mine_restricted(
                &[Condition::new(phone, ph2)],
                &MinerConfig {
                    min_support: 0.0,
                    min_confidence: 0.0,
                    max_conditions: 2,
                    attrs: None,
                },
            )
            .unwrap();
        assert!(!restricted.is_empty());
    }

    #[test]
    fn expired_budget_surfaces_as_overload_fault() {
        use std::time::Duration;
        let (om, truth) = engine();
        let spent = Budget::with_timeout(Duration::ZERO);
        let r = om.run_compare_by_name(
            &truth.compare_attr,
            &truth.baseline_value,
            &truth.target_value,
            &truth.target_class,
            ExecCtx::budgeted(&spent),
        );
        match r {
            Err(e @ EngineError::Fault(FaultError::DeadlineExceeded { .. })) => {
                assert!(e.is_overload());
                assert!(e.to_string().contains("deadline exceeded"));
            }
            other => panic!("expected deadline fault, got {other:?}"),
        }
        assert!(om
            .run_general_impressions(ExecCtx::budgeted(&spent))
            .is_err());
        assert!(om
            .run_drill_down_by_name(
                &truth.compare_attr,
                &truth.baseline_value,
                &truth.target_value,
                &truth.target_class,
                &DrillConfig::default(),
                ExecCtx::budgeted(&spent),
            )
            .is_err());
    }

    #[test]
    fn budgeted_results_match_plain_results() {
        let (om, truth) = engine();
        let plain = om
            .run_compare_by_name(
                &truth.compare_attr,
                &truth.baseline_value,
                &truth.target_value,
                &truth.target_class,
                ExecCtx::serial(),
            )
            .unwrap();
        let generous = Budget::with_timeout(std::time::Duration::from_secs(600));
        let budgeted = om
            .run_compare_by_name(
                &truth.compare_attr,
                &truth.baseline_value,
                &truth.target_value,
                &truth.target_class,
                ExecCtx::budgeted(&generous),
            )
            .unwrap();
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn name_resolution_errors() {
        let (om, _) = engine();
        assert!(om.attr_index("Bogus").is_err());
        assert!(om.class_id("bogus").is_err());
        let phone = om.attr_index("PhoneModel").unwrap();
        assert!(om.value_id(phone, "ph99").is_err());
        assert!(om
            .run_compare_by_name("PhoneModel", "ph1", "ph99", "dropped", ExecCtx::serial())
            .is_err());
        assert!(om.condition_by_name("PhoneModel", "ph99").is_err());
        assert!(om.condition_by_name("Bogus", "x").is_err());
    }
}
