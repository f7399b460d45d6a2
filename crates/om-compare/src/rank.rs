//! The comparison driver (the algorithm of Fig. 3).
//!
//! ```text
//! for each A_i in {A_2 … A_n}:  M_i ← M(D_1, D_2, A_i)
//! rank A_2 … A_n by M_i
//! ```
//!
//! The driver reads **only rule cubes** from the [`CubeStore`] — never the
//! raw records — which is why the paper's Fig. 9 comparison time depends
//! on the number of attributes but "is not affected by the original data
//! set size".

use std::fmt;

use om_cube::olap::slice;
use om_cube::{CubeError, CubeStore, RuleCube};
use om_data::ValueId;
use om_fault::fail::{self, Seam};
use om_fault::{Budget, FaultError};

use crate::interval::IntervalMethod;
use crate::measure::{score_attribute, AttrScore, SubPopCounts};

/// The user's selection: one attribute, two of its values, and the class
/// of interest (Section III-C's input rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComparisonSpec {
    /// Schema index of the selected attribute (e.g. `PhoneModel`).
    pub attr: usize,
    /// First value (e.g. `ph1`).
    pub value_1: ValueId,
    /// Second value (e.g. `ph2`).
    pub value_2: ValueId,
    /// The class of interest `c_a` (e.g. `dropped`).
    pub class: ValueId,
}

/// Comparator configuration.
#[derive(Debug, Clone)]
pub struct CompareConfig {
    /// Interval adjustment (Section IV-B); the paper ships Wald at 0.95.
    pub interval: IntervalMethod,
    /// Property-attribute threshold τ (Section IV-C); 0.9 in the paper.
    pub property_tau: f64,
    /// Minimum records per sub-population — the paper assumes "both
    /// supports are large enough for meaningful analysis (which is decided
    /// by the user)".
    pub min_sub_population: u64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        Self {
            interval: IntervalMethod::paper_default(),
            property_tau: 0.9,
            min_sub_population: 30,
        }
    }
}

/// Errors from the comparator.
#[derive(Debug)]
pub enum CompareError {
    /// The underlying cube store failed.
    Cube(CubeError),
    /// The spec was malformed (unknown attribute/value/class, v1 == v2).
    InvalidSpec(String),
    /// A sub-population is smaller than `min_sub_population`.
    InsufficientSupport {
        value_label: String,
        count: u64,
        required: u64,
    },
    /// The lower of the two rule confidences is zero; the measure's
    /// expected-confidence ratio `cf_2 / cf_1` is undefined.
    ZeroBaselineConfidence,
    /// A pinned drill condition cannot be applied: it is outside the
    /// schema's domain, or no record satisfies it. Carries the whole
    /// message.
    Condition(String),
    /// The comparison ran out of budget or was cancelled mid-flight.
    Fault(FaultError),
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompareError::Cube(e) => write!(f, "cube error: {e}"),
            CompareError::InvalidSpec(msg) => write!(f, "invalid comparison spec: {msg}"),
            CompareError::InsufficientSupport {
                value_label,
                count,
                required,
            } => write!(
                f,
                "sub-population {value_label:?} has {count} records, fewer than the required {required}"
            ),
            CompareError::ZeroBaselineConfidence => write!(
                f,
                "the class of interest never occurs in the lower sub-population; the expected-confidence ratio is undefined"
            ),
            CompareError::Condition(msg) => write!(f, "{msg}"),
            CompareError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompareError {}

impl From<CubeError> for CompareError {
    fn from(e: CubeError) -> Self {
        match e {
            // Keep faults recognizable at every layer: a deadline that
            // tripped inside a cube walk is still a deadline.
            CubeError::Fault(f) => CompareError::Fault(f),
            other => CompareError::Cube(other),
        }
    }
}

impl From<FaultError> for CompareError {
    fn from(e: FaultError) -> Self {
        CompareError::Fault(e)
    }
}

/// The full output of one comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonResult {
    /// Schema index of the compared attribute.
    pub attr: usize,
    pub attr_name: String,
    /// The *good* (lower-confidence) value after normalization.
    pub value_1: ValueId,
    pub value_1_label: String,
    /// The *bad* (higher-confidence) value.
    pub value_2: ValueId,
    pub value_2_label: String,
    /// Whether the input values were swapped to enforce `cf1 <= cf2`.
    pub swapped: bool,
    pub class: ValueId,
    pub class_label: String,
    /// Overall rule confidences and sub-population sizes.
    pub cf1: f64,
    pub cf2: f64,
    pub n1: u64,
    pub n2: u64,
    /// Non-property attributes, ranked by `M_i` descending.
    pub ranked: Vec<AttrScore>,
    /// Property attributes, "automatically detected and put in a separate
    /// list", sorted by disjointness ratio.
    pub property_attrs: Vec<AttrScore>,
}

impl ComparisonResult {
    /// The top-ranked attribute, if any non-property attribute scored.
    pub fn top(&self) -> Option<&AttrScore> {
        self.ranked.first()
    }

    /// Rank (0-based) of the attribute named `name` in the ranked list.
    pub fn rank_of(&self, name: &str) -> Option<usize> {
        self.ranked.iter().position(|s| s.attr_name == name)
    }
}

/// The comparator: ranks attributes by the Section IV measure, reading
/// only rule cubes.
///
/// ```
/// use om_compare::{Comparator, ComparisonSpec};
/// use om_cube::{CubeStore, StoreBuildOptions};
/// use om_synth::paper_scenario;
///
/// let (ds, truth) = paper_scenario(20_000, 1);
/// let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
/// let s = ds.schema();
/// let attr = s.attr_index("PhoneModel").unwrap();
/// let spec = ComparisonSpec {
///     attr,
///     value_1: s.attribute(attr).domain().get("ph1").unwrap(),
///     value_2: s.attribute(attr).domain().get("ph2").unwrap(),
///     class: s.class().domain().get("dropped").unwrap(),
/// };
/// let result = Comparator::new(&store).compare(&spec).unwrap();
/// assert_eq!(result.top().unwrap().attr_name, truth.expected_top_attr);
/// ```
pub struct Comparator<'a> {
    store: &'a CubeStore,
    config: CompareConfig,
}

impl<'a> Comparator<'a> {
    /// A comparator with the paper's deployed configuration.
    pub fn new(store: &'a CubeStore) -> Self {
        Self {
            store,
            config: CompareConfig::default(),
        }
    }

    /// A comparator with an explicit configuration.
    pub fn with_config(store: &'a CubeStore, config: CompareConfig) -> Self {
        Self { store, config }
    }

    pub fn config(&self) -> &CompareConfig {
        &self.config
    }

    /// Run the comparison of Fig. 3 for `spec`.
    ///
    /// # Errors
    /// See [`CompareError`].
    pub fn compare(&self, spec: &ComparisonSpec) -> Result<ComparisonResult, CompareError> {
        self.compare_budgeted(spec, &Budget::unlimited())
    }

    /// [`compare`](Self::compare) under a cooperative [`Budget`]: the
    /// deadline is checked once per compared attribute (the unit of work
    /// Fig. 9 scales in), so an expensive comparison stops within one
    /// attribute's worth of work past its budget.
    ///
    /// # Errors
    /// See [`CompareError`]; [`CompareError::Fault`] when the budget
    /// expires or the request is cancelled.
    pub fn compare_budgeted(
        &self,
        spec: &ComparisonSpec,
        budget: &Budget,
    ) -> Result<ComparisonResult, CompareError> {
        budget.check()?;
        let norm = normalize(self.store, &self.config, spec)?;
        let mut scores = Vec::with_capacity(self.store.attrs().len().saturating_sub(1));
        for &other in self.store.attrs() {
            if other == norm.spec.attr {
                continue;
            }
            budget.check()?;
            scores.push(score_candidate(self.store, &self.config, &norm, other)?);
        }
        Ok(assemble(norm, scores, &self.config))
    }
}

/// Base rule statistics of the two compared sub-populations, gathered
/// once per comparison from the selected attribute's 2-D cube.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseStats {
    pub attr_name: String,
    pub v1_label: String,
    pub v2_label: String,
    pub class_label: String,
    pub cf1: f64,
    pub cf2: f64,
    pub n1: u64,
    pub n2: u64,
}

/// A validated comparison oriented so `cf1 <= cf2`: the shared input of
/// every per-attribute scoring step.
///
/// [`normalize`] → N × [`score_candidate`] → [`assemble`] is the exact
/// pipeline [`Comparator::compare_budgeted`] runs serially; execution
/// layers (om-exec) shard the middle stage across workers and reuse the
/// outer two unchanged, so parallel output is byte-identical to serial
/// by construction rather than by re-implementation.
#[derive(Debug, Clone)]
pub struct NormalizedSpec {
    /// The oriented spec: `value_1` is the lower-confidence value.
    pub spec: ComparisonSpec,
    /// Whether the input values were swapped to enforce `cf1 <= cf2`.
    pub swapped: bool,
    /// Base statistics backing every `F_k` computation.
    pub base: BaseStats,
}

/// Validate `spec` against `store`, orient it so `cf1 <= cf2`, and gather
/// the base rule statistics.
///
/// # Errors
/// [`CompareError::InvalidSpec`], [`CompareError::InsufficientSupport`]
/// or [`CompareError::ZeroBaselineConfidence`] on a spec the measure is
/// undefined for; [`CompareError::Cube`] if the store lacks the cubes.
pub fn normalize(
    store: &CubeStore,
    config: &CompareConfig,
    spec: &ComparisonSpec,
) -> Result<NormalizedSpec, CompareError> {
    if spec.value_1 == spec.value_2 {
        return Err(CompareError::InvalidSpec(
            "the two compared values must differ".into(),
        ));
    }
    let one = store.one_dim(spec.attr)?;
    let dim = &one.dims()[0];
    let card = dim.cardinality() as ValueId;
    for v in [spec.value_1, spec.value_2] {
        if v >= card {
            return Err(CompareError::InvalidSpec(format!(
                "value id {v} out of range for attribute {:?} (cardinality {card})",
                dim.name
            )));
        }
    }
    if spec.class as usize >= one.n_classes() {
        return Err(CompareError::InvalidSpec(format!(
            "class id {} out of range ({} classes)",
            spec.class,
            one.n_classes()
        )));
    }

    let stats = |v: ValueId| -> Result<(u64, u64), CompareError> {
        let n = one.cell_total(&[v])?;
        let x = one.count(&[v], spec.class)?;
        Ok((n, x))
    };
    let (mut n1, mut x1) = stats(spec.value_1)?;
    let (mut n2, mut x2) = stats(spec.value_2)?;
    let (mut v1, mut v2) = (spec.value_1, spec.value_2);
    let conf = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    let mut swapped = false;
    if conf(x1, n1) > conf(x2, n2) {
        std::mem::swap(&mut n1, &mut n2);
        std::mem::swap(&mut x1, &mut x2);
        std::mem::swap(&mut v1, &mut v2);
        swapped = true;
    }
    for (v, n) in [(v1, n1), (v2, n2)] {
        if n < config.min_sub_population {
            return Err(CompareError::InsufficientSupport {
                value_label: dim.labels[v as usize].clone(),
                count: n,
                required: config.min_sub_population,
            });
        }
    }
    let cf1 = conf(x1, n1);
    let cf2 = conf(x2, n2);
    if cf1 <= 0.0 {
        return Err(CompareError::ZeroBaselineConfidence);
    }
    Ok(NormalizedSpec {
        spec: ComparisonSpec {
            attr: spec.attr,
            value_1: v1,
            value_2: v2,
            class: spec.class,
        },
        swapped,
        base: BaseStats {
            attr_name: dim.name.clone(),
            v1_label: dim.labels[v1 as usize].clone(),
            v2_label: dim.labels[v2 as usize].clone(),
            class_label: one.class_labels()[spec.class as usize].clone(),
            cf1,
            cf2,
            n1,
            n2,
        },
    })
}

/// Score one candidate attribute against a normalized spec — the
/// per-attribute unit of work of Fig. 3's loop, and the unit Fig. 9
/// scales in. Reads only rule cubes and writes nothing, so shards can
/// run it concurrently against one pinned store.
///
/// # Errors
/// [`CompareError::Cube`] if the store lacks the pair cube;
/// [`CompareError::Fault`] from an armed `compare.attr` failpoint.
pub fn score_candidate(
    store: &CubeStore,
    config: &CompareConfig,
    norm: &NormalizedSpec,
    other: usize,
) -> Result<AttrScore, CompareError> {
    fail::inject(Seam::CompareAttr)?;
    let spec = &norm.spec;
    let (labels, d1, d2) = subpop_counts(
        store,
        spec.attr,
        other,
        spec.value_1,
        spec.value_2,
        spec.class,
    )?;
    let name = attr_name(store, other)?;
    Ok(score_attribute(
        other,
        &name,
        &labels,
        &d1,
        &d2,
        norm.base.cf1,
        norm.base.cf2,
        config.interval,
    ))
}

/// Partition scored attributes into the ranked and property lists and
/// apply the canonical sort orders.
///
/// `scores` must arrive in store-attribute order (the order
/// `store.attrs()` yields): both sorts are stable, so ties keep their
/// input order and serial vs sharded execution produce byte-identical
/// results if and only if the pre-sort order matches.
pub fn assemble(
    norm: NormalizedSpec,
    scores: Vec<AttrScore>,
    config: &CompareConfig,
) -> ComparisonResult {
    let mut ranked: Vec<AttrScore> = Vec::new();
    let mut property_attrs: Vec<AttrScore> = Vec::new();
    for score in scores {
        if score.property.is_property(config.property_tau) {
            property_attrs.push(score);
        } else {
            ranked.push(score);
        }
    }

    ranked.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.attr.cmp(&b.attr))
    });
    property_attrs.sort_by(|a, b| {
        b.property
            .ratio()
            .partial_cmp(&a.property.ratio())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    });

    ComparisonResult {
        attr: norm.spec.attr,
        attr_name: norm.base.attr_name,
        value_1: norm.spec.value_1,
        value_1_label: norm.base.v1_label,
        value_2: norm.spec.value_2,
        value_2_label: norm.base.v2_label,
        swapped: norm.swapped,
        class: norm.spec.class,
        class_label: norm.base.class_label,
        cf1: norm.base.cf1,
        cf2: norm.base.cf2,
        n1: norm.base.n1,
        n2: norm.base.n2,
        ranked,
        property_attrs,
    }
}

/// Name of attribute `attr` as recorded in its 2-D cube.
///
/// # Errors
/// [`CubeError`] if the store has no cube for `attr`.
pub fn attr_name(store: &CubeStore, attr: usize) -> Result<String, CubeError> {
    Ok(store.one_dim(attr)?.dims()[0].name.clone())
}

/// Extract the per-value counts of both sub-populations for `other` from
/// the 3-D cube `(sel, other, class)` — two slice operations, exactly the
/// manual workflow of Section III-C, automated.
///
/// # Errors
/// [`CompareError::Cube`] if the pair cube is missing or malformed.
pub fn subpop_counts(
    store: &CubeStore,
    sel: usize,
    other: usize,
    v1: ValueId,
    v2: ValueId,
    class: ValueId,
) -> Result<(Vec<String>, SubPopCounts, SubPopCounts), CompareError> {
    let (labels, d1, d2) = subpop_slices(store, sel, other, v1, v2)?;
    Ok((
        labels,
        counts_for_class(&d1, class)?,
        counts_for_class(&d2, class)?,
    ))
}

/// The two sub-population slices of the pair cube `(sel, other)`, before
/// any class is chosen. Batch plans whose items share a base population
/// fetch these once per candidate attribute and extract per-class counts
/// with [`counts_for_class`] — one cube pass serving many comparisons.
///
/// # Errors
/// [`CompareError::Cube`] if the pair cube is missing or malformed.
pub fn subpop_slices(
    store: &CubeStore,
    sel: usize,
    other: usize,
    v1: ValueId,
    v2: ValueId,
) -> Result<(Vec<String>, RuleCube, RuleCube), CompareError> {
    let pair = store.pair(sel, other)?;
    // A store assembled from a corrupt or hand-built artifact can hold a
    // pair cube that doesn't mention `sel`; this path is reachable from
    // network input, so it must not panic.
    let sel_dim = pair
        .dims()
        .iter()
        .position(|d| d.attr_index == sel)
        .ok_or_else(|| {
            CompareError::Cube(CubeError::Invalid(format!(
                "pair cube ({sel}, {other}) lacks the selected attribute dimension"
            )))
        })?;
    let labels = pair.dims()[1 - sel_dim].labels.clone();
    let d1 = slice(&pair, sel_dim, v1)?;
    let d2 = slice(&pair, sel_dim, v2)?;
    Ok((labels, d1, d2))
}

/// Per-value `(N_k, x_k)` counts of one sub-population slice for `class`.
///
/// # Errors
/// [`CompareError::Cube`] on an out-of-range class.
pub fn counts_for_class(cube: &RuleCube, class: ValueId) -> Result<SubPopCounts, CompareError> {
    let card = cube.dims()[0].cardinality();
    let mut n = Vec::with_capacity(card);
    let mut x = Vec::with_capacity(card);
    for k in 0..card as ValueId {
        n.push(cube.cell_total(&[k])?);
        x.push(cube.count(&[k], class)?);
    }
    Ok(SubPopCounts::new(n, x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_cube::StoreBuildOptions;
    use om_synth::paper_scenario;

    fn scenario() -> (om_data::Dataset, om_synth::GroundTruth, CubeStore) {
        let (mut ds, truth) = paper_scenario(60_000, 7);
        om_discretize_for_test(&mut ds);
        let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        (ds, truth, store)
    }

    /// Drop the continuous attributes (keep the test focused on the
    /// comparator; full-pipeline discretization is covered in the
    /// integration tests).
    fn om_discretize_for_test(_ds: &mut om_data::Dataset) {
        // CubeStore::build skips continuous attributes by default.
    }

    fn spec_for(ds: &om_data::Dataset, truth: &om_synth::GroundTruth) -> ComparisonSpec {
        let s = ds.schema();
        let attr = s.attr_index(&truth.compare_attr).unwrap();
        ComparisonSpec {
            attr,
            value_1: s
                .attribute(attr)
                .domain()
                .get(&truth.baseline_value)
                .unwrap(),
            value_2: s.attribute(attr).domain().get(&truth.target_value).unwrap(),
            class: s.class().domain().get(&truth.target_class).unwrap(),
        }
    }

    #[test]
    fn recovers_the_planted_attribute_at_rank_one() {
        let (ds, truth, store) = scenario();
        let comparator = Comparator::new(&store);
        let result = comparator.compare(&spec_for(&ds, &truth)).unwrap();
        let top = result.top().expect("has ranked attributes");
        assert_eq!(
            top.attr_name,
            truth.expected_top_attr,
            "ranking: {:?}",
            result
                .ranked
                .iter()
                .map(|s| (&s.attr_name, s.score))
                .collect::<Vec<_>>()
        );
        // The planted value (morning) dominates the contribution.
        assert_eq!(top.top_values()[0].label, truth.expected_top_value);
        // The common-cause attribute must not outrank the planted one.
        for u in &truth.uninformative_attrs {
            assert!(result.rank_of(u).unwrap() > 0, "{u} outranked the cause");
        }
    }

    #[test]
    fn property_attribute_diverted_to_separate_list() {
        let (ds, truth, store) = scenario();
        let comparator = Comparator::new(&store);
        let result = comparator.compare(&spec_for(&ds, &truth)).unwrap();
        for p in &truth.property_attrs {
            assert!(
                result.property_attrs.iter().any(|s| &s.attr_name == p),
                "{p} missing from the property list: {:?}",
                result
                    .property_attrs
                    .iter()
                    .map(|s| &s.attr_name)
                    .collect::<Vec<_>>()
            );
            assert!(result.rank_of(p).is_none(), "{p} must not be ranked");
        }
    }

    #[test]
    fn swaps_to_enforce_cf1_below_cf2() {
        let (ds, truth, store) = scenario();
        let comparator = Comparator::new(&store);
        let spec = spec_for(&ds, &truth);
        let reversed = ComparisonSpec {
            value_1: spec.value_2,
            value_2: spec.value_1,
            ..spec
        };
        let a = comparator.compare(&spec).unwrap();
        let b = comparator.compare(&reversed).unwrap();
        assert!(!a.swapped);
        assert!(b.swapped);
        assert_eq!(a.cf1, b.cf1);
        assert_eq!(a.value_2_label, b.value_2_label);
        assert_eq!(
            a.ranked.iter().map(|s| s.attr).collect::<Vec<_>>(),
            b.ranked.iter().map(|s| s.attr).collect::<Vec<_>>()
        );
        assert!(a.cf1 <= a.cf2);
    }

    #[test]
    fn spec_validation_errors() {
        let (ds, truth, store) = scenario();
        let comparator = Comparator::new(&store);
        let spec = spec_for(&ds, &truth);
        // Same value twice.
        let r = comparator.compare(&ComparisonSpec {
            value_2: spec.value_1,
            ..spec
        });
        assert!(matches!(r, Err(CompareError::InvalidSpec(_))));
        // Bad value id.
        let r = comparator.compare(&ComparisonSpec {
            value_2: 99,
            ..spec
        });
        assert!(matches!(r, Err(CompareError::InvalidSpec(_))));
        // Bad class id.
        let r = comparator.compare(&ComparisonSpec { class: 99, ..spec });
        assert!(matches!(r, Err(CompareError::InvalidSpec(_))));
        // Unknown attribute.
        let r = comparator.compare(&ComparisonSpec { attr: 999, ..spec });
        assert!(matches!(r, Err(CompareError::Cube(_))));
    }

    #[test]
    fn min_support_enforced() {
        let (ds, truth, store) = scenario();
        let comparator = Comparator::with_config(
            &store,
            CompareConfig {
                min_sub_population: u64::MAX,
                ..CompareConfig::default()
            },
        );
        let r = comparator.compare(&spec_for(&ds, &truth));
        assert!(
            matches!(r, Err(CompareError::InsufficientSupport { .. })),
            "{r:?}"
        );
    }

    #[test]
    fn expired_budget_aborts_comparison() {
        use std::time::Duration;
        let (ds, truth, store) = scenario();
        let comparator = Comparator::new(&store);
        let spec = spec_for(&ds, &truth);
        let spent = Budget::with_timeout(Duration::ZERO);
        let r = comparator.compare_budgeted(&spec, &spent);
        assert!(matches!(r, Err(CompareError::Fault(_))), "{r:?}");
        // The same spec under no budget still works.
        assert!(comparator
            .compare_budgeted(&spec, &Budget::unlimited())
            .is_ok());
    }

    #[test]
    fn cancellation_aborts_comparison() {
        let (ds, truth, store) = scenario();
        let comparator = Comparator::new(&store);
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let r = comparator.compare_budgeted(&spec_for(&ds, &truth), &budget);
        assert!(
            matches!(r, Err(CompareError::Fault(FaultError::Cancelled))),
            "{r:?}"
        );
    }

    #[test]
    fn error_display_strings() {
        let e = CompareError::ZeroBaselineConfidence;
        assert!(e.to_string().contains("never occurs"));
        let e = CompareError::InsufficientSupport {
            value_label: "ph9".into(),
            count: 3,
            required: 30,
        };
        assert!(e.to_string().contains("ph9"));
    }
}
