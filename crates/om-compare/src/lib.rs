//! **The paper's primary contribution**: automated comparison of two
//! sub-populations over rule cubes (Sections III-C and IV).
//!
//! Given two values `v_i`, `v_j` of one attribute and a class of interest
//! `c_a` — e.g. two phone models and the `dropped` class — the comparator
//! ranks every *other* attribute by how well it distinguishes the two
//! sub-populations `D_1 = {d | A(d) = v_i}` and `D_2 = {d | A(d) = v_j}`
//! with respect to `c_a`:
//!
//! * [`measure`] — the interestingness measure of Section IV-A:
//!   `M_i = Σ_k W_k`, `W_k = F_k · N_2k` when `F_k > 0` else `0`, with
//!   `F_k = rcf_2k − rcf_1k · (cf_2 / cf_1)` — the *excess* of the bad
//!   sub-population's confidence over what the overall ratio predicts;
//! * [`interval`] — the confidence-interval adjustment of Section IV-B
//!   (`rcf_1k = cf_1k + e_1k`, `rcf_2k = cf_2k − e_2k`, Wald margins at a
//!   configurable level; Wilson available as an ablation);
//! * [`property`] — property-attribute detection of Section IV-C
//!   (`P / (P + T) ≥ τ`, τ = 0.9 in the deployed system); property
//!   attributes are diverted to a separate list, not ranked;
//! * [`rank`] — the driver: reads **only rule cubes** (the paper:
//!   "the computation time is not affected by the original data set
//!   size"), producing a [`rank::ComparisonResult`];
//! * [`baselines`] — alternative attribute rankers (chi-square,
//!   information gain, absolute confidence difference) used by the
//!   recovery experiment to show why the paper's measure is the right one;
//! * [`report`] — plain-text rendering of results.

pub mod baselines;
pub mod drill;
pub mod groups;
pub mod interval;
pub mod measure;
pub mod property;
pub mod rank;
pub mod report;

pub use drill::{
    candidate_attrs_in, drill_down, drill_down_budgeted, drill_down_via, drill_path_via, Descent,
    DrillConfig, DrillLevel, DrillMemo, DrillPopulation, SelectorPopulation,
};
pub use groups::{compare_groups, GroupSpec};
pub use interval::IntervalMethod;
pub use measure::{score_attribute, AttrScore, SubPopCounts, ValueContribution};
pub use property::PropertyInfo;
pub use rank::{
    assemble, attr_name, counts_for_class, normalize, score_candidate, subpop_counts,
    subpop_slices, BaseStats, CompareConfig, CompareError, Comparator, ComparisonResult,
    ComparisonSpec, NormalizedSpec,
};
