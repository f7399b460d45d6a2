//! Report types: the labeled, wire-friendly outcome of an exploration.

use om_cube::CubeStore;

use crate::error::ExploreError;
use crate::greedy::{GreedyOutcome, Picked};

/// One summary condition with resolved labels.
#[derive(Debug, Clone, PartialEq)]
pub struct CondLabel {
    /// Attribute name.
    pub attr: String,
    /// Value label.
    pub value: String,
}

/// One ranked summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// The summary's non-⋆ conditions (excluding any shared slice
    /// condition), sorted by attribute.
    pub conds: Vec<CondLabel>,
    /// Exact number of rows matching the summary within the explored
    /// population.
    pub support: u64,
    /// Marginal weighted coverage this summary earned when selected —
    /// its contribution to `covered`.
    pub coverage: u64,
    /// Per-class rule confidence within the summary's rows, in class
    /// order (`count_c / support`).
    pub confidences: Vec<f64>,
    /// `explore_compare` only: which sub-population the summary came
    /// from (1 = the comparator's normalized `value_1` side, 2 = the
    /// `value_2` side).
    pub side: Option<u8>,
    /// `explore_compare` only: the distinguishing mass `W_k` of the
    /// summary's condition in the anchoring comparison.
    pub mass: Option<f64>,
}

/// The comparison behind an `explore_compare` report, with the
/// comparator's normalization applied.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareMeta {
    /// Compared attribute name.
    pub attr: String,
    /// Normalized lower-confidence value label.
    pub value_1: String,
    /// Normalized higher-confidence value label.
    pub value_2: String,
    /// Target class label.
    pub class: String,
    /// Whether the comparator swapped the input values.
    pub swapped: bool,
}

/// The outcome of an exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// Class labels, in class-id order (indexes `confidences`).
    pub classes: Vec<String>,
    /// Rows in the explored population (both sides summed in compare
    /// mode).
    pub universe: u64,
    /// Accumulated weighted coverage across the returned summaries.
    pub covered: u64,
    /// Greedy steps executed.
    pub steps: u64,
    /// True when a budget expiry (or injected fault) cut the run short
    /// after at least one summary completed — the summaries present are
    /// a valid prefix of the full answer.
    pub truncated: bool,
    /// Ranked summaries.
    pub summaries: Vec<SummaryRow>,
    /// Set in compare mode.
    pub compare: Option<CompareMeta>,
}

/// Resolve one picked candidate into a labeled row.
pub(crate) fn row_for(
    cs: &CubeStore,
    picked: &Picked,
    side: Option<u8>,
    mass: Option<f64>,
) -> Result<SummaryRow, ExploreError> {
    let mut conds = Vec::with_capacity(picked.cand.conds.len());
    for c in &picked.cand.conds {
        let one = cs.one_dim(c.attr)?;
        let dim = one.dims().first().ok_or_else(|| {
            ExploreError::Invalid(format!(
                "one-dim cube for attribute {} has no dimension",
                c.attr
            ))
        })?;
        let value = dim.labels.get(c.value as usize).cloned().ok_or_else(|| {
            ExploreError::Invalid(format!(
                "value id {} out of range for attribute {:?}",
                c.value, dim.name
            ))
        })?;
        conds.push(CondLabel {
            attr: dim.name.to_string(),
            value,
        });
    }
    let support = picked.cand.support;
    #[allow(clippy::cast_precision_loss)]
    let confidences = picked
        .cand
        .class_counts
        .iter()
        .map(|&n| {
            if support == 0 {
                0.0
            } else {
                n as f64 / support as f64
            }
        })
        .collect();
    Ok(SummaryRow {
        conds,
        support,
        coverage: picked.gain,
        confidences,
        side,
        mass,
    })
}

/// Assemble a single-population report.
pub(crate) fn assemble(
    cs: &CubeStore,
    universe: u64,
    outcome: &GreedyOutcome,
    compare: Option<CompareMeta>,
) -> Result<ExploreReport, ExploreError> {
    let mut summaries = Vec::with_capacity(outcome.picks.len());
    for p in &outcome.picks {
        summaries.push(row_for(cs, p, None, None)?);
    }
    Ok(ExploreReport {
        classes: cs.class_labels().to_vec(),
        universe,
        covered: outcome.covered,
        steps: outcome.steps,
        truncated: outcome.truncated,
        summaries,
        compare,
    })
}
