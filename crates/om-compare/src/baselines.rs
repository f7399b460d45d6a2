//! Baseline attribute rankers for the recovery experiment.
//!
//! The paper's related work argues that ranking *rules* by generic
//! interestingness measures "represent\[s\] some artifacts of the data
//! rather than any useful patterns" and that the comparison problem is
//! different from plain attribute/class association. These baselines make
//! that argument testable: each ranks the same candidate attributes for
//! the same comparison spec, and the root `tests/recovery.rs` holds the
//! contrast at fixed seeds: the paper's measure puts the planted cause
//! first and stays quiet on a confound the naive difference falls for.

use om_cube::CubeStore;
use om_stats::{chi2_independence, info_gain};

use crate::measure::SubPopCounts;
use crate::rank::{attr_name, subpop_counts, CompareConfig, CompareError, Comparator, ComparisonSpec};

/// A ranked attribute: schema index, display name, score.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedAttr {
    pub attr: usize,
    pub attr_name: String,
    pub score: f64,
}

/// An attribute ranker: given a comparison spec, order the candidate
/// attributes by how well they explain the difference.
pub trait AttributeRanker {
    /// Short identifier used in experiment tables.
    fn name(&self) -> &'static str;

    /// Rank all non-selected attributes, best first.
    ///
    /// # Errors
    /// Propagates spec/cube failures.
    fn rank(
        &self,
        store: &CubeStore,
        spec: &ComparisonSpec,
    ) -> Result<Vec<RankedAttr>, CompareError>;
}

/// The paper's measure (Section IV), via the full [`Comparator`]. Property
/// attributes are excluded (they live in the separate list).
pub struct OmRanker(pub CompareConfig);

impl AttributeRanker for OmRanker {
    fn name(&self) -> &'static str {
        "om-measure"
    }

    fn rank(
        &self,
        store: &CubeStore,
        spec: &ComparisonSpec,
    ) -> Result<Vec<RankedAttr>, CompareError> {
        let result = Comparator::with_config(store, self.0.clone()).compare(spec)?;
        Ok(result
            .ranked
            .into_iter()
            .map(|s| RankedAttr {
                attr: s.attr,
                attr_name: s.attr_name,
                score: s.score,
            })
            .collect())
    }
}

/// Shared plumbing: iterate candidate attributes with their sub-population
/// counts, apply `score`, sort descending.
fn rank_by<F>(
    store: &CubeStore,
    spec: &ComparisonSpec,
    score: F,
) -> Result<Vec<RankedAttr>, CompareError>
where
    F: Fn(&SubPopCounts, &SubPopCounts) -> f64,
{
    let mut out = Vec::new();
    for &other in store.attrs() {
        if other == spec.attr {
            continue;
        }
        let (_, d1, d2) = subpop_counts(
            store,
            spec.attr,
            other,
            spec.value_1,
            spec.value_2,
            spec.class,
        )?;
        out.push(RankedAttr {
            attr: other,
            attr_name: attr_name(store, other)?,
            score: score(&d1, &d2),
        });
    }
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.attr.cmp(&b.attr))
    });
    Ok(out)
}

/// Chi-square of (sub-population × attribute value) among the records of
/// the class of interest: "are the failures distributed differently?".
pub struct ChiSquareRanker;

impl AttributeRanker for ChiSquareRanker {
    fn name(&self) -> &'static str {
        "chi-square"
    }

    fn rank(
        &self,
        store: &CubeStore,
        spec: &ComparisonSpec,
    ) -> Result<Vec<RankedAttr>, CompareError> {
        rank_by(store, spec, |d1, d2| {
            let table = vec![d1.x.clone(), d2.x.clone()];
            chi2_independence(&table).statistic
        })
    }
}

/// Information gain of the attribute for predicting the class *within the
/// bad sub-population only* — a classifier's view, blind to the baseline,
/// so common causes (the Fig. 2(A) situation) fool it.
pub struct InfoGainRanker;

impl AttributeRanker for InfoGainRanker {
    fn name(&self) -> &'static str {
        "info-gain-d2"
    }

    fn rank(
        &self,
        store: &CubeStore,
        spec: &ComparisonSpec,
    ) -> Result<Vec<RankedAttr>, CompareError> {
        rank_by(store, spec, |_d1, d2| {
            let parts: Vec<Vec<u64>> = d2
                .n
                .iter()
                .zip(&d2.x)
                .map(|(&n, &x)| vec![x, n - x])
                .collect();
            info_gain(&parts)
        })
    }
}

/// Sum of absolute confidence differences weighted by the bad
/// sub-population size: `Σ_k |cf_2k − cf_1k| · N_2k` — no expected-ratio
/// correction, so the proportional situation scores high too.
pub struct AbsConfDiffRanker;

impl AttributeRanker for AbsConfDiffRanker {
    fn name(&self) -> &'static str {
        "abs-conf-diff"
    }

    fn rank(
        &self,
        store: &CubeStore,
        spec: &ComparisonSpec,
    ) -> Result<Vec<RankedAttr>, CompareError> {
        rank_by(store, spec, |d1, d2| {
            let mut s = 0.0;
            for k in 0..d1.n_values() {
                let cf1 = if d1.n[k] > 0 {
                    d1.x[k] as f64 / d1.n[k] as f64
                } else {
                    0.0
                };
                let cf2 = if d2.n[k] > 0 {
                    d2.x[k] as f64 / d2.n[k] as f64
                } else {
                    0.0
                };
                s += (cf2 - cf1).abs() * d2.n[k] as f64;
            }
            s
        })
    }
}

/// All rankers, the paper's measure first.
pub fn all_rankers() -> Vec<Box<dyn AttributeRanker>> {
    vec![
        Box::new(OmRanker(CompareConfig::default())),
        Box::new(ChiSquareRanker),
        Box::new(InfoGainRanker),
        Box::new(AbsConfDiffRanker),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_cube::StoreBuildOptions;
    use om_synth::paper_scenario;

    fn setup() -> (CubeStore, ComparisonSpec) {
        let (ds, truth) = paper_scenario(60_000, 11);
        let s = ds.schema();
        let attr = s.attr_index(&truth.compare_attr).unwrap();
        let spec = ComparisonSpec {
            attr,
            value_1: s.attribute(attr).domain().get("ph1").unwrap(),
            value_2: s.attribute(attr).domain().get("ph2").unwrap(),
            class: s.class().domain().get("dropped").unwrap(),
        };
        let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        (store, spec)
    }

    #[test]
    fn all_rankers_produce_full_orderings() {
        let (store, spec) = setup();
        let n_candidates = store.attrs().len() - 1;
        for ranker in all_rankers() {
            let ranking = ranker.rank(&store, &spec).unwrap();
            assert!(
                ranking.len() <= n_candidates,
                "{} returned too many attributes",
                ranker.name()
            );
            assert!(!ranking.is_empty(), "{} returned nothing", ranker.name());
            for w in ranking.windows(2) {
                assert!(
                    w[0].score >= w[1].score,
                    "{} not sorted descending",
                    ranker.name()
                );
            }
        }
    }

    #[test]
    fn om_ranker_puts_planted_cause_first() {
        let (store, spec) = setup();
        let ranking = OmRanker(CompareConfig::default())
            .rank(&store, &spec)
            .unwrap();
        assert_eq!(ranking[0].attr_name, "TimeOfCall", "{ranking:?}");
    }

    #[test]
    fn info_gain_misses_the_context() {
        // InfoGain-within-D2 ranks NetworkLoad (a common cause) at least as
        // high as the comparator would — demonstrating why the measure
        // needs the baseline sub-population. We only assert that the two
        // rankers disagree on something, keeping the strong claim for the
        // statistical recovery experiment.
        let (store, spec) = setup();
        let om = OmRanker(CompareConfig::default())
            .rank(&store, &spec)
            .unwrap();
        let ig = InfoGainRanker.rank(&store, &spec).unwrap();
        let om_names: Vec<_> = om.iter().map(|r| &r.attr_name).collect();
        let ig_names: Vec<_> = ig.iter().map(|r| &r.attr_name).collect();
        assert_ne!(om_names, ig_names, "rankers should disagree somewhere");
    }
}
