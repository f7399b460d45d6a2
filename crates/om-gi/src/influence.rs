//! Influential-attribute ranking: which attributes are most associated
//! with the class overall.
//!
//! This is the GI miner's third output and also serves as a baseline the
//! comparator is evaluated against (the paper argues plain attribute/class
//! association is *not* the same as distinguishing two sub-populations —
//! the recovery experiment makes that concrete).

use om_cube::{CubeStore, CubeView};
use om_fault::{Budget, FaultError};
use om_stats::{chi2_independence, info_gain};

/// Association strength of one attribute with the class.
#[derive(Debug, Clone, PartialEq)]
pub struct InfluenceResult {
    pub attr: usize,
    pub attr_name: String,
    /// Pearson chi-square statistic of the value × class table.
    pub chi2: f64,
    /// Upper-tail p-value of the statistic.
    pub p_value: f64,
    /// Information gain of splitting the class by this attribute.
    pub info_gain: f64,
}

/// Rank all attributes by chi-square statistic, descending.
pub fn mine_influence(store: &CubeStore) -> Vec<InfluenceResult> {
    mine_influence_budgeted(store, &Budget::unlimited()).expect("unlimited budget never trips")
}

/// [`mine_influence`] under a cooperative [`Budget`]: the deadline is
/// checked once per attribute.
///
/// # Errors
/// [`FaultError`] when the budget expires or the request is cancelled.
pub fn mine_influence_budgeted(
    store: &CubeStore,
    budget: &Budget,
) -> Result<Vec<InfluenceResult>, FaultError> {
    budget.check()?;
    let mut out = Vec::with_capacity(store.attrs().len());
    for &attr in store.attrs() {
        budget.check()?;
        let cube = store.one_dim(attr).expect("store attr has a cube");
        let view = CubeView::from_cube(&cube).expect("one-dim cube");
        let table: Vec<Vec<u64>> = (0..view.n_values() as u32)
            .map(|v| {
                (0..view.n_classes() as u32)
                    .map(|c| view.count(v, c))
                    .collect()
            })
            .collect();
        let chi = chi2_independence(&table);
        out.push(InfluenceResult {
            attr,
            attr_name: view.attr_name().to_owned(),
            chi2: chi.statistic,
            p_value: chi.p_value,
            info_gain: info_gain(&table),
        });
    }
    out.sort_by(|a, b| {
        b.chi2
            .partial_cmp(&a.chi2)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_cube::{CubeStore, StoreBuildOptions};
    use om_data::{Cell, DatasetBuilder};

    /// `Strong` fully determines the class; `Weak` is independent noise.
    fn ds() -> om_data::Dataset {
        let mut b = DatasetBuilder::new()
            .categorical("Strong")
            .categorical("Weak")
            .class("C");
        for i in 0..400u32 {
            let strong = if i % 2 == 0 { "s0" } else { "s1" };
            let weak = match i % 3 {
                0 => "w0",
                1 => "w1",
                _ => "w2",
            };
            let class = if i % 2 == 0 { "y" } else { "n" };
            b.push_row(&[Cell::Str(strong), Cell::Str(weak), Cell::Str(class)])
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn strong_attribute_ranks_first() {
        let store = CubeStore::build(&ds(), &StoreBuildOptions::default()).unwrap();
        let ranking = mine_influence(&store);
        assert_eq!(ranking.len(), 2);
        assert_eq!(ranking[0].attr_name, "Strong");
        assert!(ranking[0].chi2 > ranking[1].chi2 * 10.0);
        assert!(ranking[0].p_value < 1e-10);
        assert!(
            ranking[0].info_gain > 0.99,
            "perfect predictor gains ~1 bit"
        );
        assert!(ranking[1].info_gain < 0.05);
    }

    #[test]
    fn expired_budget_aborts_all_miners() {
        use crate::{
            mine_exceptions_budgeted, mine_pair_exceptions_budgeted, mine_trends_budgeted,
        };
        use std::time::Duration;
        let store = CubeStore::build(&ds(), &StoreBuildOptions::default()).unwrap();
        let spent = Budget::with_timeout(Duration::ZERO);
        assert!(mine_influence_budgeted(&store, &spent).is_err());
        assert!(mine_trends_budgeted(&store, &Default::default(), &spent).is_err());
        assert!(mine_exceptions_budgeted(&store, &Default::default(), &spent).is_err());
        assert!(mine_pair_exceptions_budgeted(&store, &Default::default(), &spent).is_err());
        // Unlimited budgets reproduce the plain results.
        let plain = mine_influence(&store);
        let budgeted = mine_influence_budgeted(&store, &Budget::unlimited()).unwrap();
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn independent_attribute_not_significant() {
        let store = CubeStore::build(&ds(), &StoreBuildOptions::default()).unwrap();
        let ranking = mine_influence(&store);
        let weak = ranking.iter().find(|r| r.attr_name == "Weak").unwrap();
        assert!(weak.p_value > 0.01, "weak p={}", weak.p_value);
    }
}
