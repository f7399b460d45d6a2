//! Trend detection across an attribute's ordered values.
//!
//! "Trends are detectable from the shape in each grid. Strong unit trends
//! are indicated using color arrows: red for decreasing, green for
//! increasing and gray for stable trends" (Section V-B). A trend is a
//! statement about one (attribute, class) pair: how the rule confidence
//! moves as the attribute's values are swept in domain order (meaningful
//! for discretized continuous attributes and other ordered domains).

use om_cube::{CubeStore, CubeView};
use om_fault::{Budget, FaultError};
use om_stats::linear_regression;

/// The qualitative trend of one attribute/class confidence series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trend {
    /// Confidence rises across the value order (green arrow).
    Increasing,
    /// Confidence falls across the value order (red arrow).
    Decreasing,
    /// Confidence is essentially flat (gray arrow).
    Stable,
    /// No clear unit trend.
    None,
}

/// Thresholds for trend classification.
#[derive(Debug, Clone)]
pub struct TrendConfig {
    /// Minimum `r²` of the linear fit for an increasing/decreasing call.
    pub min_r_squared: f64,
    /// A series whose (max − min) is below this fraction of its mean is
    /// called stable.
    pub stable_band: f64,
    /// Minimum populated values needed to call any trend.
    pub min_points: usize,
    /// Instead of the linear-fit `r²` gate, require the nonparametric
    /// Mann–Kendall test to be significant at this level. Robust to
    /// monotone-but-curved series; needs ≥ 5 or so points to fire at all.
    pub mann_kendall_alpha: Option<f64>,
}

impl Default for TrendConfig {
    fn default() -> Self {
        Self {
            min_r_squared: 0.7,
            stable_band: 0.15,
            min_points: 3,
            mann_kendall_alpha: None,
        }
    }
}

/// A detected trend.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendResult {
    /// Schema index of the attribute.
    pub attr: usize,
    pub attr_name: String,
    /// Class id the confidences refer to.
    pub class: u32,
    pub class_label: String,
    pub trend: Trend,
    /// Slope of confidence per value step.
    pub slope: f64,
    /// Fit quality.
    pub r_squared: f64,
}

/// Classify the trend of one confidence series (empty cells are skipped,
/// not treated as zero, so sparsely used values do not fake a trend).
pub fn classify_series(confidences: &[Option<f64>], config: &TrendConfig) -> (Trend, f64, f64) {
    let points: Vec<(f64, f64)> = confidences
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.map(|c| (i as f64, c)))
        .collect();
    if points.len() < config.min_points {
        return (Trend::None, 0.0, 0.0);
    }
    let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
    let fit = linear_regression(&xs, &ys);
    let mean = ys.iter().sum::<f64>() / ys.len() as f64;
    let min = ys.iter().copied().fold(f64::INFINITY, f64::min);
    let max = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);

    if mean == 0.0 || (max - min) < config.stable_band * mean {
        return (Trend::Stable, fit.slope, fit.r_squared());
    }
    let directional = match config.mann_kendall_alpha {
        // Nonparametric gate: monotone tendency significant at alpha.
        Some(alpha) => {
            let mk = om_stats::mann_kendall(&ys);
            mk.p_value < alpha && mk.s != 0
        }
        // Default gate: good linear fit.
        None => fit.r_squared() >= config.min_r_squared,
    };
    if directional {
        if fit.slope > 0.0 {
            return (Trend::Increasing, fit.slope, fit.r_squared());
        }
        if fit.slope < 0.0 {
            return (Trend::Decreasing, fit.slope, fit.r_squared());
        }
    }
    (Trend::None, fit.slope, fit.r_squared())
}

/// Mine trends for every (attribute, class) pair in the store.
pub fn mine_trends(store: &CubeStore, config: &TrendConfig) -> Vec<TrendResult> {
    mine_trends_budgeted(store, config, &Budget::unlimited()).expect("unlimited budget never trips")
}

/// [`mine_trends`] under a cooperative [`Budget`]: the deadline is
/// checked once per attribute.
///
/// # Errors
/// [`FaultError`] when the budget expires or the request is cancelled.
pub fn mine_trends_budgeted(
    store: &CubeStore,
    config: &TrendConfig,
    budget: &Budget,
) -> Result<Vec<TrendResult>, FaultError> {
    budget.check()?;
    let mut out = Vec::new();
    for &attr in store.attrs() {
        budget.check()?;
        let cube = store.one_dim(attr).expect("store attr has a cube");
        let view = CubeView::from_cube(&cube).expect("one-dim cube");
        for class in 0..view.n_classes() as u32 {
            let series: Vec<Option<f64>> = (0..view.n_values() as u32)
                .map(|v| view.confidence(v, class))
                .collect();
            let (trend, slope, r2) = classify_series(&series, config);
            out.push(TrendResult {
                attr,
                attr_name: view.attr_name().to_owned(),
                class,
                class_label: view.class_labels()[class as usize].clone(),
                trend,
                slope,
                r_squared: r2,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TrendConfig {
        TrendConfig::default()
    }

    #[test]
    fn increasing_series() {
        let series: Vec<Option<f64>> =
            vec![Some(0.01), Some(0.03), Some(0.05), Some(0.07), Some(0.09)];
        let (t, slope, r2) = classify_series(&series, &cfg());
        assert_eq!(t, Trend::Increasing);
        assert!(slope > 0.0);
        assert!(r2 > 0.99);
    }

    #[test]
    fn decreasing_series() {
        let series: Vec<Option<f64>> = vec![Some(0.9), Some(0.7), Some(0.5), Some(0.3)];
        let (t, ..) = classify_series(&series, &cfg());
        assert_eq!(t, Trend::Decreasing);
    }

    #[test]
    fn stable_series() {
        let series: Vec<Option<f64>> = vec![Some(0.50), Some(0.51), Some(0.495), Some(0.505)];
        let (t, ..) = classify_series(&series, &cfg());
        assert_eq!(t, Trend::Stable);
    }

    #[test]
    fn noisy_series_is_none() {
        let series: Vec<Option<f64>> = vec![Some(0.1), Some(0.9), Some(0.2), Some(0.8), Some(0.15)];
        let (t, ..) = classify_series(&series, &cfg());
        assert_eq!(t, Trend::None);
    }

    #[test]
    fn too_few_points_is_none() {
        let series: Vec<Option<f64>> = vec![Some(0.1), Some(0.9)];
        assert_eq!(classify_series(&series, &cfg()).0, Trend::None);
        let sparse: Vec<Option<f64>> = vec![Some(0.1), None, None, Some(0.9)];
        assert_eq!(classify_series(&sparse, &cfg()).0, Trend::None);
    }

    #[test]
    fn empty_cells_skipped_not_zeroed() {
        // With Nones treated as 0 this would read as noisy; skipping them
        // reveals the clean increase.
        let series: Vec<Option<f64>> = vec![Some(0.1), None, Some(0.3), None, Some(0.5), Some(0.7)];
        let (t, ..) = classify_series(&series, &cfg());
        assert_eq!(t, Trend::Increasing);
    }

    #[test]
    fn all_zero_series_is_stable() {
        let series: Vec<Option<f64>> = vec![Some(0.0); 5];
        assert_eq!(classify_series(&series, &cfg()).0, Trend::Stable);
    }

    #[test]
    fn mine_trends_over_store() {
        use om_data::{Cell, DatasetBuilder};
        // Attribute with a clean increasing drop-rate across 5 bins.
        let mut b = DatasetBuilder::new().categorical("Bin").class("C");
        for (i, bin) in ["b0", "b1", "b2", "b3", "b4"].iter().enumerate() {
            let drops = (i + 1) * 10;
            for _ in 0..drops {
                b.push_row(&[Cell::Str(bin), Cell::Str("drop")]).unwrap();
            }
            for _ in 0..(100 - drops) {
                b.push_row(&[Cell::Str(bin), Cell::Str("ok")]).unwrap();
            }
        }
        let ds = b.finish().unwrap();
        let store = om_cube::CubeStore::build(&ds, &om_cube::StoreBuildOptions::default()).unwrap();
        let trends = mine_trends(&store, &cfg());
        assert_eq!(trends.len(), 2, "one result per (attr, class)");
        let drop_trend = trends.iter().find(|t| t.class_label == "drop").unwrap();
        assert_eq!(drop_trend.trend, Trend::Increasing);
        let ok_trend = trends.iter().find(|t| t.class_label == "ok").unwrap();
        assert_eq!(ok_trend.trend, Trend::Decreasing);
    }
}

#[cfg(test)]
mod mann_kendall_tests {
    use super::*;

    #[test]
    fn mk_gate_catches_monotone_but_curved_series() {
        // Exponential-ish: poor linear r², clearly monotone.
        let series: Vec<Option<f64>> = (0..10)
            .map(|i| Some(0.01 * (i as f64 / 1.5).exp()))
            .collect();
        let linear = TrendConfig {
            min_r_squared: 0.97,
            ..TrendConfig::default()
        };
        let (t_linear, ..) = classify_series(&series, &linear);
        let mk = TrendConfig {
            min_r_squared: 0.97,
            mann_kendall_alpha: Some(0.01),
            ..TrendConfig::default()
        };
        let (t_mk, ..) = classify_series(&series, &mk);
        assert_eq!(t_mk, Trend::Increasing);
        // The strict linear gate misses it — exactly the case MK fixes.
        assert_eq!(t_linear, Trend::None);
    }

    #[test]
    fn mk_gate_rejects_noise() {
        let series: Vec<Option<f64>> = vec![
            Some(0.3),
            Some(0.9),
            Some(0.1),
            Some(0.8),
            Some(0.2),
            Some(0.7),
        ];
        let mk = TrendConfig {
            mann_kendall_alpha: Some(0.01),
            ..TrendConfig::default()
        };
        assert_eq!(classify_series(&series, &mk).0, Trend::None);
    }
}
