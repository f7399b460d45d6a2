//! The overall visualization mode (Fig. 5): every 2-D rule cube at once.
//!
//! "The X axis is associated with all attributes in the data. The Y axis
//! is associated with all the classes. For each attribute (a column), each
//! grid shows all one-conditional rules of the corresponding class value
//! … this screen simply shows all the 2-dimensional rule cubes"
//! (Section V-B). Each grid is rendered as a sparkline; the data
//! distribution of each attribute tops its column; trend arrows annotate
//! strong unit trends; automatic class scaling keeps minority classes
//! visible.

use std::fmt::Write as _;

use om_cube::scaling::ClassScaling;
use om_cube::{CubeStore, CubeView};
use om_gi::{mine_trends, Trend, TrendConfig, TrendResult};

use crate::bars::sparkline;
use crate::color::{paint, Color, ColorMode};

/// Options for the overall view.
#[derive(Debug, Clone)]
pub struct OverallOptions {
    pub color: ColorMode,
    /// Apply automatic class scaling (Fig. 5 has it on; "Otherwise, we
    /// will not see anything for the minority classes").
    pub class_scaling: bool,
    /// Maximum sparkline width per grid; attributes with more values are
    /// marked with `+` (the GUI uses light blue for this).
    pub max_grid_width: usize,
    pub trend_config: TrendConfig,
}

impl Default for OverallOptions {
    fn default() -> Self {
        Self {
            color: ColorMode::Plain,
            class_scaling: true,
            max_grid_width: 8,
            trend_config: TrendConfig::default(),
        }
    }
}

fn trend_arrow(trend: Trend, color: ColorMode) -> String {
    match trend {
        Trend::Increasing => paint(color, Color::Green, "↑"),
        Trend::Decreasing => paint(color, Color::Red, "↓"),
        Trend::Stable => paint(color, Color::Gray, "→"),
        Trend::None => " ".to_owned(),
    }
}

/// Render the overall visualization of the whole store.
pub fn render_overall(store: &CubeStore, options: &OverallOptions) -> String {
    let views: Vec<CubeView> = store
        .attrs()
        .iter()
        .map(|&a| {
            CubeView::from_cube(&store.one_dim(a).expect("attr in store")).expect("one-dim cube")
        })
        .collect();
    let trends: Vec<TrendResult> = mine_trends(store, &options.trend_config);
    let class_labels = store.class_labels();

    // Global per-class maxima drive the scaling, as the GUI scales the
    // whole screen consistently.
    let scaling = if options.class_scaling {
        let mut maxima = vec![0.0f64; class_labels.len()];
        for v in views.iter() {
            for (m, vm) in maxima.iter_mut().zip(v.max_confidences()) {
                *m = m.max(vm);
            }
        }
        ClassScaling::from_max_confidences(&maxima)
    } else {
        ClassScaling::identity(class_labels.len())
    };

    let grid_w = options.max_grid_width;
    let name_w = 14usize;
    let mut out = String::new();

    // Header: attribute names (truncated) and data distributions.
    let _ = write!(out, "{:<name_w$} ", "");
    for v in &views {
        let mut name = v.attr_name().to_owned();
        if name.len() > grid_w {
            name.truncate(grid_w);
        }
        let _ = write!(out, "{name:<w$}  ", w = grid_w + 1);
    }
    out.push('\n');
    let _ = write!(out, "{:<name_w$} ", "data dist.");
    for v in &views {
        let mut dist = v.value_distribution();
        let overflow = dist.len() > grid_w;
        dist.truncate(grid_w);
        let max = dist.iter().copied().fold(0.0, f64::max);
        let heights: Vec<f64> = dist
            .iter()
            .map(|&d| if max > 0.0 { d / max } else { 0.0 })
            .collect();
        let spark = sparkline(&heights);
        let marker = if overflow {
            paint(options.color, Color::LightBlue, "+")
        } else {
            " ".to_owned()
        };
        let pad = grid_w.saturating_sub(heights.len());
        let _ = write!(out, "{spark}{}{marker} ", " ".repeat(pad));
    }
    out.push('\n');

    // One row per class.
    let class_counts = store.class_counts();
    let total: u64 = class_counts.iter().sum();
    for (c, label) in class_labels.iter().enumerate() {
        let share = if total > 0 {
            class_counts[c] as f64 / total as f64 * 100.0
        } else {
            0.0
        };
        let mut row_label = format!("{label} ({share:.1}%)");
        if row_label.len() > name_w {
            row_label.truncate(name_w);
        }
        let _ = write!(out, "{row_label:<name_w$} ");
        for v in &views {
            let mut confs = v.class_confidences(c as u32);
            let overflow = confs.len() > grid_w;
            confs.truncate(grid_w);
            let heights: Vec<f64> = confs
                .iter()
                .map(|&cf| scaling.display_height(c, cf))
                .collect();
            let spark = sparkline(&heights);
            let trend = trends
                .iter()
                .find(|t| t.attr_name == v.attr_name() && t.class == c as u32)
                .map(|t| t.trend)
                .unwrap_or(Trend::None);
            let arrow = trend_arrow(trend, options.color);
            let marker = if overflow {
                paint(options.color, Color::LightBlue, "+")
            } else {
                " ".to_owned()
            };
            let pad = grid_w.saturating_sub(heights.len());
            let _ = write!(out, "{spark}{}{arrow}{marker}", " ".repeat(pad));
        }
        out.push('\n');
    }
    if options.class_scaling {
        let _ = writeln!(
            out,
            "(class scaling on: each class row is stretched to its own maximum)"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_cube::StoreBuildOptions;
    use om_synth::{generate_call_log, CallLogConfig};

    fn store() -> CubeStore {
        let ds = generate_call_log(&CallLogConfig {
            n_records: 10_000,
            n_extra_attrs: 2,
            ..CallLogConfig::default()
        });
        CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap()
    }

    #[test]
    fn renders_all_attributes_and_classes() {
        let store = store();
        let text = render_overall(&store, &OverallOptions::default());
        // Attribute names are truncated to the grid width (8 by default).
        assert!(text.contains("PhoneMod"), "{text}");
        assert!(text.contains("TimeOfCa"), "{text}");
        assert!(text.contains("ended-ok"), "{text}");
        assert!(text.contains("dropped"), "{text}");
        assert!(text.contains("data dist."), "{text}");
        assert!(text.contains("class scaling on"));
    }

    #[test]
    fn scaling_note_absent_when_disabled() {
        let store = store();
        let text = render_overall(
            &store,
            &OverallOptions {
                class_scaling: false,
                ..Default::default()
            },
        );
        assert!(!text.contains("class scaling on"));
    }

    #[test]
    fn minority_class_visible_only_with_scaling() {
        let store = store();
        let scaled = render_overall(&store, &OverallOptions::default());
        let unscaled = render_overall(
            &store,
            &OverallOptions {
                class_scaling: false,
                ..Default::default()
            },
        );
        // The dropped row should carry taller bars when scaled: sum the
        // block levels (▁ = 1 … █ = 8) rather than counting glyphs.
        let row_ink = |text: &str| {
            const BLOCKS: &str = "▁▂▃▄▅▆▇█";
            text.lines()
                .find(|l| l.starts_with("dropped"))
                .map(|l| {
                    l.chars()
                        .filter_map(|c| BLOCKS.chars().position(|b| b == c))
                        .map(|i| i + 1)
                        .sum::<usize>()
                })
                .unwrap_or(0)
        };
        assert!(
            row_ink(&scaled) > row_ink(&unscaled),
            "scaled {} vs unscaled {}",
            row_ink(&scaled),
            row_ink(&unscaled)
        );
    }

    #[test]
    fn ansi_mode_emits_escapes() {
        let store = store();
        let text = render_overall(
            &store,
            &OverallOptions {
                color: ColorMode::Ansi,
                ..Default::default()
            },
        );
        assert!(text.contains("\x1b["));
    }

    #[test]
    fn deterministic_output() {
        let store = store();
        let opts = OverallOptions::default();
        assert_eq!(render_overall(&store, &opts), render_overall(&store, &opts));
    }
}
