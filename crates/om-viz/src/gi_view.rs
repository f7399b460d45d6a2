//! Rendering of general-impressions results: trend, exception and
//! influence tables, plus the interaction exceptions of
//! `om_gi::pair_exception`.

use std::fmt::Write as _;

use om_gi::{Exception, InfluenceResult, PairException, Trend, TrendResult};

use crate::color::{paint, Color, ColorMode};

/// Render the trends table; only strong (increasing/decreasing) trends
/// unless `include_stable`.
pub fn render_trends(trends: &[TrendResult], include_stable: bool, color: ColorMode) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Trends (per attribute x class):");
    let mut any = false;
    for t in trends {
        let arrow = match t.trend {
            Trend::Increasing => paint(color, Color::Green, "↑ increasing"),
            Trend::Decreasing => paint(color, Color::Red, "↓ decreasing"),
            Trend::Stable if include_stable => paint(color, Color::Gray, "→ stable"),
            _ => continue,
        };
        any = true;
        let _ = writeln!(
            out,
            "  {:<24} {:<16} {arrow}  (slope {:+.5}, r2 {:.2})",
            t.attr_name, t.class_label, t.slope, t.r_squared
        );
    }
    if !any {
        let _ = writeln!(out, "  (no strong unit trends)");
    }
    out
}

/// Render the exceptions table (top `n`).
pub fn render_exceptions(exceptions: &[Exception], n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Exceptions (value vs rest of its attribute):");
    if exceptions.is_empty() {
        let _ = writeln!(out, "  (none)");
        return out;
    }
    for e in exceptions.iter().take(n) {
        let _ = writeln!(
            out,
            "  {}={} on {}: {:.3}% vs rest {:.3}% (z {:+.1}, {:?})",
            e.attr_name,
            e.value_label,
            e.class_label,
            e.confidence * 100.0,
            e.rest_confidence * 100.0,
            e.z,
            e.kind
        );
    }
    if exceptions.len() > n {
        let _ = writeln!(out, "  ... {} more", exceptions.len() - n);
    }
    out
}

/// Render the influence ranking (top `n`).
pub fn render_influence(influence: &[InfluenceResult], n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Influential attributes (chi-square with the class):");
    for i in influence.iter().take(n) {
        let _ = writeln!(
            out,
            "  {:<24} chi2 {:>12.1}  p {:.2e}  info-gain {:.4}",
            i.attr_name, i.chi2, i.p_value, i.info_gain
        );
    }
    out
}

/// Render interaction exceptions from the pair cubes (top `n`).
pub fn render_pair_exceptions(exceptions: &[PairException], n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Interaction exceptions (pair-cube cells beyond independence):"
    );
    if exceptions.is_empty() {
        let _ = writeln!(out, "  (none)");
        return out;
    }
    for e in exceptions.iter().take(n) {
        let _ = writeln!(
            out,
            "  {}={} × {}={} on {}: {:.2}% observed vs {:.2}% expected (lift {:.1}, n={})",
            e.attr_a_name,
            e.value_a_label,
            e.attr_b_name,
            e.value_b_label,
            e.class_label,
            e.observed * 100.0,
            e.expected * 100.0,
            e.lift,
            e.n
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_cube::{CubeStore, StoreBuildOptions};
    use om_gi::{
        mine_exceptions, mine_influence, mine_pair_exceptions, mine_trends, ExceptionConfig,
        PairExceptionConfig, TrendConfig,
    };
    use om_synth::paper_scenario;

    fn store() -> CubeStore {
        let (ds, _) = paper_scenario(40_000, 66);
        CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap()
    }

    #[test]
    fn trends_render() {
        let store = store();
        let trends = mine_trends(&store, &TrendConfig::default());
        let text = render_trends(&trends, false, ColorMode::Plain);
        assert!(text.contains("Trends"));
        let with_stable = render_trends(&trends, true, ColorMode::Plain);
        assert!(with_stable.len() >= text.len());
    }

    #[test]
    fn exceptions_render_and_truncate() {
        let store = store();
        let exceptions = mine_exceptions(&store, &ExceptionConfig::default());
        let text = render_exceptions(&exceptions, 2);
        assert!(text.contains("Exceptions"));
        if exceptions.len() > 2 {
            assert!(text.contains("more"));
        }
        let empty = render_exceptions(&[], 5);
        assert!(empty.contains("(none)"));
    }

    #[test]
    fn influence_renders() {
        let store = store();
        let influence = mine_influence(&store);
        let text = render_influence(&influence, 3);
        assert!(text.contains("chi2"));
    }

    #[test]
    fn pair_exceptions_render() {
        let store = store();
        let pe = mine_pair_exceptions(&store, &PairExceptionConfig::default());
        let text = render_pair_exceptions(&pe, 5);
        assert!(text.contains("Interaction exceptions"));
        // The planted ph2 × morning interaction shows up in the rendering.
        assert!(text.contains("morning") || pe.is_empty(), "{text}");
    }
}
