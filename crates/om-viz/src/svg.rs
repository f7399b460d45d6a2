//! A minimal self-contained SVG backend for the same charts the text
//! views render: grouped bars with optional confidence-interval whiskers.
//!
//! No external crates; the output is deterministic and viewable in any
//! browser. Used by the examples to save Fig. 7-style charts to disk.

use std::fmt::Write as _;

/// One bar series (e.g. one phone model) across all attribute values.
#[derive(Debug, Clone)]
pub struct Series {
    pub name: String,
    /// Bar heights (rates in `[0, 1]` typically).
    pub values: Vec<f64>,
    /// Optional symmetric whisker half-heights, aligned with `values`.
    pub margins: Option<Vec<f64>>,
    /// Fill color (SVG color string).
    pub color: String,
}

/// Chart-level options.
#[derive(Debug, Clone)]
pub struct ChartOptions {
    pub width: u32,
    pub height: u32,
    pub title: String,
}

impl Default for ChartOptions {
    fn default() -> Self {
        Self {
            width: 720,
            height: 360,
            title: String::new(),
        }
    }
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Render a grouped bar chart.
///
/// # Panics
/// Panics if series lengths disagree with `labels` or margins misalign.
pub fn grouped_bar_chart(labels: &[String], series: &[Series], options: &ChartOptions) -> String {
    for s in series {
        assert_eq!(
            s.values.len(),
            labels.len(),
            "series {:?} length mismatch",
            s.name
        );
        if let Some(m) = &s.margins {
            assert_eq!(m.len(), labels.len(), "margins misaligned for {:?}", s.name);
        }
    }
    let w = options.width as f64;
    let h = options.height as f64;
    let margin_left = 50.0;
    let margin_bottom = 50.0;
    let margin_top = 34.0;
    let plot_w = w - margin_left - 16.0;
    let plot_h = h - margin_top - margin_bottom;

    let max_val = series
        .iter()
        .flat_map(|s| {
            s.values
                .iter()
                .enumerate()
                .map(|(i, &v)| v + s.margins.as_ref().map_or(0.0, |m| m[i]))
        })
        .fold(0.0f64, f64::max)
        .max(1e-9);

    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{}" height="{}" viewBox="0 0 {} {}">"#,
        options.width, options.height, options.width, options.height
    );
    let _ = writeln!(out, r#"<rect width="100%" height="100%" fill="white"/>"#);
    if !options.title.is_empty() {
        let _ = writeln!(
            out,
            r#"<text x="{}" y="20" font-family="sans-serif" font-size="14" text-anchor="middle">{}</text>"#,
            w / 2.0,
            esc(&options.title)
        );
    }

    // Y axis with 4 gridlines.
    for i in 0..=4 {
        let frac = i as f64 / 4.0;
        let y = margin_top + plot_h * (1.0 - frac);
        let _ = writeln!(
            out,
            r##"<line x1="{margin_left}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#ddd"/>"##,
            margin_left + plot_w
        );
        let _ = writeln!(
            out,
            r#"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="10" text-anchor="end">{:.2}%</text>"#,
            margin_left - 4.0,
            y + 3.0,
            max_val * frac * 100.0
        );
    }

    let n_groups = labels.len().max(1);
    let group_w = plot_w / n_groups as f64;
    let bar_w = (group_w * 0.8) / series.len().max(1) as f64;

    for (g, label) in labels.iter().enumerate() {
        let gx = margin_left + group_w * g as f64 + group_w * 0.1;
        for (si, s) in series.iter().enumerate() {
            let v = s.values[g];
            let bh = (v / max_val) * plot_h;
            let x = gx + bar_w * si as f64;
            let y = margin_top + plot_h - bh;
            let _ = writeln!(
                out,
                r#"<rect x="{x:.1}" y="{y:.1}" width="{:.1}" height="{bh:.1}" fill="{}"/>"#,
                bar_w * 0.92,
                esc(&s.color)
            );
            if let Some(m) = &s.margins {
                // Grey CI region at the top of the bar (per Fig. 7).
                let mh = (m[g] / max_val) * plot_h;
                if mh > 0.0 {
                    let cy = (y - mh).max(margin_top);
                    let _ = writeln!(
                        out,
                        r##"<rect x="{x:.1}" y="{cy:.1}" width="{:.1}" height="{:.1}" fill="#bbb" opacity="0.7"/>"##,
                        bar_w * 0.92,
                        (y + mh).min(margin_top + plot_h) - cy
                    );
                }
                // Red line at the measured rate.
                let _ = writeln!(
                    out,
                    r#"<line x1="{x:.1}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="red" stroke-width="1.5"/>"#,
                    x + bar_w * 0.92
                );
            }
        }
        let _ = writeln!(
            out,
            r#"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="10" text-anchor="middle">{}</text>"#,
            gx + (bar_w * series.len() as f64) / 2.0,
            margin_top + plot_h + 14.0,
            esc(label)
        );
    }

    // Legend.
    let mut lx = margin_left;
    let ly = h - 16.0;
    for s in series {
        let _ = writeln!(
            out,
            r#"<rect x="{lx:.1}" y="{:.1}" width="10" height="10" fill="{}"/>"#,
            ly - 9.0,
            esc(&s.color)
        );
        let _ = writeln!(
            out,
            r#"<text x="{:.1}" y="{ly:.1}" font-family="sans-serif" font-size="11">{}</text>"#,
            lx + 14.0,
            esc(&s.name)
        );
        lx += 20.0 + 7.0 * s.name.len() as f64;
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<String>, Vec<Series>) {
        let labels = vec!["morning".into(), "afternoon".into(), "evening".into()];
        let series = vec![
            Series {
                name: "ph1".into(),
                values: vec![0.02, 0.02, 0.02],
                margins: Some(vec![0.004, 0.004, 0.004]),
                color: "#4472c4".into(),
            },
            Series {
                name: "ph2".into(),
                values: vec![0.10, 0.021, 0.02],
                margins: Some(vec![0.006, 0.004, 0.004]),
                color: "#ed7d31".into(),
            },
        ];
        (labels, series)
    }

    #[test]
    fn emits_valid_svg_skeleton() {
        let (labels, series) = sample();
        let svg = grouped_bar_chart(&labels, &series, &ChartOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("morning"));
        assert!(svg.contains("ph2"));
        // 3 groups × 2 series bars + CI rects exist.
        assert!(svg.matches("<rect").count() >= 7);
        // Red measured-rate lines present.
        assert!(svg.contains("stroke=\"red\""));
    }

    #[test]
    fn escapes_markup_in_labels() {
        let labels = vec!["<b>&x\"".to_string()];
        let series = vec![Series {
            name: "a<b".into(),
            values: vec![0.5],
            margins: None,
            color: "#000".into(),
        }];
        let svg = grouped_bar_chart(&labels, &series, &ChartOptions::default());
        assert!(!svg.contains("<b>"));
        assert!(svg.contains("&lt;b&gt;"));
    }

    #[test]
    fn deterministic() {
        let (labels, series) = sample();
        let o = ChartOptions::default();
        assert_eq!(
            grouped_bar_chart(&labels, &series, &o),
            grouped_bar_chart(&labels, &series, &o)
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn misaligned_series_panics() {
        let labels = vec!["a".to_string()];
        let series = vec![Series {
            name: "s".into(),
            values: vec![0.1, 0.2],
            margins: None,
            color: "#000".into(),
        }];
        grouped_bar_chart(&labels, &series, &ChartOptions::default());
    }
}
