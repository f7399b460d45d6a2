//! The detailed visualization mode (Fig. 6): one attribute's exact
//! numbers.
//!
//! "It reveals the following detailed pieces of knowledge: 1. The exact
//! drop rates of individual phones. 2. The exact counts and percentages
//! (which are not shown in the overall visualization)" (Section V-B).

use std::fmt::Write as _;

use om_cube::CubeView;

use crate::bars::hbar;
use crate::color::ColorMode;

/// Options for the detailed view.
#[derive(Debug, Clone)]
pub struct DetailedOptions {
    pub color: ColorMode,
    /// Width of each confidence bar, in cells.
    pub bar_width: usize,
    /// Scale bars to the per-class maximum instead of 100%.
    pub scale_to_max: bool,
}

impl Default for DetailedOptions {
    fn default() -> Self {
        Self {
            color: ColorMode::Plain,
            bar_width: 16,
            scale_to_max: true,
        }
    }
}

/// Render one attribute's detailed view.
pub fn render_detailed(view: &CubeView, options: &DetailedOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Detailed view: {} ({} values, {} records)",
        view.attr_name(),
        view.n_values(),
        view.total()
    );
    let value_w = view
        .value_labels()
        .iter()
        .map(String::len)
        .max()
        .unwrap_or(5)
        .max(5);

    for (c, class_label) in view.class_labels().iter().enumerate() {
        let confs = view.class_confidences(c as u32);
        let max = if options.scale_to_max {
            confs.iter().copied().fold(0.0, f64::max).max(1e-12)
        } else {
            1.0
        };
        let _ = writeln!(out, "  class {class_label}:");
        for (v, label) in view.value_labels().iter().enumerate() {
            let n = view.value_total(v as u32);
            let count = view.count(v as u32, c as u32);
            match view.confidence(v as u32, c as u32) {
                Some(cf) => {
                    let _ = writeln!(
                        out,
                        "    {label:<value_w$}  n={n:<8} count={count:<8} conf={:>7.3}%  |{}|",
                        cf * 100.0,
                        hbar(cf / max, options.bar_width)
                    );
                }
                None => {
                    let _ = writeln!(out, "    {label:<value_w$}  n={n:<8} (no data)",);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_cube::{build_cube, CubeView};
    use om_data::{Cell, DatasetBuilder};

    fn view() -> CubeView {
        let mut b = DatasetBuilder::new().categorical("Phone").class("Out");
        for (p, drops, total) in [("ph1", 2, 100), ("ph2", 8, 200)] {
            for i in 0..total {
                b.push_row(&[
                    Cell::Str(p),
                    Cell::Str(if i < drops { "drop" } else { "ok" }),
                ])
                .unwrap();
            }
        }
        let ds = b.finish().unwrap();
        CubeView::from_cube(&build_cube(&ds, &[0]).unwrap()).unwrap()
    }

    #[test]
    fn shows_exact_counts_and_rates() {
        let text = render_detailed(&view(), &DetailedOptions::default());
        assert!(text.contains("Detailed view: Phone"), "{text}");
        assert!(text.contains("n=100"), "{text}");
        assert!(text.contains("n=200"), "{text}");
        assert!(text.contains("conf=  2.000%"), "{text}");
        assert!(text.contains("conf=  4.000%"), "{text}");
        assert!(text.contains("class drop"), "{text}");
    }

    #[test]
    fn empty_value_marked_no_data() {
        let mut b = DatasetBuilder::new().categorical("A").class("C");
        b.push_row(&[Cell::Str("used"), Cell::Str("y")]).unwrap();
        let mut ds = b.finish().unwrap();
        // Intern an extra never-used label by rebuilding with both labels.
        drop(ds);
        let mut b = DatasetBuilder::new().categorical("A").class("C");
        b.push_row(&[Cell::Str("used"), Cell::Str("y")]).unwrap();
        b.push_row(&[Cell::Str("unused"), Cell::Str("y")]).unwrap();
        ds = b.finish().unwrap();
        let filtered = ds.take_rows(&[0]).unwrap();
        let view = CubeView::from_cube(&build_cube(&filtered, &[0]).unwrap()).unwrap();
        let text = render_detailed(&view, &DetailedOptions::default());
        assert!(text.contains("(no data)"), "{text}");
    }

    #[test]
    fn deterministic() {
        let v = view();
        let o = DetailedOptions::default();
        assert_eq!(render_detailed(&v, &o), render_detailed(&v, &o));
    }
}
