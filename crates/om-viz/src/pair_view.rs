//! Heatmap view of a 3-D rule cube: one attribute on each axis, cell
//! shade = confidence of the chosen class.
//!
//! This is the "detailed visualization \[of\] a 3-dimensional rule cube"
//! the paper mentions alongside Fig. 6 — the screen an analyst studies
//! before invoking the comparator, and where interaction exceptions
//! (`om_gi::pair_exception`) become visible as hot cells.

use std::fmt::Write as _;

use om_cube::{CubeError, RuleCube};
use om_data::ValueId;

/// Options for the pair heatmap.
#[derive(Debug, Clone)]
pub struct PairViewOptions {
    /// Shade cells relative to the maximum confidence in view (true) or
    /// to 100% (false).
    pub scale_to_max: bool,
    /// Mark cells with fewer records than this as unreliable (`·`).
    pub min_cell_count: u64,
}

impl Default for PairViewOptions {
    fn default() -> Self {
        Self {
            scale_to_max: true,
            min_cell_count: 10,
        }
    }
}

const SHADES: [char; 5] = ['░', '▒', '▓', '█', '█'];

/// Render the heatmap of `class` over a 2-attribute cube.
///
/// # Errors
/// Fails if the cube is not 2-attribute or the class id is out of range.
pub fn render_pair_heatmap(
    cube: &RuleCube,
    class: ValueId,
    options: &PairViewOptions,
) -> Result<String, CubeError> {
    if cube.n_attr_dims() != 2 {
        return Err(CubeError::Invalid(format!(
            "pair heatmap requires a 2-attribute cube, got {} dims",
            cube.n_attr_dims()
        )));
    }
    if class as usize >= cube.n_classes() {
        return Err(CubeError::OutOfRange {
            dim: "class".into(),
            value: class,
            card: cube.n_classes(),
        });
    }
    let [dim_a, dim_b] = [&cube.dims()[0], &cube.dims()[1]];
    let card_a = dim_a.cardinality();
    let card_b = dim_b.cardinality();

    // Gather confidences.
    let mut confs = vec![vec![None::<f64>; card_b]; card_a];
    let mut counts = vec![vec![0u64; card_b]; card_a];
    let mut max_conf = 0.0f64;
    for a in 0..card_a as ValueId {
        for b in 0..card_b as ValueId {
            let n = cube.cell_total(&[a, b])?;
            counts[a as usize][b as usize] = n;
            if let Some(cf) = cube.confidence(&[a, b], class)? {
                confs[a as usize][b as usize] = Some(cf);
                max_conf = max_conf.max(cf);
            }
        }
    }
    let denom = if options.scale_to_max {
        max_conf.max(1e-12)
    } else {
        1.0
    };

    let row_w = dim_a
        .labels
        .iter()
        .map(String::len)
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} × {} — confidence of class {:?} (max in view: {:.3}%)",
        dim_a.name,
        dim_b.name,
        cube.class_labels()[class as usize],
        max_conf * 100.0
    );
    // Column header: first letters, plus an index legend below.
    let _ = write!(out, "  {:<row_w$} ", "");
    for b in 0..card_b {
        let _ = write!(out, "{:>3}", format!("c{b}"));
    }
    out.push('\n');
    for a in 0..card_a {
        let _ = write!(out, "  {:<row_w$} ", dim_a.labels[a]);
        for b in 0..card_b {
            let glyph = match confs[a][b] {
                None => "  —".to_owned(),
                Some(_) if counts[a][b] < options.min_cell_count => "  ·".to_owned(),
                Some(cf) => {
                    let level = ((cf / denom) * 4.0).round() as usize;
                    format!("  {}", SHADES[level.min(4)])
                }
            };
            out.push_str(&glyph);
        }
        out.push('\n');
    }
    let _ = writeln!(out, "  columns:");
    for (b, label) in dim_b.labels.iter().enumerate() {
        let _ = writeln!(out, "    c{b} = {label}");
    }
    let _ = writeln!(
        out,
        "  shading: ░ low → █ high; · = fewer than {} records; — = empty cell",
        options.min_cell_count
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_cube::{build_cube, CubeStore, StoreBuildOptions};
    use om_synth::paper_scenario;

    fn pair() -> om_cube::RuleCube {
        let (ds, _) = paper_scenario(40_000, 88);
        let s = ds.schema();
        let phone = s.attr_index("PhoneModel").unwrap();
        let time = s.attr_index("TimeOfCall").unwrap();
        build_cube(&ds, &[phone, time]).unwrap()
    }

    #[test]
    fn heatmap_renders_and_flags_hot_cell() {
        let cube = pair();
        let (ds, _) = paper_scenario(1_000, 88);
        let dropped = ds.schema().class().domain().get("dropped").unwrap();
        let text = render_pair_heatmap(&cube, dropped, &PairViewOptions::default()).unwrap();
        assert!(text.contains("PhoneModel × TimeOfCall"), "{text}");
        assert!(text.contains("ph2"), "{text}");
        assert!(text.contains("columns:"), "{text}");
        // The planted ph2×morning cell is the maximum: a full block exists.
        assert!(text.contains('█'), "{text}");
    }

    #[test]
    fn store_pair_cube_renders_too() {
        let (ds, _) = paper_scenario(20_000, 89);
        let s = ds.schema();
        let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        let cube = store
            .pair(
                s.attr_index("PhoneModel").unwrap(),
                s.attr_index("NetworkLoad").unwrap(),
            )
            .unwrap();
        let text = render_pair_heatmap(&cube, 1, &PairViewOptions::default()).unwrap();
        assert!(text.contains("NetworkLoad"), "{text}");
    }

    #[test]
    fn wrong_dimensionality_rejected() {
        let (ds, _) = paper_scenario(1_000, 90);
        let one = build_cube(&ds, &[0]).unwrap();
        assert!(render_pair_heatmap(&one, 0, &PairViewOptions::default()).is_err());
        let cube = pair();
        assert!(render_pair_heatmap(&cube, 99, &PairViewOptions::default()).is_err());
    }

    #[test]
    fn deterministic() {
        let cube = pair();
        let o = PairViewOptions::default();
        assert_eq!(
            render_pair_heatmap(&cube, 1, &o).unwrap(),
            render_pair_heatmap(&cube, 1, &o).unwrap()
        );
    }
}
