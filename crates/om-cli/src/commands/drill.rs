//! `opmap drill` — automated drill-down comparison.

use std::io::Write;

use om_compare::{report, DrillConfig};

use crate::args::Parsed;
use crate::CliResult;

const HELP: &str = "\
opmap drill — compare, then recurse into each level's top finding

OPTIONS:
  --data <csv>       input CSV (required)
  --class <column>   class column name (required)
  --attr <name>      attribute holding the two values (required)
  --v1 <label>       first value (required)
  --v2 <label>       second value (required)
  --target <label>   class of interest (required)
  --depth <n>        maximum drill depth (default 2)
  --floor <f>        stop when top normalized score < f (default 0.05)
  --bins <k>         equal-frequency bins for continuous attributes
  --budget-ms <ms>   abort if the drill-down runs longer (default: no limit)";

pub fn run(parsed: &mut Parsed, out: &mut dyn Write) -> CliResult {
    if parsed.switch("help") {
        writeln!(out, "{HELP}").ok();
        return Ok(());
    }
    let attr = parsed.required("attr")?;
    let v1 = parsed.required("v1")?;
    let v2 = parsed.required("v2")?;
    let target = parsed.required("target")?;
    let depth = parsed.parse_or("depth", 2usize)?;
    let floor = parsed.parse_or("floor", 0.05f64)?;
    let budget = super::budget_from(parsed)?;
    let ds = super::load_dataset(parsed)?;
    let om = super::build_engine(parsed, ds)?;
    parsed.reject_unknown()?;

    let config = DrillConfig {
        max_depth: depth,
        min_normalized_score: floor,
        ..DrillConfig::default()
    };
    let levels = om.run_drill_down_by_name(
        &attr,
        &v1,
        &v2,
        &target,
        &config,
        om.exec_ctx(Some(&budget)),
    )?;
    for (i, level) in levels.iter().enumerate() {
        if level.conditions.is_empty() {
            writeln!(out, "== level {i}: unconditioned ==").ok();
        } else {
            writeln!(
                out,
                "== level {i}: conditioned on {} ==",
                level.condition_labels.join(" AND ")
            )
            .ok();
        }
        writeln!(out, "{}", report::render(&level.result, 5)).ok();
    }
    writeln!(out, "drill-down finished after {} level(s)", levels.len()).ok();
    Ok(())
}
