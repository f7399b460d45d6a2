//! `opmap compare` — the automated comparison (Figs. 7/8), the paper's
//! headline feature.

use std::io::Write;

use om_compare::{report, CompareConfig, IntervalMethod};
use om_viz::compare_view::{render_property_view, CompareViewOptions};

use crate::args::Parsed;
use crate::CliResult;

const HELP: &str = "\
opmap compare — rank attributes distinguishing two values on a class

OPTIONS:
  --data <csv>       input CSV (required)
  --class <column>   class column name (required)
  --attr <name>      attribute holding the two values (required)
  --v1 <label>       first value, e.g. ph1 (required)
  --v2 <label>       second value, e.g. ph2 (required)
  --target <label>   class of interest, e.g. dropped (required)
  --top <n>          attributes to print (default 10)
  --level <p>        CI level for the adjustment (default 0.95)
  --tau <t>          property-attribute threshold (default 0.9)
  --min-support <n>  minimum records per sub-population (default 30)
  --format <f>       text (default) or json
  --bins <k>         equal-frequency bins for continuous attributes
  --budget-ms <ms>   abort if the comparison runs longer (default: no limit)
  --no-ci            disable the confidence-interval adjustment";

pub fn run(parsed: &mut Parsed, out: &mut dyn Write) -> CliResult {
    if parsed.switch("help") {
        writeln!(out, "{HELP}").ok();
        return Ok(());
    }
    let attr = parsed.required("attr")?;
    let v1 = parsed.required("v1")?;
    let v2 = parsed.required("v2")?;
    let target = parsed.required("target")?;
    let top = parsed.parse_or("top", 10usize)?;
    let level = parsed.parse_or("level", 0.95f64)?;
    let tau = parsed.parse_or("tau", 0.9f64)?;
    let min_support = parsed.parse_or("min-support", 30u64)?;
    let budget = super::budget_from(parsed)?;
    let format = parsed.optional("format").unwrap_or_else(|| "text".into());
    let ds = super::load_dataset(parsed)?;
    let mut om = super::build_engine(parsed, ds)?;
    parsed.reject_unknown()?;

    // Rebuild the engine's compare config from the CLI knobs.
    let interval = if parsed.switch("no-ci") {
        IntervalMethod::None
    } else {
        IntervalMethod::Wald(level)
    };
    let compare = CompareConfig {
        interval,
        property_tau: tau,
        min_sub_population: min_support,
    };
    om = om.with_compare_config(compare);

    let result = om.run_compare_by_name(&attr, &v1, &v2, &target, om.exec_ctx(Some(&budget)))?;
    if format == "json" {
        writeln!(out, "{}", om_server::v1::compare_wire(&result).encode()).ok();
        return Ok(());
    }
    if format != "text" {
        return Err(crate::CliError::Usage(format!(
            "unknown format {format:?}; expected text or json"
        )));
    }
    writeln!(out, "{}", report::render(&result, top)).ok();
    writeln!(out, "{}", om.comparison_view(&result)).ok();
    for p in &result.property_attrs {
        writeln!(
            out,
            "{}",
            render_property_view(&result, p, &CompareViewOptions::default())
        )
        .ok();
    }
    Ok(())
}
