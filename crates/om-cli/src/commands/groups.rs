//! `opmap groups` — compare two value *groups* of one attribute.

use std::io::Write;

use om_compare::report;

use crate::args::Parsed;
use crate::CliResult;

const HELP: &str = "\
opmap groups — compare two merged groups of values (e.g. phone families)

OPTIONS:
  --data <csv>       input CSV (required)
  --class <column>   class column name (required)
  --attr <name>      attribute holding the values (required)
  --g1 <a,b,...>     first value group, comma separated (required)
  --g2 <c,d,...>     second value group, comma separated (required)
  --target <label>   class of interest (required)
  --top <n>          attributes to print (default 10)
  --bins <k>         equal-frequency bins for continuous attributes";

pub fn run(parsed: &mut Parsed, out: &mut dyn Write) -> CliResult {
    if parsed.switch("help") {
        writeln!(out, "{HELP}").ok();
        return Ok(());
    }
    let attr = parsed.required("attr")?;
    let g1_raw = parsed.required("g1")?;
    let g2_raw = parsed.required("g2")?;
    let target = parsed.required("target")?;
    let top = parsed.parse_or("top", 10usize)?;
    let ds = super::load_dataset(parsed)?;
    let om = super::build_engine(parsed, ds)?;
    parsed.reject_unknown()?;

    let split =
        |raw: &str| -> Vec<String> { raw.split(',').map(|s| s.trim().to_owned()).collect() };
    let g1 = split(&g1_raw);
    let g2 = split(&g2_raw);
    let g1_refs: Vec<&str> = g1.iter().map(String::as_str).collect();
    let g2_refs: Vec<&str> = g2.iter().map(String::as_str).collect();
    let result = om.compare_groups_by_name(&attr, &g1_refs, &g2_refs, &target)?;
    writeln!(out, "{}", report::render(&result, top)).ok();
    writeln!(out, "{}", om.comparison_view(&result)).ok();
    Ok(())
}
