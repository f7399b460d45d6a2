//! `opmap scan` — find the comparisons worth running, automatically.

use std::io::Write;

use om_engine::ScanConfig;

use crate::args::Parsed;
use crate::CliResult;

const HELP: &str = "\
opmap scan — find significant value pairs and compare each automatically

OPTIONS:
  --data <csv>       input CSV (required)
  --class <column>   class column name (required)
  --target <label>   class of interest, e.g. dropped (required)
  --top <n>          pairs to analyze (default 5)
  --min-z <z>        minimum |z| of the pair difference (default 4.0)
  --min-support <n>  minimum records per value (default 100)
  --bins <k>         equal-frequency bins for continuous attributes";

pub fn run(parsed: &mut Parsed, out: &mut dyn Write) -> CliResult {
    if parsed.switch("help") {
        writeln!(out, "{HELP}").ok();
        return Ok(());
    }
    let target = parsed.required("target")?;
    let top = parsed.parse_or("top", 5usize)?;
    let min_z = parsed.parse_or("min-z", 4.0f64)?;
    let min_support = parsed.parse_or("min-support", 100u64)?;
    let ds = super::load_dataset(parsed)?;
    let om = super::build_engine(parsed, ds)?;
    parsed.reject_unknown()?;

    let findings = om.scan_opportunities(
        &target,
        &ScanConfig {
            max_results: top,
            min_z,
            min_sub_population: min_support,
        },
    )?;
    if findings.is_empty() {
        writeln!(
            out,
            "no value pair clears |z| >= {min_z} on class {target:?} — nothing stands out"
        )
        .ok();
        return Ok(());
    }
    writeln!(
        out,
        "{} significant pair(s) on class {target:?}:\n",
        findings.len()
    )
    .ok();
    for (i, f) in findings.iter().enumerate() {
        writeln!(
            out,
            "#{} {}: {} ({:.3}%) vs {} ({:.3}%), z = {:.1}",
            i + 1,
            f.attr_name,
            f.value_1_label,
            f.cf1 * 100.0,
            f.value_2_label,
            f.cf2 * 100.0,
            f.z
        )
        .ok();
        match f.result.top() {
            Some(top_attr) => {
                let top_value = top_attr
                    .top_values()
                    .first()
                    .map(|c| c.label.clone())
                    .unwrap_or_default();
                writeln!(
                    out,
                    "   best explained by {} (top value {}, M = {:.1}, {:.1}% of max)",
                    top_attr.attr_name,
                    top_value,
                    top_attr.score,
                    top_attr.normalized * 100.0
                )
                .ok();
            }
            None => {
                writeln!(out, "   no non-property attribute explains the difference").ok();
            }
        }
    }
    Ok(())
}
