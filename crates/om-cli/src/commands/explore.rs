//! `opmap explore` — smart drill-down: top-k summaries by weighted
//! coverage, optionally split across a comparison's two populations.

use std::io::Write;

use om_engine::{CompareNames, ExploreQuery, ExploreReport};

use crate::args::Parsed;
use crate::{CliError, CliResult};

const HELP: &str = "\
opmap explore — automated top-k exploration of the rule cube

Picks the k condition summaries that together cover the most records,
weighting each summary by its specificity (greedy weighted coverage).
With --attr/--v1/--v2/--target it instead drills both sub-populations
of that comparison and interleaves summaries by distinguishing mass.

OPTIONS:
  --data <csv>       input CSV (required)
  --class <column>   class column name (required)
  --k <n>            summaries to pick (default 5)
  --max-conds <n>    conditions per summary, 1 or 2 (default 2)
  --slice <a=v>      restrict exploration to records with a=v
  --attr <name>      comparison attribute (enables compare mode)
  --v1 <label>       first compared value
  --v2 <label>       second compared value
  --target <label>   class of interest for the comparison
  --bins <k>         equal-frequency bins for continuous attributes
  --budget-ms <ms>   degrade to a partial answer past this deadline";

fn parse_slice(spec: &str) -> Result<(String, String), CliError> {
    spec.split_once('=')
        .map(|(a, v)| (a.to_owned(), v.to_owned()))
        .ok_or_else(|| CliError::Usage(format!("--slice wants attr=value, got {spec:?}")))
}

pub fn run(parsed: &mut Parsed, out: &mut dyn Write) -> CliResult {
    if parsed.switch("help") {
        writeln!(out, "{HELP}").ok();
        return Ok(());
    }
    let k = parsed.parse_or("k", 5usize)?;
    let max_conds = parsed.optional("max-conds");
    let slice = parsed.optional("slice");
    let attr = parsed.optional("attr");
    let budget = super::budget_from(parsed)?;
    let compare = if let Some(attr) = attr {
        Some(CompareNames {
            attr,
            value_1: parsed.required("v1")?,
            value_2: parsed.required("v2")?,
            class: parsed.required("target")?,
        })
    } else {
        None
    };
    let ds = super::load_dataset(parsed)?;
    let om = super::build_engine(parsed, ds)?;
    parsed.reject_unknown()?;

    let query = ExploreQuery {
        slice: slice
            .as_deref()
            .map(parse_slice)
            .transpose()?
            .into_iter()
            .collect(),
        k,
        max_conditions: max_conds
            .as_deref()
            .map(str::parse)
            .transpose()
            .map_err(|e| CliError::Usage(format!("--max-conds: {e}")))?,
        compare,
    };
    let report = om.run_explore(&query, om.exec_ctx(Some(&budget)))?;
    render(&report, k, out);
    Ok(())
}

fn render(report: &ExploreReport, k: usize, out: &mut dyn Write) {
    if let Some(meta) = &report.compare {
        writeln!(
            out,
            "exploring both sides of {}: {} vs {} (class {})",
            meta.attr, meta.value_1, meta.value_2, meta.class
        )
        .ok();
    }
    writeln!(
        out,
        "{} record(s) in scope; {} summaries cover weighted mass {} in {} step(s)",
        report.universe,
        report.summaries.len(),
        report.covered,
        report.steps
    )
    .ok();
    for (rank, s) in report.summaries.iter().enumerate() {
        let conds: Vec<String> = s
            .conds
            .iter()
            .map(|c| format!("{}={}", c.attr, c.value))
            .collect();
        let mut line = format!(
            "{:>3}. {}  support={}  coverage={}",
            rank + 1,
            conds.join(" AND "),
            s.support,
            s.coverage
        );
        if let Some(side) = s.side {
            let meta = report.compare.as_ref();
            let label = meta.map_or_else(
                || side.to_string(),
                |m| {
                    if side == 0 {
                        m.value_1.clone()
                    } else {
                        m.value_2.clone()
                    }
                },
            );
            line.push_str(&format!("  side={label}"));
        }
        if let Some(mass) = s.mass {
            line.push_str(&format!("  mass={mass:.4}"));
        }
        writeln!(out, "{line}").ok();
        let confs: Vec<String> = report
            .classes
            .iter()
            .zip(&s.confidences)
            .map(|(c, p)| format!("{c}={:.3}", p))
            .collect();
        writeln!(out, "     {}", confs.join("  ")).ok();
    }
    if report.truncated {
        writeln!(
            out,
            "note: budget exhausted — partial answer ({} of {k} requested)",
            report.summaries.len()
        )
        .ok();
    }
}
