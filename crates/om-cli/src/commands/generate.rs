//! `opmap generate` — write a synthetic dataset to CSV.

use std::io::Write;

use om_data::csv::write_csv;
use om_synth::domains::{manufacturing_quality, network_diagnostics};
use om_synth::{generate_scaleup, paper_scenario, ScaleUpConfig};

use crate::args::Parsed;
use crate::{CliError, CliResult};

const HELP: &str = "\
opmap generate — generate a synthetic dataset to CSV

OPTIONS:
  --domain <d>     call-log | network | manufacturing | scaleup (default call-log)
  --records <n>    number of records (default 50000)
  --seed <s>       RNG seed (default 42)
  --attrs <n>      attributes, scaleup domain only (default 40)
  --out <path>     output CSV path (required)

The call-log domain plants the paper's running example: phone 2 drops
dramatically more often in the morning, NetworkLoad=high hurts every phone
equally, and PhoneHardwareVersion is a property attribute.";

pub fn run(parsed: &mut Parsed, out: &mut dyn Write) -> CliResult {
    if parsed.switch("help") {
        writeln!(out, "{HELP}").ok();
        return Ok(());
    }
    let domain = parsed
        .optional("domain")
        .unwrap_or_else(|| "call-log".into());
    let records = parsed.parse_or("records", 50_000usize)?;
    let seed = parsed.parse_or("seed", 42u64)?;
    let n_attrs = parsed.parse_or("attrs", 40usize)?;
    let path = parsed.required("out")?;
    parsed.reject_unknown()?;

    let (ds, note) = match domain.as_str() {
        "call-log" => {
            let (ds, truth) = paper_scenario(records, seed);
            (
                ds,
                format!(
                    "planted cause: {} = {} (compare {} {} vs {} on class {})",
                    truth.expected_top_attr,
                    truth.expected_top_value,
                    truth.compare_attr,
                    truth.baseline_value,
                    truth.target_value,
                    truth.target_class
                ),
            )
        }
        "network" => {
            let (ds, truth) = network_diagnostics(records, seed);
            (
                ds,
                format!(
                    "planted cause: {} = {}",
                    truth.expected_top_attr, truth.expected_top_value
                ),
            )
        }
        "manufacturing" => {
            let (ds, truth) = manufacturing_quality(records, seed);
            (
                ds,
                format!(
                    "planted cause: {} = {}",
                    truth.expected_top_attr, truth.expected_top_value
                ),
            )
        }
        "scaleup" => {
            let ds = generate_scaleup(&ScaleUpConfig {
                n_attrs,
                n_records: records,
                seed,
                ..ScaleUpConfig::default()
            });
            (ds, format!("{n_attrs} generic attributes"))
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown domain {other:?}; expected call-log | network | manufacturing | scaleup"
            )))
        }
    };

    let file = std::fs::File::create(&path)
        .map_err(|e| CliError::Failed(format!("cannot create {path:?}: {e}")))?;
    let mut writer = std::io::BufWriter::new(file);
    write_csv(&ds, &mut writer, ',')?;
    writer
        .flush()
        .map_err(|e| CliError::Failed(format!("write failed: {e}")))?;

    writeln!(
        out,
        "wrote {} records x {} attributes to {path} ({note}); class column {:?}",
        ds.n_rows(),
        ds.schema().n_attributes(),
        ds.schema().class().name()
    )
    .ok();
    Ok(())
}
