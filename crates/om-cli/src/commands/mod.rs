//! One module per `opmap` subcommand.

pub mod cluster;
pub mod compare;
pub mod describe;
pub mod detail;
pub mod drill;
pub mod explore;
pub mod generate;
pub mod gi;
pub mod groups;
pub mod heatmap;
pub mod ingest;
pub mod overview;
pub mod report;
pub mod rules;
pub mod scan;
pub mod serve;
pub mod shell;

use std::io::BufReader;

use om_data::csv::{read_csv, CsvOptions};
use om_data::Dataset;
use om_engine::{EngineConfig, OpportunityMap};

use crate::args::Parsed;
use crate::CliError;

/// Shared `--data <csv> --class <column>` loading used by every analysis
/// command.
pub(crate) fn load_dataset(parsed: &mut Parsed) -> Result<Dataset, CliError> {
    let path = parsed.required("data")?;
    let class = parsed.required("class")?;
    let file = std::fs::File::open(&path)
        .map_err(|e| CliError::Failed(format!("cannot open {path:?}: {e}")))?;
    let ds = read_csv(BufReader::new(file), &CsvOptions::new(class))?;
    if ds.is_empty() {
        return Err(CliError::Failed(format!("{path:?} contains no records")));
    }
    Ok(ds)
}

/// Shared engine construction with the `--bins <k>` discretization knob.
pub(crate) fn build_engine(parsed: &mut Parsed, ds: Dataset) -> Result<OpportunityMap, CliError> {
    let bins = parsed.parse_or("bins", 0usize)?;
    // `--exec-workers 1` is the serial path; 0 means one shard per core.
    let exec_workers = parsed.parse_or("exec-workers", 1usize)?;
    let mut config = EngineConfig::default();
    if bins > 0 {
        config.discretization = om_discretize::Method::EqualFrequency(bins);
    }
    config.exec = om_engine::ExecConfig {
        workers: exec_workers,
    };
    Ok(OpportunityMap::build(ds, config)?)
}

/// Shared `--budget-ms <ms>` knob: a cooperative deadline for engine
/// work; 0 or absent means no limit.
pub(crate) fn budget_from(parsed: &mut Parsed) -> Result<om_engine::Budget, CliError> {
    let ms = parsed.parse_or("budget-ms", 0u64)?;
    Ok(if ms == 0 {
        om_engine::Budget::unlimited()
    } else {
        om_engine::Budget::with_timeout(std::time::Duration::from_millis(ms))
    })
}
