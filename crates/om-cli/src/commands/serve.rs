//! `opmap serve` — run the HTTP query daemon over a dataset.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use om_server::{Server, ServerConfig};

use crate::args::Parsed;
use crate::{CliError, CliResult};

const HELP: &str = "\
opmap serve — run the HTTP query daemon

Builds the engine once (discretization + full cube store), then serves
the typed POST /v1/* API (compare, drill, gi, cube/slice, explore,
compare/batch, ingest — see docs/api.md) plus GET /healthz and /metrics.

OPTIONS:
  --data <csv>         Dataset to serve (with --class); omitted → synthetic
  --class <column>     Class column of --data
  --data-bin <file>    Pre-discretized binary dataset partition (the om-data
                       persist format `opmap cluster` provisions shards with);
                       overrides --data
  --records <n>        Synthetic dataset size when --data is omitted [50000]
  --seed <n>           Synthetic dataset seed [7]
  --bins <k>           Equal-frequency bins instead of MDL discretization
  --addr <host:port>   Bind address (port 0 → ephemeral) [127.0.0.1:7878]
  --workers <n>        HTTP worker threads [4]
  --exec-workers <n>   Engine comparison shards per request; 1 = serial,
                       0 = one per core [1]
  --timeout-ms <ms>    Per-request read timeout [5000]
  --queue <n>          Admission queue depth; overflow is shed with 503 [64]
  --budget-ms <ms>     Per-request engine budget, 0 disables; exhausted
                       budgets answer 503 with Retry-After [2000]
  --retry-after <s>    Retry-After seconds on 503 responses [1]
  --duration-ms <ms>   Serve for this long then exit; 0 = forever [0]
  --ingest-wal <dir>   Enable live ingestion: POST /v1/ingest appends rows,
                       durably logged to a WAL under <dir>
  --seal-rows <n>      Rows per WAL segment before it is sealed and folded
                       into the store (with --ingest-wal) [4096]
  --verbose            Log one line per request to stderr

Failpoints: OM_FAILPOINTS arms fault injection on any build, e.g.
OM_FAILPOINTS=\"engine.compare=delay:50;server.respond=error:boom\".
An entry naming an unknown seam or action refuses to start.";

/// Entry point for `opmap serve`.
///
/// # Errors
/// Usage errors for bad flags; failures for unreadable data or an
/// unbindable address.
pub fn run(parsed: &mut Parsed, out: &mut dyn Write) -> CliResult {
    if parsed.switch("help") {
        writeln!(out, "{HELP}").ok();
        return Ok(());
    }
    let addr = parsed
        .optional("addr")
        .unwrap_or_else(|| "127.0.0.1:7878".to_owned());
    let n_workers = parsed.parse_or("workers", 4usize)?;
    let timeout_ms = parsed.parse_or("timeout-ms", 5000u64)?;
    let queue_capacity = parsed.parse_or("queue", 64usize)?;
    let budget_ms = parsed.parse_or("budget-ms", 2000u64)?;
    let retry_after_secs = parsed.parse_or("retry-after", 1u64)?;
    let duration_ms = parsed.parse_or("duration-ms", 0u64)?;
    let ingest_wal = parsed.optional("ingest-wal");
    let seal_rows = parsed.parse_or("seal-rows", 4096usize)?;
    if seal_rows == 0 {
        return Err(CliError::Usage("--seal-rows must be at least 1".into()));
    }

    let dataset = if let Some(bin) = parsed.optional("data-bin") {
        let bytes = std::fs::read(&bin)
            .map_err(|e| CliError::Failed(format!("cannot read {bin:?}: {e}")))?;
        om_data::persist::decode_dataset(bytes.into())
            .map_err(|e| CliError::Failed(format!("cannot decode {bin:?}: {e}")))?
    } else if parsed.optional("data").is_some() {
        super::load_dataset(parsed)?
    } else {
        let records = parsed.parse_or("records", 50_000usize)?;
        let seed = parsed.parse_or("seed", 7u64)?;
        om_synth::paper_scenario(records, seed).0
    };
    let engine = super::build_engine(parsed, dataset)?;
    parsed.reject_unknown()?;

    // Arm OM_FAILPOINTS fault injection (chaos runs); a malformed entry
    // is a usage error, never a run with less chaos than asked for.
    om_engine::fail::init_from_env().map_err(CliError::Usage)?;

    let engine = Arc::new(engine);
    let ingest = match &ingest_wal {
        Some(dir) => Some(
            engine
                .start_ingest(&om_engine::IngestConfig {
                    seal_rows,
                    ..om_engine::IngestConfig::new(dir)
                })
                .map_err(|e| CliError::Failed(format!("cannot start live ingestion: {e}")))?,
        ),
        None => None,
    };
    let server = Server::start_with_ingest(
        Arc::clone(&engine),
        ServerConfig {
            addr,
            n_workers,
            request_timeout: Duration::from_millis(timeout_ms),
            queue_capacity,
            engine_budget: (budget_ms > 0).then(|| Duration::from_millis(budget_ms)),
            retry_after_secs,
            max_body_bytes: om_server::http::DEFAULT_MAX_BODY_BYTES,
            verbose: parsed.switch("verbose"),
        },
        ingest.clone(),
    )
    .map_err(|e| CliError::Failed(format!("cannot start server: {e}")))?;
    writeln!(out, "om-server listening on http://{}", server.local_addr()).ok();
    if let Some(dir) = &ingest_wal {
        writeln!(
            out,
            "live ingestion enabled: POST /v1/ingest, WAL at {dir}, sealing every {seal_rows} row(s)"
        )
        .ok();
    }
    out.flush().ok();

    if duration_ms == 0 {
        // Serve until the process is killed.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_millis(duration_ms));
    let metrics = server.metrics();
    server.shutdown();
    if let Some(handle) = &ingest {
        handle.shutdown();
    }
    writeln!(
        out,
        "served {} request(s), {} error(s)",
        om_server::metrics::Endpoint::ALL
            .iter()
            .map(|&e| metrics.requests(e))
            .sum::<u64>(),
        metrics.errors()
    )
    .ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> (CliResult, String) {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut parsed = Parsed::parse(&argv).unwrap();
        let _ = parsed.command();
        let mut out = Vec::new();
        let r = run(&mut parsed, &mut out);
        (r, String::from_utf8(out).unwrap())
    }

    #[test]
    fn help_prints_options() {
        let (r, text) = run_args(&["serve", "--help"]);
        assert!(r.is_ok());
        assert!(text.contains("--addr"));
        assert!(text.contains("/metrics"));
    }

    #[test]
    fn bad_option_is_usage_error() {
        let (r, _) = run_args(&[
            "serve",
            "--records",
            "500",
            "--duration-ms",
            "1",
            "--typo",
            "x",
        ]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn serves_synthetic_data_for_a_moment() {
        let (r, text) = run_args(&[
            "serve",
            "--records",
            "2000",
            "--addr",
            "127.0.0.1:0",
            "--duration-ms",
            "50",
            "--workers",
            "2",
        ]);
        assert!(r.is_ok(), "{r:?}");
        assert!(text.contains("om-server listening on http://127.0.0.1:"));
        assert!(text.contains("served 0 request(s)"));
    }

    #[test]
    fn serves_with_live_ingestion_enabled() {
        let wal_dir =
            std::env::temp_dir().join(format!("om-cli-serve-ingest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let (r, text) = run_args(&[
            "serve",
            "--records",
            "1000",
            "--addr",
            "127.0.0.1:0",
            "--duration-ms",
            "50",
            "--workers",
            "2",
            "--ingest-wal",
            wal_dir.to_str().unwrap(),
            "--seal-rows",
            "32",
        ]);
        assert!(r.is_ok(), "{r:?}");
        assert!(text.contains("live ingestion enabled"), "{text}");
        assert!(wal_dir.join("seg-00000000.wal").exists());
        let _ = std::fs::remove_dir_all(&wal_dir);
    }

    #[test]
    fn zero_seal_rows_is_usage_error() {
        let (r, _) = run_args(&["serve", "--seal-rows", "0"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn missing_class_with_data_is_usage_error() {
        let (r, _) = run_args(&["serve", "--data", "/nonexistent.csv", "--duration-ms", "1"]);
        assert!(r.is_err());
    }
}
