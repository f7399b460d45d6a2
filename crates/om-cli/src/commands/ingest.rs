//! `opmap ingest` — append CSV rows to a running server's live store.

use std::io::Write;
use std::time::Duration;

use om_api::{ErrorEnvelope, IngestRequest, IngestResponse};
use om_cluster::ShardClient;

use crate::args::Parsed;
use crate::{CliError, CliResult};

const HELP: &str = "\
opmap ingest — append CSV rows to a running server's live store

Reads data rows from <file> and POSTs them in typed batches to the
/v1/ingest endpoint of an `opmap serve --ingest-wal <dir>` server. Rows
must use the serving dataset's discretized value labels, in schema order,
with the class column last; labels containing commas must be quoted.

USAGE:
  opmap ingest <file> [OPTIONS]

OPTIONS:
  --addr <host:port>   Server address [127.0.0.1:7878]
  --batch <n>          Rows per POST request [500]
  --skip-header        Skip the first line of <file> (a CSV header)";

/// How long one batch's whole request (connect, send, reply) may take.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Entry point for `opmap ingest`.
///
/// # Errors
/// Usage errors for bad flags; failures for an unreadable file, an
/// unreachable server, or a rejected batch.
pub fn run(parsed: &mut Parsed, out: &mut dyn Write) -> CliResult {
    if parsed.switch("help") {
        writeln!(out, "{HELP}").ok();
        return Ok(());
    }
    let path = parsed.next_positional().ok_or_else(|| {
        CliError::Usage("ingest needs a file: opmap ingest <file> --addr <host:port>".into())
    })?;
    let addr = parsed
        .optional("addr")
        .unwrap_or_else(|| "127.0.0.1:7878".to_owned());
    let batch = parsed.parse_or("batch", 500usize)?;
    if batch == 0 {
        return Err(CliError::Usage("--batch must be at least 1".into()));
    }
    let skip_header = parsed.switch("skip-header");
    parsed.reject_unknown()?;

    let text = std::fs::read_to_string(&path)
        .map_err(|e| CliError::Failed(format!("cannot read {path:?}: {e}")))?;
    let mut lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if skip_header && !lines.is_empty() {
        lines.remove(0);
    }
    if lines.is_empty() {
        return Err(CliError::Failed(format!("{path:?} contains no data rows")));
    }
    // Field splitting happens client-side so the server sees structured
    // rows and can point at the offending row index on rejection.
    let rows: Vec<Vec<String>> = lines
        .iter()
        .map(|line| om_data::csv::split_record(line, ','))
        .collect();

    let client = ShardClient::new(addr.clone(), IO_TIMEOUT);
    let mut accepted = 0u64;
    let mut batches = 0usize;
    let mut last: Option<IngestResponse> = None;
    for (chunk_no, chunk) in rows.chunks(batch).enumerate() {
        let body = IngestRequest {
            rows: chunk.to_vec(),
        }
        .encode();
        let (status, reply) = client
            .post("/v1/ingest", &body)
            .map_err(|e| CliError::Failed(format!("ingest to {addr} failed: {e}")))?;
        if status != 200 {
            return Err(CliError::Failed(reject_message(
                status,
                &reply,
                chunk_no,
                chunk.len(),
                accepted,
                batch,
            )));
        }
        let parsed_reply = IngestResponse::parse(&reply)
            .map_err(|e| CliError::Failed(format!("malformed ingest reply from {addr}: {e}")))?;
        accepted += parsed_reply.accepted;
        last = Some(parsed_reply);
        batches += 1;
    }

    writeln!(
        out,
        "appended {accepted} row(s) in {batches} batch(es) to http://{addr}/v1/ingest"
    )
    .ok();
    if let Some(reply) = last {
        writeln!(
            out,
            "server has ingested {} row(s) this run; store generation {}",
            reply.rows_total, reply.generation
        )
        .ok();
    }
    Ok(())
}

/// Render a rejected batch as an actionable message, naming the file row
/// when the server's error envelope carries one.
fn reject_message(
    status: u16,
    reply: &str,
    chunk_no: usize,
    chunk_len: usize,
    accepted: u64,
    batch: usize,
) -> String {
    let prefix = format!(
        "server rejected batch {} ({chunk_len} row(s) in, {accepted} accepted so far) \
         with status {status}",
        chunk_no + 1
    );
    match ErrorEnvelope::parse(reply) {
        Ok(env) => {
            let mut msg = format!("{prefix}: {} ({})", env.message, env.code.as_str());
            if let Some(row) = env.row {
                // Row index within the batch -> row within the file.
                let file_row = chunk_no * batch + usize::try_from(row).unwrap_or(0);
                msg.push_str(&format!("; this is data row {file_row} of the file"));
            }
            if let Some(ms) = env.retry_after_ms {
                msg.push_str(&format!("; retry in {ms}ms"));
            }
            msg
        }
        Err(_) => format!("{prefix}: {}", reply.trim()),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use om_engine::{EngineConfig, IngestConfig, OpportunityMap};
    use om_server::{Server, ServerConfig};

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
        let (r, text) = run_args(&["ingest", "--help"]);
        assert!(r.is_ok());
        assert!(text.contains("--addr"));
        assert!(text.contains("--batch"));
    }

    #[test]
    fn missing_file_operand_is_usage_error() {
        let (r, _) = run_args(&["ingest"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn unreadable_file_is_failure() {
        let (r, _) = run_args(&["ingest", "/nonexistent-rows.csv"]);
        assert!(matches!(r, Err(CliError::Failed(_))));
    }

    #[test]
    fn reject_message_names_file_row_from_envelope() {
        let reply = r#"{"error":{"code":"bad_row","message":"bad row 2: expected 13 fields, got 3","row":2}}"#;
        let msg = reject_message(400, reply, 3, 10, 30, 10);
        assert!(msg.contains("status 400"), "{msg}");
        assert!(msg.contains("bad_row"), "{msg}");
        assert!(msg.contains("data row 32 of the file"), "{msg}");

        let overload = r#"{"error":{"code":"overloaded","message":"deadline exceeded","retry_after_ms":2000}}"#;
        let msg = reject_message(503, overload, 0, 5, 0, 5);
        assert!(msg.contains("retry in 2000ms"), "{msg}");

        // Legacy/plain replies still surface verbatim.
        let msg = reject_message(500, "boom\n", 0, 1, 0, 1);
        assert!(msg.ends_with(": boom"), "{msg}");
    }

    #[test]
    fn posts_a_file_to_a_live_server_in_batches() {
        let (ds, _) = om_synth::paper_scenario(2_000, 5);
        let om = Arc::new(OpportunityMap::build(ds, EngineConfig::default()).unwrap());
        let wal_dir = std::env::temp_dir().join(format!("om-cli-ingest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let handle = om
            .start_ingest(&IngestConfig {
                seal_rows: 64,
                sync_writes: false,
                ..IngestConfig::new(&wal_dir)
            })
            .unwrap();
        let server = Server::start_with_ingest(
            Arc::clone(&om),
            ServerConfig::default(),
            Some(handle.clone()),
        )
        .unwrap();

        // A CSV file with a header plus five copies of the dataset's row
        // 0 expressed as discretized labels (quoted where needed).
        let dataset = om.dataset();
        let schema = dataset.schema();
        let header = (0..schema.n_attributes())
            .map(|i| schema.attribute(i).name().to_owned())
            .collect::<Vec<_>>()
            .join(",");
        let row = (0..schema.n_attributes())
            .map(|i| {
                let id = dataset.column(i).as_categorical().unwrap()[0];
                let label = schema.attribute(i).domain().label(id).unwrap();
                if label.contains(',') {
                    format!("\"{label}\"")
                } else {
                    label.to_owned()
                }
            })
            .collect::<Vec<_>>()
            .join(",");
        let file =
            std::env::temp_dir().join(format!("om-cli-ingest-rows-{}.csv", std::process::id()));
        std::fs::write(
            &file,
            format!("{header}\n{row}\n{row}\n{row}\n{row}\n{row}\n"),
        )
        .unwrap();

        let addr = server.local_addr().to_string();
        let (r, text) = run_args(&[
            "ingest",
            file.to_str().unwrap(),
            "--addr",
            &addr,
            "--batch",
            "2",
            "--skip-header",
        ]);
        assert!(r.is_ok(), "{r:?}");
        assert!(text.contains("appended 5 row(s) in 3 batch(es)"), "{text}");
        handle.flush().unwrap();
        assert_eq!(handle.stats().rows_total, 5);

        server.shutdown();
        handle.shutdown();
        let _ = std::fs::remove_file(&file);
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
}
