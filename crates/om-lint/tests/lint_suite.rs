//! Integration suite for the lint driver itself: the fixture corpus
//! must self-test green, the real workspace must be clean at HEAD, and
//! the JSON output must match its golden byte-for-byte. It also holds
//! the request-path panic policy, which clippy enforces.

use std::path::PathBuf;
use std::process::Command;

use om_lint::fixtures::{fixtures_dir, run_all};
use om_lint::{checks, find_workspace_root, jsonout, CheckConfig, Workspace};

fn workspace_root() -> PathBuf {
    let here = std::env::current_dir().expect("cwd");
    find_workspace_root(&here).expect("om-lint tests run inside the workspace")
}

#[test]
fn fixture_corpus_is_green() {
    let outcomes = run_all(&fixtures_dir(&workspace_root())).expect("corpus loads");
    // Every check and driver pass ships both kinds; a missing dir shows
    // up as a failure.
    let named = checks::all().len() + checks::driver_passes().len();
    assert_eq!(outcomes.len(), 2 * named, "one fixture pair per check");
    let failures: Vec<_> = outcomes.iter().filter(|o| !o.pass).collect();
    assert!(failures.is_empty(), "fixture failures: {failures:?}");
}

#[test]
fn workspace_head_is_clean() {
    let root = workspace_root();
    let ws = Workspace::load(&root, CheckConfig::default()).expect("workspace loads");
    let findings = ws.run_checks();
    assert!(
        findings.is_empty(),
        "om-lint findings on HEAD (fix or annotate them):\n{}",
        findings
            .iter()
            .map(|f| format!("  {}:{}: [{}] {}", f.file, f.line, f.check, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// No panic reachable from input on a request path. Each request-path
/// crate root (and om-cube's `kernel.rs`) denies
/// clippy's panicking-construct lints outside unit tests, and a site
/// that cannot fire carries `#[expect(clippy::indexing_slicing, reason
/// = "…")]`. An expectation whose site is gone is denied here as
/// `unfulfilled_lint_expectations`, so a stale waiver fails like a new
/// panic site does. Its own target dir keeps this clippy run off the
/// lock of the build that runs the test.
#[test]
fn request_paths_pass_clippys_panic_lints() {
    let root = workspace_root();
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "-q", "--workspace", "--lib"])
        .args(["--", "-D", "unfulfilled_lint_expectations"])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", root.join("target/clippy-tier1"))
        .output()
        .expect("cargo clippy starts");
    assert!(
        out.status.success(),
        "clippy rejects the request-path panic policy (docs/lint.md):\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The JSON report for the lock-across-io violation fixture, pinned to a
/// golden file. Regenerate with `OM_UPDATE_GOLDEN=1 cargo test -p om-lint`.
#[test]
fn json_output_matches_golden() {
    let root = workspace_root();
    let fixture = fixtures_dir(&root).join("lock-across-io/violation");
    let ws = Workspace::load(&fixture, CheckConfig::default()).expect("fixture loads");
    let rendered = jsonout::render(&ws.run_checks());

    let golden_path = root.join("crates/om-lint/tests/golden/lock_across_io_violation.json");
    if std::env::var_os("OM_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path.parent().expect("golden dir"))
            .expect("create golden dir");
        std::fs::write(&golden_path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file exists; regenerate with OM_UPDATE_GOLDEN=1");
    assert_eq!(
        rendered, golden,
        "JSON output drifted from the golden; if intentional, \
         regenerate with OM_UPDATE_GOLDEN=1"
    );
}
