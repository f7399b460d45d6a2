//! End-to-end CLI flows: generate → overview → detail → compare → gi →
//! rules, all through the public `run` entry point.

use om_cli::{run, CliError};

fn opmap(args: &[&str]) -> Result<String, CliError> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    run(&argv, &mut out)?;
    Ok(String::from_utf8(out).expect("utf8 output"))
}

fn temp_csv(name: &str) -> String {
    let dir = std::env::temp_dir().join("om-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn full_analysis_flow() {
    let csv = temp_csv("calls.csv");
    let text = opmap(&[
        "generate",
        "--domain",
        "call-log",
        "--records",
        "30000",
        "--seed",
        "7",
        "--out",
        &csv,
    ])
    .unwrap();
    assert!(text.contains("30000 records"), "{text}");
    assert!(text.contains("planted cause: TimeOfCall"), "{text}");

    let text = opmap(&["overview", "--data", &csv, "--class", "CallDisposition"]).unwrap();
    assert!(text.contains("dropped"), "{text}");
    assert!(text.contains("pair cubes materialized"), "{text}");

    let text = opmap(&[
        "detail",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--attr",
        "PhoneModel",
    ])
    .unwrap();
    assert!(text.contains("ph1"), "{text}");
    assert!(text.contains("conf="), "{text}");

    let text = opmap(&[
        "compare",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--attr",
        "PhoneModel",
        "--v1",
        "ph1",
        "--v2",
        "ph2",
        "--target",
        "dropped",
    ])
    .unwrap();
    assert!(text.contains("Rule 1: PhoneModel=ph1"), "{text}");
    // The planted cause must appear at rank 1.
    let rank1_line = text
        .lines()
        .find(|l| l.trim_start().starts_with("1 "))
        .expect("rank-1 line");
    assert!(rank1_line.contains("TimeOfCall"), "{rank1_line}");
    assert!(text.contains("Property attribute"), "{text}");

    let text = opmap(&["gi", "--data", &csv, "--class", "CallDisposition"]).unwrap();
    assert!(text.contains("influential attributes"), "{text}");

    let text = opmap(&[
        "rules",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--min-support",
        "0.001",
        "--min-confidence",
        "0.02",
        "--top",
        "5",
    ])
    .unwrap();
    assert!(text.contains("rules (showing up to 5)"), "{text}");
    assert!(text.contains("->"), "{text}");

    // Restricted mining through the CLI.
    let text = opmap(&[
        "rules",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--min-support",
        "0.0005",
        "--min-confidence",
        "0.0",
        "--max-conditions",
        "3",
        "--fix",
        "PhoneModel=ph2",
        "--top",
        "3",
    ])
    .unwrap();
    assert!(text.contains("PhoneModel=ph2"), "{text}");
}

#[test]
fn compare_no_ci_flag_changes_scores() {
    let csv = temp_csv("calls_noci.csv");
    opmap(&[
        "generate",
        "--domain",
        "call-log",
        "--records",
        "20000",
        "--seed",
        "11",
        "--out",
        &csv,
    ])
    .unwrap();
    let base = [
        "compare",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--attr",
        "PhoneModel",
        "--v1",
        "ph1",
        "--v2",
        "ph2",
        "--target",
        "dropped",
        "--top",
        "3",
    ];
    let with_ci = opmap(&base).unwrap();
    let mut no_ci_args: Vec<&str> = base.to_vec();
    no_ci_args.push("--no-ci");
    let without_ci = opmap(&no_ci_args).unwrap();
    assert_ne!(with_ci, without_ci, "CI flag must change the report");
}

#[test]
fn command_help_screens() {
    for cmd in [
        "generate", "overview", "detail", "compare", "gi", "rules", "explore", "shell",
    ] {
        let text = opmap(&[cmd, "--help"]).unwrap();
        assert!(text.contains("OPTIONS"), "{cmd}: {text}");
    }
}

#[test]
fn missing_file_reports_cleanly() {
    let r = opmap(&[
        "overview",
        "--data",
        "/nonexistent/nope.csv",
        "--class",
        "C",
    ]);
    match r {
        Err(CliError::Failed(msg)) => assert!(msg.contains("cannot open"), "{msg}"),
        other => panic!("expected Failed, got {other:?}"),
    }
}

#[test]
fn unknown_option_rejected() {
    let csv = temp_csv("calls_opt.csv");
    opmap(&[
        "generate",
        "--domain",
        "scaleup",
        "--records",
        "500",
        "--attrs",
        "4",
        "--out",
        &csv,
    ])
    .unwrap();
    let r = opmap(&[
        "overview", "--data", &csv, "--class", "Class", "--tpyo", "1",
    ]);
    assert!(matches!(r, Err(CliError::Usage(_))), "{r:?}");
}

#[test]
fn bad_value_labels_reported() {
    let csv = temp_csv("calls_badval.csv");
    opmap(&[
        "generate",
        "--domain",
        "call-log",
        "--records",
        "5000",
        "--seed",
        "3",
        "--out",
        &csv,
    ])
    .unwrap();
    let r = opmap(&[
        "compare",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--attr",
        "PhoneModel",
        "--v1",
        "ph1",
        "--v2",
        "ph99",
        "--target",
        "dropped",
    ]);
    match r {
        Err(CliError::Failed(msg)) => assert!(msg.contains("ph99"), "{msg}"),
        other => panic!("expected Failed, got {other:?}"),
    }
}

#[test]
fn exhausted_budget_reports_cleanly_and_generous_budget_matches_unlimited() {
    let csv = temp_csv("calls_budget.csv");
    opmap(&[
        "generate",
        "--domain",
        "call-log",
        "--records",
        "10000",
        "--seed",
        "9",
        "--out",
        &csv,
    ])
    .unwrap();
    let base = [
        "compare",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--attr",
        "PhoneModel",
        "--v1",
        "ph1",
        "--v2",
        "ph2",
        "--target",
        "dropped",
    ];

    // An impossible budget fails with actionable guidance, not a panic
    // or a bare engine error. (Engine build happens before the budget
    // starts, so even slow machines can't sneak the comparison in — the
    // deadline is checked before the first attribute.)
    let mut tiny: Vec<&str> = base.to_vec();
    tiny.extend(["--budget-ms", "1"]);
    // The comparison itself is fast; only assert the message shape when
    // the deadline actually trips.
    if let Err(e) = opmap(&tiny) {
        let msg = e.to_string();
        assert!(msg.contains("--budget-ms"), "{msg}");
        assert!(msg.contains("deadline exceeded"), "{msg}");
    }

    // A generous budget must not change the answer.
    let unlimited = opmap(&base).unwrap();
    let mut generous: Vec<&str> = base.to_vec();
    generous.extend(["--budget-ms", "60000"]);
    assert_eq!(opmap(&generous).unwrap(), unlimited);

    // gi and drill accept the flag too.
    let text = opmap(&[
        "gi",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--budget-ms",
        "60000",
    ])
    .unwrap();
    assert!(text.contains("influential attributes"), "{text}");
    let text = opmap(&[
        "drill",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--attr",
        "PhoneModel",
        "--v1",
        "ph1",
        "--v2",
        "ph2",
        "--target",
        "dropped",
        "--depth",
        "1",
        "--budget-ms",
        "60000",
    ])
    .unwrap();
    assert!(text.contains("drill-down finished"), "{text}");
}

#[test]
fn generate_rejects_unknown_domain() {
    let r = opmap(&["generate", "--domain", "weather", "--out", "/tmp/x.csv"]);
    assert!(matches!(r, Err(CliError::Usage(_))));
}

#[test]
fn drill_command_runs() {
    let csv = temp_csv("calls_drill.csv");
    opmap(&[
        "generate",
        "--domain",
        "call-log",
        "--records",
        "40000",
        "--seed",
        "21",
        "--out",
        &csv,
    ])
    .unwrap();
    let text = opmap(&[
        "drill",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--attr",
        "PhoneModel",
        "--v1",
        "ph1",
        "--v2",
        "ph2",
        "--target",
        "dropped",
        "--depth",
        "1",
    ])
    .unwrap();
    assert!(text.contains("level 0: unconditioned"), "{text}");
    assert!(text.contains("drill-down finished"), "{text}");
}

#[test]
fn explore_command_picks_topk_summaries() {
    let csv = temp_csv("calls_explore.csv");
    opmap(&[
        "generate",
        "--domain",
        "call-log",
        "--records",
        "20000",
        "--seed",
        "31",
        "--out",
        &csv,
    ])
    .unwrap();
    let text = opmap(&[
        "explore",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--k",
        "4",
    ])
    .unwrap();
    assert!(text.contains("record(s) in scope"), "{text}");
    assert!(text.contains("  1. "), "{text}");
    assert!(text.contains("support="), "{text}");

    // Compare mode labels each summary with its side of the split.
    let text = opmap(&[
        "explore",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--k",
        "4",
        "--attr",
        "PhoneModel",
        "--v1",
        "ph1",
        "--v2",
        "ph2",
        "--target",
        "dropped",
    ])
    .unwrap();
    assert!(
        text.contains("exploring both sides of PhoneModel"),
        "{text}"
    );
    assert!(text.contains("side="), "{text}");
    assert!(text.contains("mass="), "{text}");

    // A slice pins its attribute, so no summary may mention it again.
    let slice = opmap(&[
        "explore",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--k",
        "3",
        "--slice",
        "TimeOfCall=morning",
    ])
    .unwrap();
    assert!(
        !slice.contains("TimeOfCall="),
        "sliced attr must not reappear: {slice}"
    );
}

#[test]
fn scan_command_finds_the_phone_pair() {
    let csv = temp_csv("calls_scan.csv");
    opmap(&[
        "generate",
        "--domain",
        "call-log",
        "--records",
        "40000",
        "--seed",
        "23",
        "--out",
        &csv,
    ])
    .unwrap();
    let text = opmap(&[
        "scan",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--target",
        "dropped",
    ])
    .unwrap();
    assert!(text.contains("significant pair"), "{text}");
    assert!(text.contains("PhoneModel"), "{text}");
    assert!(text.contains("best explained by"), "{text}");
}

#[test]
fn describe_command_summarizes() {
    let csv = temp_csv("calls_desc.csv");
    opmap(&[
        "generate",
        "--domain",
        "call-log",
        "--records",
        "5000",
        "--seed",
        "2",
        "--out",
        &csv,
    ])
    .unwrap();
    let text = opmap(&["describe", "--data", &csv, "--class", "CallDisposition"]).unwrap();
    assert!(text.contains("5000 records"), "{text}");
    assert!(text.contains("class distribution"), "{text}");
    assert!(text.contains("PhoneModel"), "{text}");
    assert!(text.contains("continuous, range"), "{text}");
}

#[test]
fn heatmap_command_renders() {
    let csv = temp_csv("calls_heat.csv");
    opmap(&[
        "generate",
        "--domain",
        "call-log",
        "--records",
        "20000",
        "--seed",
        "4",
        "--out",
        &csv,
    ])
    .unwrap();
    let text = opmap(&[
        "heatmap",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--attr-a",
        "PhoneModel",
        "--attr-b",
        "TimeOfCall",
        "--target",
        "dropped",
    ])
    .unwrap();
    assert!(text.contains("PhoneModel × TimeOfCall"), "{text}");
    assert!(text.contains("shading"), "{text}");
}

#[test]
fn compare_json_format() {
    let csv = temp_csv("calls_json.csv");
    opmap(&[
        "generate",
        "--domain",
        "call-log",
        "--records",
        "10000",
        "--seed",
        "6",
        "--out",
        &csv,
    ])
    .unwrap();
    let text = opmap(&[
        "compare",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--attr",
        "PhoneModel",
        "--v1",
        "ph1",
        "--v2",
        "ph2",
        "--target",
        "dropped",
        "--format",
        "json",
    ])
    .unwrap();
    let trimmed = text.trim();
    assert!(trimmed.starts_with('{') && trimmed.ends_with('}'), "{text}");
    assert!(trimmed.contains("\"ranked\":["), "{text}");
    // Bad format rejected.
    let r = opmap(&[
        "compare",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--attr",
        "PhoneModel",
        "--v1",
        "ph1",
        "--v2",
        "ph2",
        "--target",
        "dropped",
        "--format",
        "yaml",
    ]);
    assert!(matches!(r, Err(CliError::Usage(_))));
}

#[test]
fn groups_command_runs() {
    let csv = temp_csv("calls_groups.csv");
    opmap(&[
        "generate",
        "--domain",
        "call-log",
        "--records",
        "30000",
        "--seed",
        "8",
        "--out",
        &csv,
    ])
    .unwrap();
    let text = opmap(&[
        "groups",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--attr",
        "PhoneModel",
        "--g1",
        "ph1,ph3",
        "--g2",
        "ph2,ph4",
        "--target",
        "dropped",
    ])
    .unwrap();
    assert!(
        text.contains("{ph1, ph3}") || text.contains("{ph2, ph4}"),
        "{text}"
    );
    assert!(text.contains("Rule 1"), "{text}");
}

#[test]
fn report_command_writes_markdown() {
    let csv = temp_csv("calls_report.csv");
    opmap(&[
        "generate",
        "--domain",
        "call-log",
        "--records",
        "30000",
        "--seed",
        "14",
        "--out",
        &csv,
    ])
    .unwrap();
    let md_path = temp_csv("analysis.md");
    let text = opmap(&[
        "report",
        "--data",
        &csv,
        "--class",
        "CallDisposition",
        "--target",
        "dropped",
        "--out",
        &md_path,
    ])
    .unwrap();
    assert!(text.contains("report written"), "{text}");
    let doc = std::fs::read_to_string(&md_path).unwrap();
    assert!(doc.contains("# Opportunity Map analysis report"), "{doc}");
    assert!(doc.contains("## 3. Significant differences"), "{doc}");
}

/// A misspelled `OM_FAILPOINTS` entry must refuse to start rather than
/// run a chaos smoke with no chaos in it.
#[test]
fn unknown_failpoint_seam_refuses_to_start() {
    for args in [
        &[
            "serve",
            "--records",
            "200",
            "--addr",
            "127.0.0.1:0",
            "--duration-ms",
            "1",
        ][..],
        &[
            "cluster",
            "--shards",
            "1",
            "--records",
            "200",
            "--requests",
            "1",
        ][..],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_opmap"))
            .args(args)
            .env("OM_FAILPOINTS", "engine.comapre=delay:5")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} started: {stderr}");
        assert!(stderr.contains("usage error"), "{args:?}: {stderr}");
        assert!(
            stderr.contains("engine.comapre=delay:5"),
            "{args:?}: {stderr}"
        );
    }
}
