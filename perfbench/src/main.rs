//! om-perfbench: the end-to-end and per-layer benchmark of the
//! Opportunity Map serving stack. See `perfbench/README.md`.

mod client;
mod layers;
mod oracle;
mod report;
mod run;
mod spec;
mod stack;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::Common;
use workload::{Shape, Workload, RUN_SECONDS};

const USAGE: &str = "\
om-perfbench — end-to-end and per-layer benchmark of the Opportunity Map stack

  om-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out DIR]
      One run of one workload (wide_single, tall_single, tall_cluster).
      --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
      ones; the last line of stdout is the result as one JSON object.
  om-perfbench run [--smoke] [--seed N] [--seconds S] [--out DIR] [--save FILE]
      Every workload, untraced then traced, each in its own child process.
  om-perfbench stability --runs N [--workload W] [--smoke] [--seed N] [--save FILE]
      N untraced runs per workload at one seed: median, quartiles and
      IQR/median per end-to-end metric and client timing; exits non-zero
      when the spread of an end-to-end metric exceeds 0.10 (peak_rss_mb:
      0.03; setup_s, one sample per run, has no limit).
  om-perfbench compare A B
      Files written by --save: B's medians against A's, per workload and
      metric: improved / unchanged / unresolved / regressed.
  om-perfbench spec --check [--smoke] | --emit
      --check: the compiled-in names equal ./BENCHMARK.json; with --smoke
      also equal what a run of every workload prints. --emit prints
      BENCHMARK.json.

  --out DIR keeps the run's files: WAL segments go into wal* subdirectories
  of DIR (removed when the run ends), the traced pass writes
  spans-<workload>.jsonl there. Without it a scratch directory next to the
  executable is made and removed.
";

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        match self.0.iter().position(|a| a == name) {
            Some(i) if i + 1 < self.0.len() => {
                self.0.remove(i);
                Ok(Some(self.0.remove(i)))
            }
            Some(_) => Err(format!("{name} needs a value")),
            None => Ok(None),
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("{name}: cannot read {v:?}"))
            })
            .transpose()
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}\n\n{USAGE}")),
        }
    }
}

/// Where a run keeps its files: the caller's `--out`, or a scratch
/// directory of this process next to the executable (inside the
/// checkout wherever cargo put the build), removed on drop. A caller's
/// directory is never removed.
struct OutDir {
    path: PathBuf,
    scratch: bool,
}

impl OutDir {
    fn new(given: Option<PathBuf>) -> Self {
        match given {
            Some(path) => OutDir {
                path,
                scratch: false,
            },
            None => {
                let dir = std::env::current_exe()
                    .ok()
                    .and_then(|exe| exe.parent().map(std::path::Path::to_path_buf))
                    .unwrap_or_else(|| PathBuf::from("."));
                OutDir {
                    path: dir
                        .join("perfbench-out")
                        .join(std::process::id().to_string()),
                    scratch: true,
                }
            }
        }
    }
}

impl Drop for OutDir {
    fn drop(&mut self) {
        if self.scratch {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn one_run(mut args: Args) -> Result<bool, String> {
    let name = args.value("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let smoke = args.flag("--smoke");
    let out = OutDir::new(args.parsed("--out")?);
    let opts = run::Opts {
        workload,
        seed: args.parsed("--seed")?.unwrap_or(1),
        seconds: args.parsed("--seconds")?.unwrap_or(f64::from(RUN_SECONDS)),
        trace: match args.value("--trace")?.as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        shape: if smoke { Shape::SMOKE } else { Shape::FULL },
        // Spans are kept only where the caller asked for them.
        spans: (!out.scratch).then(|| out.path.join(format!("spans-{}.jsonl", workload.name()))),
        out: out.path.clone(),
    };
    args.done()?;
    if !(opts.seconds >= 1.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be between 1 and 600".to_owned());
    }

    println!(
        "host cores={} profile={} commit={}",
        stack::nproc(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        commit()
    );
    let outcome = run::run(&opts)?;
    for (key, value) in &outcome.info {
        println!("info {key}={value}");
    }
    for m in &outcome.metrics {
        match m.value {
            Some(value) => println!("metric {:<40} {value:>16.4} {}", m.name, m.unit),
            None => println!("metric {:<40} {:>16} {}", m.name, "not-measured", m.unit),
        }
    }
    for f in &outcome.failures {
        println!("failure {f}");
    }
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    // The result line carries a number for every metric of the spec;
    // one the workload has no layer for reads 0 there and `not-measured`
    // in the lines above.
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                om_api::json::num(m.value.unwrap_or(0.0)),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    Ok(outcome.correct)
}

fn dispatch(mut argv: Vec<String>) -> Result<bool, String> {
    let sub = match argv.first().map(String::as_str) {
        Some(s) if !s.starts_with("--") => argv.remove(0),
        Some("--help") | None => {
            print!("{USAGE}");
            return Ok(true);
        }
        Some(_) => return one_run(Args(argv)),
    };
    let mut args = Args(argv);
    let smoke = args.flag("--smoke");
    let out = OutDir::new(args.parsed("--out")?);
    let common = Common {
        seed: args.parsed("--seed")?.unwrap_or(1),
        seconds: args.parsed("--seconds")?.unwrap_or(f64::from(RUN_SECONDS)),
        smoke,
        out: &out.path,
    };
    let save: Option<PathBuf> = args.parsed("--save")?;
    match sub.as_str() {
        "run" => {
            args.done()?;
            report::run_all(&common, save.as_deref()).map(|()| true)
        }
        "stability" => {
            let runs = args.parsed("--runs")?.ok_or("stability needs --runs N")?;
            let only = args
                .value("--workload")?
                .map(|n| Workload::parse(&n).ok_or(format!("unknown workload {n:?}")))
                .transpose()?;
            args.done()?;
            report::stability(&common, runs, only, save.as_deref()).map(|()| true)
        }
        "compare" => {
            let [a, b] = args.0.as_slice() else {
                return Err("compare takes two files".to_owned());
            };
            report::compare(a.as_ref(), b.as_ref()).map(|regressed| !regressed)
        }
        "spec" => {
            if args.flag("--emit") {
                args.done()?;
                print!("{}", spec::render_benchmark_json());
                return Ok(true);
            }
            if !args.flag("--check") {
                return Err("spec takes --check or --emit".to_owned());
            }
            args.done()?;
            report::spec_check("BENCHMARK.json".as_ref(), smoke.then_some(&common)).map(|()| true)
        }
        other => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("om-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
