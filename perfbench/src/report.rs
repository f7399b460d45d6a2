//! The subcommands that run workloads in child processes and read their
//! results back: `run`, `stability`, `compare`, `spec --check`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use om_api::Json;

use crate::spec::{self, MetricDef};
use crate::stats::{iqr_over_median, median, quartiles};
use crate::workload::Workload;

/// One child run's result line, parsed.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit) in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// `info` lines of the child, e.g. the pool hash.
    pub info: BTreeMap<String, String>,
}

impl RunRecord {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// A client timing of the full phases, from the child's
    /// `info client.<name>=<value> <unit>` line.
    fn client_timing(&self, name: &str) -> Option<f64> {
        let line = self.info.get(&format!("client.{name}"))?;
        line.split_whitespace().next()?.parse().ok()
    }

    fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                (
                    n.clone(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Num(*v)),
                        ("unit".to_owned(), Json::Str(u.clone())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("workload".to_owned(), Json::Str(self.workload.clone())),
            ("trace".to_owned(), Json::Bool(self.trace)),
            ("seed".to_owned(), Json::Num(self.seed as f64)),
            ("correct".to_owned(), Json::Bool(self.correct)),
            ("attempted".to_owned(), Json::Num(self.attempted as f64)),
            ("failed".to_owned(), Json::Num(self.failed as f64)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ])
        .encode()
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("result has no {k:?}"));
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("\"metrics\" is not an object")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(v), Some(u)) => Ok((name.clone(), v, u.to_owned())),
                    _ => Err(format!("metric {name:?} lacks a value or a unit")),
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(RunRecord {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            trace: v.get("trace").and_then(Json::as_bool).unwrap_or(false),
            seed: v.get("seed").and_then(Json::as_u64).unwrap_or(0),
            correct: field("correct")?
                .as_bool()
                .ok_or("\"correct\" is not a bool")?,
            attempted: field("attempted")?
                .as_u64()
                .ok_or("\"attempted\" is not a count")?,
            failed: field("failed")?
                .as_u64()
                .ok_or("\"failed\" is not a count")?,
            metrics,
            info: BTreeMap::new(),
        })
    }
}

pub struct ChildArgs<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: &'a Path,
}

/// Run one workload in a child process of its own (a fresh address
/// space, so `peak_rss_mb` is the workload's) and parse its last line.
pub fn run_child(args: &ChildArgs<'_>, echo: bool) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(args.out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}:\n{}{}",
            args.workload.name(),
            u8::from(args.trace),
            output.status,
            if echo { "" } else { &stdout },
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let last = stdout.lines().last().ok_or("the child printed nothing")?;
    let mut record = RunRecord::from_json(&Json::parse(last).map_err(|e| e.to_string())?)?;
    record.workload = args.workload.name().to_owned();
    record.trace = args.trace;
    record.seed = args.seed;
    for line in stdout.lines() {
        if let Some((key, value)) = line.strip_prefix("info ").and_then(|l| l.split_once('=')) {
            record.info.insert(key.to_owned(), value.to_owned());
        }
    }
    Ok(record)
}

/// The names a run printed must be the spec's, in the spec's order.
fn check_names(record: &RunRecord) -> Result<(), String> {
    let want: Vec<MetricDef> = if record.trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let printed: Vec<(&str, &str)> = record
        .metrics
        .iter()
        .map(|m| (m.0.as_str(), m.2.as_str()))
        .collect();
    let expected: Vec<(&str, &str)> = want.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    if printed == expected {
        Ok(())
    } else {
        Err(format!(
            "{} (trace {}) printed metrics that differ from the compiled-in spec",
            record.workload,
            u8::from(record.trace)
        ))
    }
}

pub struct Common<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub out: &'a Path,
}

/// `run`: every workload, untraced then traced, each in its own child.
pub fn run_all(common: &Common<'_>, save: Option<&Path>) -> Result<(), String> {
    let mut records = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let record = run_child(
                &ChildArgs {
                    workload,
                    seed: common.seed,
                    seconds: common.seconds,
                    trace,
                    smoke: common.smoke,
                    out: &common.out.join(workload.name()),
                },
                true,
            )?;
            check_names(&record)?;
            records.push(record);
        }
    }
    // tall_single and tall_cluster must have been fed the same inputs.
    let hash = |w: Workload| {
        records
            .iter()
            .find(|r| r.workload == w.name())
            .and_then(|r| r.info.get("pool_hash").cloned())
    };
    if hash(Workload::TallSingle) != hash(Workload::TallCluster) {
        return Err("guard: tall_single and tall_cluster pools hash differently".to_owned());
    }
    if let Some(path) = save {
        let lines: String = records.iter().map(|r| r.to_json() + "\n").collect();
        std::fs::write(path, lines).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    let failed: u64 = records.iter().map(|r| r.failed).sum();
    if failed > 0 || records.iter().any(|r| !r.correct) {
        return Err(format!("{failed} operation(s) failed"));
    }
    Ok(())
}

/// The IQR/median above which `stability` fails. `setup_s` has none:
/// it is one sample per run, and the contract exempts it too.
fn spread_limit(metric: &str) -> f64 {
    match metric {
        "peak_rss_mb" => 0.03,
        "setup_s" => f64::INFINITY,
        _ => 0.10,
    }
}

/// `stability`: N runs per workload; median, quartiles and IQR/median
/// per end-to-end metric. Errors when a spread exceeds its limit.
pub fn stability(
    common: &Common<'_>,
    runs: usize,
    only: Option<Workload>,
    save: Option<&Path>,
) -> Result<(), String> {
    let mut too_wide = Vec::new();
    let mut saved = String::new();
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        let mut records = Vec::new();
        for i in 0..runs {
            let record = run_child(
                &ChildArgs {
                    workload,
                    seed: common.seed,
                    seconds: common.seconds,
                    trace: false,
                    smoke: common.smoke,
                    out: &common.out.join(workload.name()),
                },
                false,
            )?;
            if !record.correct {
                return Err(format!("{} run {i} was not correct", workload.name()));
            }
            eprintln!("{} run {}/{runs} done", workload.name(), i + 1);
            saved.push_str(&(record.to_json() + "\n"));
            records.push(record);
        }
        println!(
            "\n{} — {runs} runs at seed {}",
            workload.name(),
            common.seed
        );
        println!(
            "{:<22} {:>6} {:>12} {:>12} {:>12} {:>11}",
            "metric", "unit", "q1", "median", "q3", "IQR/median"
        );
        let mut row = |name: &str, unit: &str, values: &[f64], gated: bool| {
            let [q1, _, q3] = quartiles(values).unwrap_or([values[0]; 3]);
            let spread = iqr_over_median(values);
            let wide = spread > if gated { spread_limit(name) } else { 0.10 };
            println!(
                "{name:<22} {unit:>6} {q1:>12.4} {:>12.4} {q3:>12.4} {spread:>11.4}{}",
                median(values),
                if wide { "  <-- wide" } else { "" }
            );
            if wide && gated {
                too_wide.push(format!("{}/{name} {spread:.3}", workload.name()));
            }
        };
        for m in spec::end_to_end() {
            let values: Vec<f64> = records.iter().filter_map(|r| r.value(&m.name)).collect();
            row(&m.name, m.unit, &values, true);
        }
        // The client timings are per-layer metrics: shown, not gated.
        println!("-- client timings of the full phases (no bound)");
        for (name, unit, _) in spec::CLIENT_TIMINGS {
            let values: Vec<f64> = records
                .iter()
                .filter_map(|r| r.client_timing(name))
                .collect();
            row(name, unit, &values, false);
        }
    }
    if let Some(path) = save {
        std::fs::write(path, saved).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    if too_wide.is_empty() {
        Ok(())
    } else {
        Err(format!("spread over the limit: {}", too_wide.join(", ")))
    }
}

fn load_records(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| RunRecord::from_json(&Json::parse(l).map_err(|e| e.to_string())?))
        .collect()
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

/// Judge B against A for one metric: regressed when B's median is worse
/// by more than the bound, unresolved when either side's own spread is
/// wider than the bound, improved when B is better by more than both
/// spreads.
pub fn judge(m: &MetricDef, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let bound = m.bound.unwrap_or(f64::INFINITY);
    let (ma, mb) = (median(a), median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse = if m.better == "lower" { change } else { -change };
    let spread = iqr_over_median(a).max(iqr_over_median(b));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > spread && worse < 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (change, verdict)
}

/// `compare A B`: per (workload, end-to-end metric), B against A.
/// Returns whether anything regressed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load_records(a)?, load_records(b)?);
    let values = |records: &[RunRecord], w: &str, name: &str| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.workload == w && !r.trace)
            .filter_map(|r| r.value(name))
            .collect()
    };
    let mut regressed = false;
    println!(
        "{:<14} {:<22} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for w in Workload::ALL {
        for m in spec::end_to_end() {
            let (va, vb) = (values(&a, w.name(), &m.name), values(&b, w.name(), &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (change, verdict) = judge(&m, &va, &vb);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{:<14} {:<22} {:>12.4} {:>12.4} {:>+8.1}% {:>6.0}%  {:?}",
                w.name(),
                m.name,
                median(&va),
                median(&vb),
                100.0 * change,
                100.0 * m.bound.unwrap_or(0.0),
                verdict
            );
        }
    }
    Ok(regressed)
}

/// `spec --check`: the compiled-in names equal `BENCHMARK.json`, and —
/// with `runs` — equal what a run of every workload prints.
pub fn spec_check(file: &Path, runs: Option<&Common<'_>>) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file:?}: {e}"))?;
    spec::check_against(&text)?;
    println!("{file:?} equals the compiled-in spec");
    if let Some(common) = runs {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let record = run_child(
                    &ChildArgs {
                        workload,
                        seed: common.seed,
                        seconds: common.seconds,
                        trace,
                        smoke: common.smoke,
                        out: &common.out.join(workload.name()),
                    },
                    false,
                )?;
                check_names(&record)?;
                println!(
                    "{} (trace {}) prints the spec's {} metrics",
                    workload.name(),
                    u8::from(trace),
                    record.metrics.len()
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricDef {
        MetricDef {
            name: "x_ms".to_owned(),
            unit: "ms",
            better: "lower",
            bound: Some(bound),
        }
    }

    #[test]
    fn judge_sorts_changes_into_the_four_verdicts() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let by = |f: f64| steady.map(|v| v * f);
        assert_eq!(judge(&lower(0.15), &steady, &by(1.3)).1, Verdict::Regressed);
        assert_eq!(
            judge(&lower(0.15), &steady, &by(1.05)).1,
            Verdict::Unchanged
        );
        assert_eq!(judge(&lower(0.15), &steady, &by(0.8)).1, Verdict::Improved);
        let noisy = [10.0, 14.0, 7.0, 12.0, 8.0];
        assert_eq!(judge(&lower(0.15), &noisy, &by(1.3)).1, Verdict::Unresolved);
        // For a higher-is-better metric the same rise is a gain.
        let higher = MetricDef {
            better: "higher",
            ..lower(0.15)
        };
        assert_eq!(judge(&higher, &steady, &by(1.3)).1, Verdict::Improved);
        assert_eq!(judge(&higher, &steady, &by(0.7)).1, Verdict::Regressed);
    }

    #[test]
    fn a_record_round_trips_through_its_json_line() {
        let r = RunRecord {
            workload: "tall_single".to_owned(),
            trace: false,
            seed: 3,
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![("setup_s".to_owned(), 2.5, "s".to_owned())],
            info: BTreeMap::new(),
        };
        let back = RunRecord::from_json(&Json::parse(&r.to_json()).unwrap()).unwrap();
        assert_eq!(back.value("setup_s"), Some(2.5));
        assert_eq!(
            (back.workload.as_str(), back.seed, back.attempted),
            ("tall_single", 3, 12)
        );
    }
}
