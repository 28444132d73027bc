//! The suite and repeat mode: every workload, N times, each run a fresh
//! process of this same executable (so `peak_rss_mb` is per workload and
//! one workload's heap never warms the next one's), then a table of
//! min / median / max per (metric, workload) and, for the end-to-end
//! metrics, the spread the driver judges — interquartile distance over
//! median — against the metric's bound from `BENCHMARK.json`.

use crate::json::{parse, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Only this workload; all four when `None`.
    pub workload: Option<String>,
    /// Run `i` uses seed `seed + i`.
    pub seed: u64,
    pub seconds: f64,
    /// Also make a traced run per repeat and tabulate the per-layer metrics.
    pub trace: bool,
    pub repeat: usize,
    /// Write every run's result and diagnostics, and the host record, here.
    pub out: Option<PathBuf>,
}

/// First line of `program args...`' stdout, or `unknown`.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// What the numbers depend on besides the code: recorded with every suite.
fn host_record() -> Vec<(&'static str, Value)> {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    vec![
        (
            "cpus",
            Value::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("kernel", Value::Str(kernel)),
        ("rustc", Value::Str(tool_line("rustc", &["-V"]))),
        (
            "git_sha",
            Value::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
    ]
}

/// `bound` of each end-to-end metric, from `BENCHMARK.json` in the working
/// directory.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let doc = parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_owned(), b))
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name/bound".to_owned())
        })
        .collect()
}

/// One child run. Returns `(result, diag)`.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().map(parse);
    let diag = lines
        .next()
        .and_then(|l| l.strip_prefix("# diag "))
        .map(parse);
    match (result, diag) {
        (Some(Ok(result)), Some(Ok(diag))) => Ok((result, diag)),
        _ => Err(format!(
            "{workload} seed {seed} trace {}: {} and no result\n{}",
            u8::from(trace),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )),
    }
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn fmt(v: f64) -> String {
    match v.abs() {
        0.0 => "0".to_owned(),
        a if a >= 1e6 => format!("{v:.0}"),
        a if a >= 100.0 => format!("{v:.1}"),
        a if a >= 1.0 => format!("{v:.3}"),
        _ => format!("{v:.5}"),
    }
}

/// Runs the suite and prints the report. `Ok(false)` when a run was
/// incorrect or an end-to-end spread exceeded its bound.
///
/// # Errors
///
/// A child that produced no result, or a missing / malformed
/// `BENCHMARK.json`.
pub fn suite(args: &SuiteArgs) -> Result<bool, String> {
    let bounds = bounds()?;
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| args.workload.as_deref().is_none_or(|only| only == *name))
        .collect();
    if names.is_empty() {
        return Err(format!(
            "unknown workload `{}`",
            args.workload.as_deref().unwrap_or_default()
        ));
    }
    let host = host_record();
    println!("# Benchmark suite\n");
    for (key, value) in &host {
        println!("- {key}: {}", value.render());
    }
    println!(
        "- seeds: {}..{}, window: {} s, runs per workload: {}\n",
        args.seed,
        args.seed + args.repeat as u64 - 1,
        args.seconds,
        args.repeat
    );

    let mut all_ok = true;
    let mut runs = Vec::new();
    // (trace, workload) -> results in seed order.
    let mut results: BTreeMap<(bool, &str), Vec<Value>> = BTreeMap::new();
    for i in 0..args.repeat as u64 {
        for &workload in &names {
            for trace in [false, true] {
                if trace && !args.trace {
                    continue;
                }
                let (result, diag) = child(workload, args.seed + i, args.seconds, trace)?;
                let correct = result.get("correct").and_then(Value::as_bool) == Some(true);
                if !correct {
                    eprintln!("{workload} seed {} trace {trace}: INCORRECT", args.seed + i);
                    all_ok = false;
                }
                runs.push(Value::obj([("result", result.clone()), ("diag", diag)]));
                results.entry((trace, workload)).or_default().push(result);
            }
        }
    }

    println!("| metric | workload | unit | min | median | max | spread | bound | spread/bound |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for (defs, trace) in [(END_TO_END, false), (PER_LAYER, true)] {
        for def in defs {
            for &workload in &names {
                let Some(rs) = results.get(&(trace, workload)) else {
                    continue;
                };
                let values: Vec<f64> = rs.iter().filter_map(|r| metric(r, def.name)).collect();
                if values.len() != rs.len() {
                    return Err(format!("{workload}: a run did not report {}", def.name));
                }
                let (lo, hi) = values
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                let mid = median(&values);
                // The driver's spread: interquartile distance over median.
                let spread = (values.len() >= 2 && mid != 0.0).then(|| spread(&values).abs());
                let bound = bounds.get(def.name).copied().filter(|_| !trace);
                let mut cells = vec![
                    def.name.to_owned(),
                    workload.to_owned(),
                    def.unit.to_owned(),
                    fmt(lo),
                    fmt(mid),
                    fmt(hi),
                    spread.map_or("-".to_owned(), |s| format!("{:.2} %", 100.0 * s)),
                    bound.map_or("-".to_owned(), |b| format!("{:.0} %", 100.0 * b)),
                ];
                cells.push(match (spread, bound) {
                    (Some(s), Some(b)) => {
                        // `setup_s` is judged on its median only.
                        if s > b && def.name != "setup_s" {
                            all_ok = false;
                            format!("**{:.2}**", s / b)
                        } else {
                            format!("{:.2}", s / b)
                        }
                    }
                    _ => "-".to_owned(),
                });
                println!("| {} |", cells.join(" | "));
            }
        }
    }
    println!(
        "\n{}",
        if all_ok {
            "PASS: every run correct, every end-to-end spread within its bound."
        } else {
            "FAIL: a run was incorrect or an end-to-end spread exceeded its bound."
        }
    );

    if let Some(path) = &args.out {
        let report = Value::obj([
            ("host", Value::obj(host)),
            ("seed", Value::Num(args.seed as f64)),
            ("seconds", Value::Num(args.seconds)),
            ("repeat", Value::Num(args.repeat as f64)),
            ("runs", Value::Arr(runs)),
        ]);
        std::fs::write(path, report.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_ok)
}
