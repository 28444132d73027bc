//! CLI entry: `piom-harness <experiment>` prints one (or `all`) of the
//! paper's tables/figures regenerated on the simulated testbeds;
//! `piom-harness scenarios [--json] [--quick] [--filter NAME] [--seed N]
//! [--out PATH] [--compare OLD.json [--threshold PCT]]` runs the
//! deterministic workload-scenario matrix (writing the
//! `SCENARIOS_pioman.json` trajectory with `--json`, and gating against a
//! baseline trajectory with `--compare` — exit 1 when any scenario
//! regressed past the threshold); `piom-harness compare OLD NEW` applies
//! the same gate to two already-recorded trajectory files without
//! re-running the matrix; `piom-harness stats [--json]` runs the demo
//! workload with the submit→execute latency histogram armed and prints the
//! counter snapshot (Prometheus-text-shaped JSON with `--json`).

use piom_harness::{compare, scen, schema, snapshot};
use piom_scenarios::{Scenario, ScenarioParams};

fn usage() -> ! {
    eprintln!("usage: piom-harness <experiment>");
    eprintln!("       piom-harness compare OLD.json NEW.json [--threshold PCT]");
    eprintln!("       piom-harness stats [--json]");
    eprintln!(
        "       piom-harness scenarios [--json] [--quick] [--filter NAME] [--seed N] \
         [--out PATH] [--compare OLD.json] [--threshold PCT]"
    );
    eprintln!("experiments: {}", piom_harness::EXPERIMENTS.join(", "));
    std::process::exit(2);
}

/// `piom-harness stats [--json]`: run the demo workload with the latency
/// histogram enabled and print the resulting [`pioman::ManagerStats`].
fn run_stats(args: &[String]) {
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other => {
                eprintln!("unknown stats flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    let stats = snapshot::demo_stats();
    if json {
        print!("{}", snapshot::render_stats_json(&stats));
    } else {
        print!("{}", snapshot::render_stats_text(&stats));
    }
}

/// Reads and parses a trajectory file, exiting 2 on any failure.
fn load_trajectory(path: &str) -> std::collections::BTreeMap<String, schema::BaselineEntry> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {path}: {e}");
        std::process::exit(2);
    });
    schema::parse_trajectory(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse baseline {path}: {e}");
        std::process::exit(2);
    })
}

/// `piom-harness compare OLD NEW [--threshold PCT]`: diff two recorded
/// trajectory files without re-running the matrix (CI gates the numbers
/// its `scenarios --json` step just wrote). Exit 1 when the gate fails.
fn run_compare(args: &[String]) {
    let mut paths = Vec::new();
    let mut threshold_pct = compare::DEFAULT_THRESHOLD_PCT;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => match it.next().and_then(|p| p.parse::<f64>().ok()) {
                Some(pct) if pct >= 0.0 => threshold_pct = pct,
                _ => {
                    eprintln!("--threshold requires a non-negative percentage");
                    std::process::exit(2);
                }
            },
            p if !p.starts_with("--") => paths.push(p.to_owned()),
            other => {
                eprintln!("unknown compare flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!("compare needs exactly two trajectory files (old, new)");
        std::process::exit(2);
    };
    let baseline = load_trajectory(old_path);
    let current = load_trajectory(new_path);
    let report = compare::compare_parsed(&baseline, &current, threshold_pct);
    print!("{}", report.render());
    if !report.gate_passes() {
        std::process::exit(1);
    }
}

/// `piom-harness scenarios [...]`: run the workload-scenario matrix
/// deterministically and (optionally) write/gate the
/// `SCENARIOS_pioman.json` trajectory. An unmatched `--filter` exits 2:
/// a typo must not read as an empty-but-green matrix.
fn run_scenarios(args: &[String]) {
    let mut json = false;
    let mut quick = false;
    let mut seed: u64 = 42;
    let mut filter: Option<String> = None;
    let mut out_path = String::from("SCENARIOS_pioman.json");
    let mut baseline_path: Option<String> = None;
    let mut threshold_pct = compare::DEFAULT_THRESHOLD_PCT;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--quick" => quick = true,
            "--seed" => match it.next().and_then(|p| p.parse::<u64>().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed requires an unsigned integer");
                    std::process::exit(2);
                }
            },
            "--filter" => match it.next() {
                Some(f) => filter = Some(f.clone()),
                None => {
                    eprintln!("--filter requires a (sub)string to match scenario names");
                    std::process::exit(2);
                }
            },
            "--out" => match it.next() {
                Some(p) => {
                    out_path = p.clone();
                    // Naming an output file is asking for the file.
                    json = true;
                }
                None => {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
            },
            "--compare" => match it.next() {
                Some(p) => baseline_path = Some(p.clone()),
                None => {
                    eprintln!("--compare requires a baseline JSON path");
                    std::process::exit(2);
                }
            },
            "--threshold" => match it.next().and_then(|p| p.parse::<f64>().ok()) {
                Some(pct) if pct >= 0.0 => threshold_pct = pct,
                _ => {
                    eprintln!("--threshold requires a non-negative percentage");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown scenarios flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    let selected: Vec<&Scenario> = match &filter {
        Some(f) => {
            let hits = piom_scenarios::matching(f);
            if hits.is_empty() {
                eprintln!(
                    "--filter {f:?} matches no scenario; known: {}",
                    piom_scenarios::registry()
                        .iter()
                        .map(|s| s.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(2);
            }
            hits
        }
        None => piom_scenarios::registry().iter().collect(),
    };
    // Read the baseline before running, so a bad path fails immediately.
    let baseline = baseline_path.map(|path| load_trajectory(&path));
    let params = if quick {
        ScenarioParams::quick(seed)
    } else {
        ScenarioParams::full(seed)
    };
    let reports = scen::run_matrix(&selected, &params);
    print!("{}", scen::render_text(&selected, &reports));
    let results: Vec<_> = reports.iter().map(scen::to_bench_result).collect();
    if json {
        if let Err(e) = std::fs::write(&out_path, schema::render_json(&results)) {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {out_path}");
    }
    if let Some(baseline) = baseline {
        let report = compare::compare(&baseline, &results, threshold_pct);
        print!("{}", report.render());
        if !report.gate_passes() {
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if args[0] == "compare" {
        run_compare(&args[1..]);
        return;
    }
    if args[0] == "stats" {
        run_stats(&args[1..]);
        return;
    }
    if args[0] == "scenarios" {
        run_scenarios(&args[1..]);
        return;
    }
    for what in &args {
        match piom_harness::run(what) {
            Some(report) => println!("{report}"),
            None => {
                eprintln!(
                    "unknown experiment {what:?}; known: {}",
                    piom_harness::EXPERIMENTS.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
}
