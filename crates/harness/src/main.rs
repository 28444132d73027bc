//! CLI entry: `piom-harness <experiment>` prints one (or `all`) of the
//! paper's tables/figures regenerated on the simulated testbeds;
//! `piom-harness scenarios [--quick] [--filter NAME] [--seed N] [--out
//! PATH]` runs the deterministic workload-scenario matrix and prints its
//! table, writing the trajectory JSON to `PATH` when asked (the committed
//! `SCENARIOS_pioman.json` is gated by the tier-1 test
//! `committed_matrix_reproduces_exactly`, not by this binary);
//! `piom-harness stats [--json]` runs the demo workload and prints the
//! counter snapshot (Prometheus-text-shaped JSON with `--json`).

use piom_harness::{scen, schema, snapshot};
use piom_scenarios::{Scenario, ScenarioParams};

fn usage() -> ! {
    eprintln!("usage: piom-harness <experiment>");
    eprintln!("       piom-harness stats [--json]");
    eprintln!("       piom-harness scenarios [--quick] [--filter NAME] [--seed N] [--out PATH]");
    eprintln!("experiments: {}", piom_harness::EXPERIMENTS.join(", "));
    std::process::exit(2);
}

/// `piom-harness stats [--json]`: run the demo workload and print the
/// resulting [`pioman::ManagerStats`].
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

/// `piom-harness scenarios [...]`: run the workload-scenario matrix
/// deterministically, print its table, and write the trajectory to
/// `--out PATH` if given (there is no default path). An unmatched
/// `--filter` exits 2: a typo must not read as an empty-but-green matrix.
fn run_scenarios(args: &[String]) {
    let mut quick = false;
    let mut seed: u64 = 42;
    let mut filter: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
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
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("--out requires a path");
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
    let params = if quick {
        ScenarioParams::quick(seed)
    } else {
        ScenarioParams::full(seed)
    };
    let reports = scen::run_matrix(&selected, &params);
    print!("{}", scen::render_text(&selected, &reports));
    if let Some(path) = out_path {
        let rows: Vec<_> = reports.iter().map(scen::to_row).collect();
        if let Err(e) = std::fs::write(&path, schema::render_json(&rows)) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
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
