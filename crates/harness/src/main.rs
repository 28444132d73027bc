//! CLI entry: `piom-harness <experiment>` prints one (or `all`) of the
//! paper's tables/figures regenerated on the simulated testbeds (the
//! bytes of `all` are committed as `FIGURES_pioman.txt`);
//! `piom-harness stats [--json]` runs the demo workload and prints the
//! counter snapshot (Prometheus-text-shaped JSON with `--json`).

use piom_harness::snapshot;

fn usage() -> ! {
    eprintln!("usage: piom-harness <experiment>");
    eprintln!("       piom-harness stats [--json]");
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if args[0] == "stats" {
        run_stats(&args[1..]);
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
