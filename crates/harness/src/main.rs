//! CLI entry: `piom-harness <experiment>` prints one (or `all`) of the
//! paper's tables/figures regenerated on the simulated testbeds (the
//! bytes of `all` are committed as `FIGURES_pioman.txt`).

fn usage() -> ! {
    eprintln!("usage: piom-harness <experiment>");
    eprintln!("experiments: {}", piom_harness::EXPERIMENTS.join(", "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
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
