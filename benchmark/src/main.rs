//! Command line of the repo benchmark.
//!
//! ```text
//! piom-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//!     one run, as the driver makes it; the last line of stdout is the
//!     result object, the line before it (`# diag {...}`) the diagnostics.
//! piom-benchmark [--workload <name>] [--seed <u64>] [--seconds <s>]
//!                [--trace] [--repeat <N>] [--out <file>]
//!     the suite: every workload (or the named one) N times, each run in a
//!     fresh process, with a table of min / median / max and spread ÷ bound
//!     per (metric, workload); exits 1 when a spread exceeds its bound.
//! ```

use piom_benchmark::run::{run, RunArgs};
use piom_benchmark::suite::{suite, SuiteArgs};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: piom-benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] \
[--trace [0|1]] [--repeat <N>] [--out <file>] [--trace-out <file>]";

/// Window length when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: None,
        out: None,
        trace_out: None,
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| args.next()) {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds: a number of seconds in (0, 3600]")?;
            }
            // `--trace 0|1` as the driver writes it, or a bare `--trace`.
            "--trace" => match args.next() {
                Some(v) if v == "0" || v == "1" => cli.trace = v == "1",
                other => {
                    cli.trace = true;
                    pending = other;
                }
            },
            "--repeat" => {
                cli.repeat = Some(
                    value("a count")?
                        .parse()
                        .ok()
                        .filter(|n| (1..=1000).contains(n))
                        .ok_or("--repeat: a count from 1 to 1000")?,
                );
            }
            "--out" => cli.out = Some(value("a path")?.into()),
            "--trace-out" => cli.trace_out = Some(value("a path")?.into()),
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (cli.workload, cli.repeat, &cli.out) {
        // One run: what the driver invokes.
        (Some(workload), None, None) => {
            let trace_out = cli
                .trace_out
                .unwrap_or_else(|| format!("benchmark/out/trace-{workload}.json").into());
            run(&RunArgs {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
                trace_out,
            })
            .map(|out| {
                println!("# diag {}", out.diag.render());
                println!("{}", out.result.render());
                out.result.get("correct").and_then(|c| c.as_bool()) == Some(true)
            })
        }
        (workload, repeat, out) => suite(&SuiteArgs {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            repeat: repeat.unwrap_or(1),
            out: out.clone(),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("piom-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
