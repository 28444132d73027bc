//! One run of one workload — what the driver invokes.
//!
//! `--trace 0`: set up several times (their lower quartile is `setup_s`),
//! measure one untraced window, report the end-to-end metrics. `--trace 1`:
//! set up once, measure an untraced reference window and a traced one, run
//! the per-layer probes, report every per-layer metric. End-to-end numbers
//! never come from a traced run.

use crate::json::Value;
use crate::layers;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOAD_COUNTERS};
use crate::stats::{low_quantile, WindowReport};
use crate::trace::{analyse, chrome_json, Analysis, Tracer};
use crate::workloads::burst_mixed::BurstMixed;
use crate::workloads::engine_stream::EngineStream;
use crate::workloads::inline_roundtrip::InlineRoundtrip;
use crate::workloads::poll_loopback::PollLoopback;
use crate::workloads::{span, Verdict, Workload, WORKLOADS};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per untraced run: some before the window (the last of them is
/// the instance measured), the rest after it — as many as fit in
/// `SETUP_SPAN`, at most `SETUPS_AFTER`. Spread out like this they do not
/// all fall into the same busy second of the host (see `stats::Window`);
/// `setup_s` is their lower quartile, for the reason the window reports a
/// low quantile of its segments.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 12;
const SETUP_SPAN: Duration = Duration::from_secs(2);
/// Span slots per recording thread. The tracer stops recording when they
/// are used up; the window goes on and the analysis covers the requests
/// that fit.
const SPAN_CAP: usize = 1 << 19;
/// Spans written to the Chrome trace file (the analysis uses all of them).
const TRACE_FILE_SPANS: usize = 50_000;
/// A timed region that parks more often than this per 1 000 ops was
/// measuring the host's futex, not the program.
const MAX_PARKS_PER_KOP: f64 = 10.0;
/// Least share of a request its child spans must cover, on the workloads
/// where every call is made by the client thread.
const MIN_COVERAGE_PCT: f64 = 85.0;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its Chrome trace.
    pub trace_out: PathBuf,
}

/// What a run prints: the contract's result object, and a diagnostics
/// object (tails, sample counts, span summary) printed on the line before.
pub struct RunOutput {
    pub result: Value,
    pub diag: Value,
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload, too few CPUs for the load model, or a timed region
/// that slept: conditions under which publishing a number would mislead.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    if cpus < 2 {
        return Err(format!(
            "refusing to run on {cpus} CPU: the load model needs the client and one worker runnable at once"
        ));
    }
    match args.workload.as_str() {
        "inline_roundtrip" => run_workload::<InlineRoundtrip>(args, cpus, true),
        "poll_loopback" => run_workload::<PollLoopback>(args, cpus, false),
        "burst_mixed" => run_workload::<BurstMixed>(args, cpus, false),
        "engine_stream" => run_workload::<EngineStream>(args, cpus, true),
        other => Err(format!(
            "unknown workload `{other}`; known: {}",
            WORKLOADS.map(|(name, _)| name).join(", ")
        )),
    }
}

/// The `metrics` object: one entry per definition, in order. The last
/// value given for a name wins.
///
/// # Panics
///
/// Panics when a value is missing or not in the vocabulary: either is a bug
/// in the benchmark, and a made-up 0 would hide it.
fn metric_values(defs: &[MetricDef], values: &[(&'static str, f64)]) -> Value {
    for (name, _) in values {
        assert!(
            defs.iter().any(|d| d.name == *name),
            "metric `{name}` is not in the vocabulary"
        );
    }
    Value::obj(defs.iter().map(|d| {
        let (_, value) = values
            .iter()
            .rev()
            .find(|(name, _)| *name == d.name)
            .unwrap_or_else(|| panic!("no value for metric `{}`", d.name));
        (
            d.name,
            Value::obj([
                ("value", Value::Num(*value)),
                ("unit", Value::Str(d.unit.to_owned())),
            ]),
        )
    }))
}

fn window_diag(w: &WindowReport) -> Value {
    Value::obj([
        ("latency_p50_ns", Value::Num(w.latency_p50_ns)),
        ("throughput_ops_s", Value::Num(w.throughput_ops_s)),
        ("latency_all_ns", Value::Num(w.latency_all_ns)),
        ("throughput_all_ops_s", Value::Num(w.throughput_all_ops_s)),
        ("tail.p99_ns", Value::Num(w.p99_ns)),
        ("tail.p999_ns", Value::Num(w.p999_ns)),
        ("samples", Value::Num(w.samples as f64)),
        ("requests", Value::Num(w.requests as f64)),
        ("ops", Value::Num(w.ops as f64)),
        ("wall_s", Value::Num(w.wall_s)),
    ])
}

fn check_parks(counters: &[(&'static str, f64)]) -> Result<(), String> {
    match counters.iter().find(|(n, _)| *n == "pioman.parks_per_kop") {
        Some((_, parks)) if *parks > MAX_PARKS_PER_KOP => Err(format!(
            "the timed region slept: {parks:.1} parks per 1000 ops (limit {MAX_PARKS_PER_KOP}); \
             the host is too busy for this run to mean anything"
        )),
        _ => Ok(()),
    }
}

type Diag = Vec<(&'static str, Value)>;

fn run_workload<W: Workload>(
    args: &RunArgs,
    cpus: usize,
    client_only: bool,
) -> Result<RunOutput, String> {
    let mut diag: Diag = vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("cpus", Value::Num(cpus as f64)),
    ];
    let (verdict, metrics) = if args.trace {
        traced::<W>(args, client_only, &mut diag)?
    } else {
        untraced::<W>(args, &mut diag)?
    };
    Ok(RunOutput {
        result: Value::obj([
            ("correct", Value::Bool(verdict.correct)),
            ("attempted", Value::Num(verdict.attempted as f64)),
            ("failed", Value::Num(verdict.failed as f64)),
            ("metrics", metrics),
        ]),
        diag: Value::obj(diag),
    })
}

fn untraced<W: Workload>(args: &RunArgs, diag: &mut Diag) -> Result<(Verdict, Value), String> {
    let mut setups = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut timed_setup = || {
        let t = Instant::now();
        let workload = W::setup(args.seed);
        setups.push(t.elapsed().as_secs_f64());
        workload
    };
    // Requests of the discarded set-ups count like any other; one instance
    // is alive at a time.
    let mut verdict = Verdict {
        attempted: 0,
        failed: 0,
        correct: true,
    };
    for _ in 1..SETUPS_BEFORE {
        verdict = verdict.and(timed_setup().verdict());
    }
    let mut workload = timed_setup();
    let outcome = workload.measure(args.seconds, None);
    verdict = verdict.and(workload.verdict());
    drop(workload);
    let peak_rss = peak_rss_mib()?;
    let after = Instant::now();
    for _ in 0..SETUPS_AFTER {
        if after.elapsed() > SETUP_SPAN {
            break;
        }
        verdict = verdict.and(timed_setup().verdict());
    }
    check_parks(&outcome.counters)?;
    let values = [
        ("latency_p50_ns", outcome.window.latency_p50_ns),
        ("throughput_ops_s", outcome.window.throughput_ops_s),
        ("peak_rss_mb", peak_rss),
        ("setup_s", low_quantile(&setups, 0.25)),
    ];
    diag.push(("window", window_diag(&outcome.window)));
    diag.push((
        "setup_runs_s",
        Value::Arr(setups.into_iter().map(Value::Num).collect()),
    ));
    diag.push((
        "counters",
        Value::obj(outcome.counters.iter().map(|(n, v)| (*n, Value::Num(*v)))),
    ));
    Ok((verdict, metric_values(END_TO_END, &values)))
}

fn traced<W: Workload>(
    args: &RunArgs,
    client_only: bool,
    diag: &mut Diag,
) -> Result<(Verdict, Value), String> {
    let mut workload = W::setup(args.seed);
    let share = args.seconds * 0.3;
    let reference = workload.measure(share, None);
    let tracer: &'static Tracer = Box::leak(Box::new(Tracer::new(span::NAMES, SPAN_CAP)));
    let traced = workload.measure(share, Some(tracer));
    let mut verdict = workload.verdict();
    drop(workload); // joins the worker: every span is now readable
    check_parks(&traced.counters)?;

    let spans = tracer.spans();
    let analysis = analyse(&spans, span::NAMES[span::REQUEST]);
    if client_only && analysis.coverage_pct < MIN_COVERAGE_PCT {
        eprintln!(
            "child spans cover {:.1} % of the request, below {MIN_COVERAGE_PCT} %",
            analysis.coverage_pct
        );
        verdict.correct = false;
    }
    if let Some(dir) = args.trace_out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&args.trace_out, chrome_json(&spans, TRACE_FILE_SPANS))
        .map_err(|e| format!("{}: {e}", args.trace_out.display()))?;

    // A counter of a layer the workload bypasses reads 0.
    let mut values: Vec<_> = WORKLOAD_COUNTERS.iter().map(|name| (*name, 0.0)).collect();
    values.extend(layers::run_all(
        Duration::from_secs_f64((args.seconds * 0.008).max(0.002)),
        Duration::from_secs_f64((args.seconds * 0.05).clamp(0.05, 2.0)),
    ));
    values.extend(traced.counters.iter().copied());
    let (on, off) = (
        traced.window.latency_p50_ns,
        reference.window.latency_p50_ns,
    );
    values.push(("trace.overhead_pct", 100.0 * (on - off) / off));
    values.push(("trace.coverage_pct", analysis.coverage_pct));
    values.push(("tail.p99_ns", reference.window.p99_ns));
    values.push(("tail.p999_ns", reference.window.p999_ns));
    diag.push(("window", window_diag(&reference.window)));
    diag.push(("traced_window", window_diag(&traced.window)));
    diag.push((
        "spans",
        spans_diag(&analysis, spans.len(), tracer.dropped()),
    ));
    diag.push((
        "trace_file",
        Value::Str(args.trace_out.display().to_string()),
    ));
    Ok((verdict, metric_values(PER_LAYER, &values)))
}

/// Per-layer self time: each span name's count, total, self time (span
/// minus what its direct children cover) and median duration.
fn spans_diag(analysis: &Analysis, recorded: usize, dropped: u64) -> Value {
    Value::obj([
        ("recorded", Value::Num(recorded as f64)),
        ("dropped", Value::Num(dropped as f64)),
        ("requests", Value::Num(analysis.roots as f64)),
        (
            "by_name",
            Value::Arr(
                analysis
                    .by_name
                    .iter()
                    .map(|n| {
                        Value::obj([
                            ("name", Value::Str(n.name.to_owned())),
                            ("count", Value::Num(n.count as f64)),
                            ("total_ns", Value::Num(n.total_ns as f64)),
                            ("self_ns", Value::Num(n.self_ns as f64)),
                            ("p50_ns", Value::Num(n.p50_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}
