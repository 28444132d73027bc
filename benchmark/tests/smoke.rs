//! Smoke test of the contract: every workload, traced and untraced, at a
//! 200 ms window, through the real command line.

use piom_benchmark::json::{parse, Value};
use piom_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use piom_benchmark::workloads::WORKLOADS;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Mutex;

/// Two-thread workloads on a two-CPU host: one benchmark process at a time,
/// however many test threads the harness starts.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn bench(args: &[&str]) -> Output {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    Command::new(env!("CARGO_BIN_EXE_piom-benchmark"))
        .args(args)
        .output()
        .expect("spawn the benchmark")
}

/// One run as the driver makes it; returns the parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let trace_out =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("trace-{workload}-{seed}.json"));
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "0.2",
        "--trace",
        if trace { "1" } else { "0" },
        "--trace-out",
        trace_out.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let result = parse(stdout.lines().last().expect("a last line")).expect("a JSON result");
    if trace {
        let text = std::fs::read_to_string(&trace_out).expect("the trace was written");
        let doc = parse(&text).expect("the trace is JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr);
        assert!(
            events.is_some_and(|e| !e.is_empty()),
            "{workload}: no spans"
        );
    }
    result
}

fn value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no metric `{name}`"))
}

/// The result object has exactly the contract's keys and exactly `defs`.
fn assert_shape(workload: &str, result: &Value, defs: &[MetricDef]) {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, expected, "{workload}");
    for (def, (_, metric)) in defs.iter().zip(metrics) {
        assert_eq!(metric.get("unit").and_then(Value::as_str), Some(def.unit));
        assert!(metric.get("value").and_then(Value::as_f64).is_some());
    }
}

#[test]
fn every_workload_emits_every_metric_and_fails_nothing() {
    for (workload, _) in WORKLOADS {
        let untraced = run(workload, 7, false);
        assert_shape(workload, &untraced, END_TO_END);
        for def in END_TO_END {
            assert!(value(&untraced, def.name) > 0.0, "{workload} {}", def.name);
        }
        let traced = run(workload, 7, true);
        assert_shape(workload, &traced, PER_LAYER);
        assert_eq!(value(&traced, "newmad.payload_bytes_copied"), 0.0);
        // The probes run whatever the workload; its own counters are live
        // only where the workload reaches the layer.
        for name in [
            "pioman.spawn_ns.core",
            "pioman.schedule_hit_ns.global",
            "pioman.steal_ns_per_task",
            "pioman.queue_wait_ns",
            "pioman.complete_notice_ns",
            "newmad.isend_ns.rndv1m",
            "des.step_ns",
            "bytes.rope_chain_split_ns",
            "trace.clock_pair_ns",
            "tail.p99_ns",
        ] {
            assert!(value(&traced, name) > 0.0, "{workload} {name}");
        }
        // Strict class priority shows in the probe's single-thread drain.
        let waits = ["urgent", "interactive", "bulk", "background"]
            .map(|class| value(&traced, &format!("pioman.class_wait_p50_ns.{class}")));
        assert!(waits.is_sorted() && waits[0] > 0.0, "{workload} {waits:?}");
        let runs_pioman = value(&traced, "pioman.runs_per_op") > 0.0;
        let runs_newmad = value(&traced, "newmad.packets_per_msg") > 0.0;
        assert_eq!(runs_pioman, workload != "engine_stream", "{workload}");
        assert_eq!(runs_newmad, workload == "engine_stream", "{workload}");
        match workload {
            "poll_loopback" => {
                assert_eq!(value(&traced, "pioman.worker_share").round(), 1.0);
                assert!(value(&traced, "pioman.runs_per_op") > 2.0);
            }
            "burst_mixed" => {
                assert_eq!(value(&traced, "pioman.waitlist_released_per_ktask"), 62.5);
                assert!(value(&traced, "pioman.spill_per_ktask") > 0.0);
            }
            _ => {}
        }
    }
}

#[test]
fn simulated_counters_repeat_exactly_per_seed_and_follow_the_seed() {
    const EXACT: [&str; 6] = [
        "newmad.sim_checksum",
        "des.events_per_msg",
        "newmad.packets_per_msg",
        "newmad.aggregation_ratio",
        "newmad.chunks_per_rndv",
        "newmad.pipeline_stalls_per_msg",
    ];
    let exact = |seed| {
        let result = run("engine_stream", seed, true);
        EXACT.map(|name| value(&result, name))
    };
    let (first, again, other) = (exact(11), exact(11), exact(12));
    assert_eq!(first, again, "same seed, same simulation");
    // The seed only reorders the sizes inside a round, so the counts that
    // depend on order move and the totals per round need not.
    assert_ne!(first[0], other[0], "the checksum follows the message order");
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "0.2",
            "--trace",
            "0",
        ][..],
        &["--workload", "inline_roundtrip", "--seconds", "-1"][..],
        &["--frobnicate"][..],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// `BENCHMARK.json` and the code list the same workloads and metrics.
#[test]
fn benchmark_json_matches_the_vocabulary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let field = |entry: &Value, key: &str| {
        entry
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("entry without `{key}`"))
            .to_owned()
    };
    let listed = |key: &str| doc.get(key).and_then(Value::as_arr).expect(key).to_vec();

    let workloads: Vec<(String, String)> = listed("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let expected: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(name, why)| ((*name).to_owned(), (*why).to_owned()))
        .collect();
    assert_eq!(workloads, expected);
    assert!(workloads.iter().all(|(_, why)| why.chars().count() <= 200));

    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let got: Vec<[String; 3]> = listed(key)
            .iter()
            .map(|m| [field(m, "name"), field(m, "unit"), field(m, "better")])
            .collect();
        let want: Vec<[String; 3]> = defs
            .iter()
            .map(|d| [d.name.to_owned(), d.unit.to_owned(), d.better.to_owned()])
            .collect();
        assert_eq!(got, want, "{key}");
    }
    for metric in listed("end_to_end") {
        let bound = metric.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", field(&metric, "name"));
    }
    assert!(PER_LAYER.len() <= 128 && END_TO_END.iter().any(|d| d.name == "setup_s"));
}
