//! Integration coverage for `piom-harness bench --json`: the binary must
//! emit a well-formed `BENCH_pioman.json` whose schema v2 (benchmark name
//! → mean_ns/p50_ns/p99_ns/p999_ns/iters/seed) is stable across runs, and
//! `--compare` / `compare` must gate it — and for `piom-harness stats`,
//! the Prometheus-text-shaped counter export.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

/// The suite is slow in a debug build, so this file runs it exactly twice:
/// once here — the recorded `bench --json --quick --out` run every schema
/// check shares — and once under `--compare` in
/// [`bench_compare_gates_on_regression`]. Returns the written file's path
/// and contents.
fn recorded_run() -> &'static (PathBuf, String) {
    static RUN: OnceLock<(PathBuf, String)> = OnceLock::new();
    RUN.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("piom-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_pioman.json");
        let out = Command::new(env!("CARGO_BIN_EXE_piom-harness"))
            .args(["bench", "--json", "--quick", "--out"])
            .arg(&path)
            .output()
            .expect("spawn piom-harness bench");
        assert!(
            out.status.success(),
            "bench exited {:?}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("BENCH"), "missing text report:\n{stdout}");
        let json = std::fs::read_to_string(&path).expect("BENCH_pioman.json written");
        (path, json)
    })
}

#[test]
fn bench_binary_writes_trajectory_json() {
    let (_, json) = recorded_run();
    // Schema v2: one entry per benchmark, each carrying the mean, the
    // three percentiles, and the run parameters.
    let entries = json.matches("mean_ns").count();
    assert!(entries >= 4, "trajectory needs >= 4 benchmarks:\n{json}");
    for key in [
        "\"p50_ns\"",
        "\"p99_ns\"",
        "\"p999_ns\"",
        "\"iters\"",
        "\"seed\"",
    ] {
        assert_eq!(
            json.matches(key).count(),
            entries,
            "every row carries {key}:\n{json}"
        );
    }
    for name in [
        "submit_schedule_percore",
        "schedule_batch_drain_64",
        "steal_starved_core",
        "contended_global_queue",
    ] {
        assert!(
            json.contains(&format!("\"{name}\"")),
            "missing {name}:\n{json}"
        );
    }
    assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    assert!(
        !json.contains(",\n}"),
        "trailing comma before closing brace"
    );
}

#[test]
fn bench_compare_gates_on_regression() {
    let dir = std::env::temp_dir().join(format!("piom-compare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // A corrupt baseline fails fast (exit 2), before any measuring.
    let corrupt = dir.join("corrupt.json");
    std::fs::write(&corrupt, "not json at all").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_piom-harness"))
        .args(["bench", "--quick", "--compare"])
        .arg(&corrupt)
        .output()
        .expect("spawn piom-harness bench --compare");
    assert_eq!(out.status.code(), Some(2));

    // The second (and last) suite run, measured against a baseline
    // claiming everything was absurdly slow: every known scenario
    // improves, unknown ones are new — gate passes, exit 0. (`removed`
    // covers the baseline-only scenario: reported, not fatal.)
    let permissive = dir.join("permissive.json");
    std::fs::write(
        &permissive,
        "{\n  \"submit_schedule_percore\": { \"mean_ns\": 9e12, \"iters\": 1, \"seed\": 42 },\n  \
           \"long_gone_scenario\": { \"mean_ns\": 1.0, \"iters\": 1, \"seed\": 42 }\n}\n",
    )
    .unwrap();
    let second = dir.join("second.json");
    let out = Command::new(env!("CARGO_BIN_EXE_piom-harness"))
        .args(["bench", "--quick", "--compare"])
        .arg(&permissive)
        .arg("--out")
        .arg(&second)
        .output()
        .expect("spawn piom-harness bench --compare");
    assert!(
        out.status.success(),
        "improvements+new must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("gate: PASS"), "missing verdict:\n{stdout}");
    assert!(
        stdout.contains("long_gone_scenario"),
        "removed scenario must be reported:\n{stdout}"
    );
    // The baseline above is schema v1 (no percentiles): the report must
    // say so and fall back to the mean-only gate rather than failing.
    assert!(
        stdout.contains("predate schema v2"),
        "v1 baseline must be flagged:\n{stdout}"
    );

    // The schema is deterministic: the two runs wrote the same key lines
    // modulo the measured numbers.
    let (recorded_path, recorded) = recorded_run();
    let keys = |s: &str| {
        s.lines()
            .filter_map(|l| l.split('"').nth(1).map(str::to_owned))
            .collect::<Vec<_>>()
    };
    let again = std::fs::read_to_string(&second).expect("--out written alongside --compare");
    assert_eq!(keys(recorded), keys(&again));

    // A baseline claiming one scenario used to be absurdly fast: the
    // recorded run regresses past any threshold and the gate exits 1 —
    // judged file against file, no third suite run.
    let regressing = dir.join("regressing.json");
    std::fs::write(
        &regressing,
        "{\n  \"submit_schedule_percore\": { \"mean_ns\": 0.001, \"iters\": 1, \"seed\": 42 }\n}\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_piom-harness"))
        .arg("compare")
        .args([&regressing, recorded_path])
        .output()
        .expect("spawn piom-harness compare");
    assert_eq!(out.status.code(), Some(1), "regression must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("gate: FAIL"), "missing verdict:\n{stdout}");
    assert!(stdout.contains("REGRESSION"), "missing marker:\n{stdout}");

    // This test is the recorded file's last reader (the schema checks use
    // the in-memory copy).
    std::fs::remove_dir_all(recorded_path.parent().unwrap()).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_subcommand_diffs_two_files_without_benching() {
    let dir = std::env::temp_dir().join(format!("piom-cmpfiles-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(
        &old,
        "{\n  \"a\": { \"mean_ns\": 100.0, \"iters\": 1, \"seed\": 42 },\n  \
           \"b\": { \"mean_ns\": 100.0, \"iters\": 1, \"seed\": 42 }\n}\n",
    )
    .unwrap();
    std::fs::write(
        &new,
        "{\n  \"a\": { \"mean_ns\": 90.0, \"iters\": 1, \"seed\": 42 },\n  \
           \"b\": { \"mean_ns\": 180.0, \"iters\": 1, \"seed\": 42 }\n}\n",
    )
    .unwrap();

    // b regressed +80%: default gate fails...
    let out = Command::new(env!("CARGO_BIN_EXE_piom-harness"))
        .arg("compare")
        .args([&old, &new])
        .output()
        .expect("spawn piom-harness compare");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("gate: FAIL"), "{stdout}");
    assert!(
        !stdout.contains("BENCH —"),
        "file mode must not run the suite:\n{stdout}"
    );

    // ...but a looser threshold passes.
    let out = Command::new(env!("CARGO_BIN_EXE_piom-harness"))
        .arg("compare")
        .args([&old, &new])
        .args(["--threshold", "100"])
        .output()
        .expect("spawn piom-harness compare");
    assert!(out.status.success());

    // Wrong arity is a usage error.
    let out = Command::new(env!("CARGO_BIN_EXE_piom-harness"))
        .arg("compare")
        .arg(&old)
        .output()
        .expect("spawn piom-harness compare");
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_subcommand_exports_prometheus_shaped_json() {
    let out = Command::new(env!("CARGO_BIN_EXE_piom-harness"))
        .args(["stats", "--json"])
        .output()
        .expect("spawn piom-harness stats --json");
    assert!(
        out.status.success(),
        "stats exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8(out.stdout).unwrap();
    piom_harness::schema::validate_json(&json).expect("stats --json must emit valid JSON");
    for marker in [
        "\"piom_task_latency_ns\": { \"type\": \"histogram\"",
        "\"le\": \"+Inf\"",
        "\"piom_core_executed_total\"",
        "\"hook\": \"timer\"",
    ] {
        assert!(json.contains(marker), "missing {marker}:\n{json}");
    }

    // Bare `stats` prints the human-readable summary with percentiles.
    let out = Command::new(env!("CARGO_BIN_EXE_piom-harness"))
        .arg("stats")
        .output()
        .expect("spawn piom-harness stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("p99="), "missing percentiles:\n{text}");

    // Unknown flags are a usage error.
    let out = Command::new(env!("CARGO_BIN_EXE_piom-harness"))
        .args(["stats", "--frobnicate"])
        .output()
        .expect("spawn piom-harness stats");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bench_rejects_unknown_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_piom-harness"))
        .args(["bench", "--frobnicate"])
        .output()
        .expect("spawn piom-harness bench");
    assert_eq!(out.status.code(), Some(2));
}
