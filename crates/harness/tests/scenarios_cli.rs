//! Integration coverage for the `piom-harness` subcommands. `scenarios`:
//! the workload matrix must emit valid schema-v2 JSON (checked through
//! `schema::validate_json` *and* the trajectory parser), reproduce
//! byte-identically under one seed, diverge under another, gate through
//! `--compare`, and treat an unmatched `--filter` as an error — a typo
//! must never read as an empty-but-green matrix. `compare`: the
//! file-vs-file gate and its exit codes. `stats`: the
//! Prometheus-text-shaped counter export. And `bench`, which is gone.

use std::process::Command;

fn harness() -> Command {
    Command::new(env!("CARGO_BIN_EXE_piom-harness"))
}

/// Runs `scenarios --quick --json --out <path> [extra args]` and returns
/// the written JSON.
fn scenarios_json_at(path: &std::path::Path, extra: &[&str]) -> String {
    let out = harness()
        .args(["scenarios", "--quick", "--json", "--out"])
        .arg(path)
        .args(extra)
        .output()
        .expect("spawn piom-harness scenarios");
    assert!(
        out.status.success(),
        "scenarios exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("SCENARIO MATRIX"),
        "missing text report:\n{stdout}"
    );
    std::fs::read_to_string(path).expect("trajectory written")
}

#[test]
fn scenarios_json_is_valid_schema_v2_and_byte_deterministic() {
    let dir = std::env::temp_dir().join(format!("piom-scen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("SCENARIOS_pioman.json");

    let json = scenarios_json_at(&path, &[]);
    piom_harness::schema::validate_json(&json).expect("scenarios --json must emit valid JSON");
    let parsed = piom_harness::schema::parse_trajectory(&json).expect("and a valid trajectory");
    assert!(parsed.len() >= 8, "matrix needs >= 8 scenarios:\n{json}");
    for (name, entry) in &parsed {
        assert!(!entry.is_v1(), "{name} must carry v2 percentiles");
        assert!(entry.mean_ns > 0.0, "{name} mean must be positive");
    }
    for name in ["incast_fanin", "retry_storm", "rpc_mesh_steady"] {
        assert!(parsed.contains_key(name), "missing {name}:\n{json}");
    }

    // The determinism contract, at the file level: same seed ⇒ the same
    // bytes (this is what lets CI diff against a committed baseline
    // exactly); a different seed ⇒ different measurements.
    let again = scenarios_json_at(&path, &[]);
    assert_eq!(json, again, "same seed must reproduce byte-identically");
    let reseeded = scenarios_json_at(&path, &["--seed", "7"]);
    assert_ne!(json, reseeded, "a different seed must change the rows");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unmatched_filter_exits_nonzero() {
    let out = harness()
        .args(["scenarios", "--quick", "--filter", "no_such_scenario_zzz"])
        .output()
        .expect("spawn piom-harness scenarios --filter");
    assert_eq!(
        out.status.code(),
        Some(2),
        "an unmatched filter must fail, not pass an empty matrix"
    );
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        stderr.contains("matches no scenario") && stderr.contains("incast_fanin"),
        "error must list the known names:\n{stderr}"
    );

    // A matching filter runs exactly the selected subset.
    let out = harness()
        .args(["scenarios", "--quick", "--filter", "fanin"])
        .output()
        .expect("spawn piom-harness scenarios --filter fanin");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("incast_fanin") && stdout.contains("rdma_pull_fanin"));
    assert!(
        !stdout.contains("retry_storm"),
        "filter must exclude non-matching scenarios:\n{stdout}"
    );
}

#[test]
fn scenarios_compare_gates_against_a_baseline() {
    let dir = std::env::temp_dir().join(format!("piom-scen-cmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Record a baseline, then compare a same-seed rerun against it: a
    // deterministic matrix diffed against itself passes at delta zero.
    let baseline = dir.join("base.json");
    scenarios_json_at(&baseline, &[]);
    let out = harness()
        .args(["scenarios", "--quick", "--compare"])
        .arg(&baseline)
        .output()
        .expect("spawn piom-harness scenarios --compare");
    assert!(
        out.status.success(),
        "self-compare must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("gate: PASS"), "missing verdict:\n{stdout}");

    // A baseline claiming a scenario used to be absurdly fast: the rerun
    // regresses past any threshold and exits 1.
    let regressing = dir.join("regressing.json");
    std::fs::write(
        &regressing,
        "{\n  \"rpc_mesh_steady\": { \"mean_ns\": 0.001, \"iters\": 1, \"seed\": 42 }\n}\n",
    )
    .unwrap();
    let out = harness()
        .args(["scenarios", "--quick", "--compare"])
        .arg(&regressing)
        .output()
        .expect("spawn piom-harness scenarios --compare");
    assert_eq!(out.status.code(), Some(1), "regression must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("gate: FAIL"), "missing verdict:\n{stdout}");

    // A corrupt baseline fails fast (exit 2), before any simulating.
    let corrupt = dir.join("corrupt.json");
    std::fs::write(&corrupt, "not json").unwrap();
    let out = harness()
        .args(["scenarios", "--quick", "--compare"])
        .arg(&corrupt)
        .output()
        .expect("spawn piom-harness scenarios --compare corrupt");
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenarios_rejects_unknown_flags_and_bad_values() {
    for bad in [
        &["scenarios", "--frobnicate"][..],
        &["scenarios", "--seed", "not-a-number"],
        &["scenarios", "--filter"],
        &["scenarios", "--threshold", "-3"],
    ] {
        let out = harness()
            .args(bad)
            .output()
            .expect("spawn piom-harness scenarios (bad args)");
        assert_eq!(out.status.code(), Some(2), "args {bad:?} must be rejected");
    }
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
    let out = harness()
        .arg("compare")
        .args([&old, &new])
        .output()
        .expect("spawn piom-harness compare");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("gate: FAIL"), "{stdout}");
    assert!(
        !stdout.contains("SCENARIO MATRIX"),
        "file mode must not run the matrix:\n{stdout}"
    );

    // ...but a looser threshold passes.
    let out = harness()
        .arg("compare")
        .args([&old, &new])
        .args(["--threshold", "100"])
        .output()
        .expect("spawn piom-harness compare");
    assert!(out.status.success());

    // Wrong arity is a usage error.
    let out = harness()
        .arg("compare")
        .arg(&old)
        .output()
        .expect("spawn piom-harness compare");
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_subcommand_exports_prometheus_shaped_json() {
    let out = harness()
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
    let out = harness()
        .arg("stats")
        .output()
        .expect("spawn piom-harness stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("p99="), "missing percentiles:\n{text}");

    // Unknown flags are a usage error.
    let out = harness()
        .args(["stats", "--frobnicate"])
        .output()
        .expect("spawn piom-harness stats");
    assert_eq!(out.status.code(), Some(2));
}

/// The `bench` subcommand was deleted with its absolute-ns gate: the name
/// now falls through to the experiment table like any other unknown word.
#[test]
fn bench_is_an_unknown_experiment() {
    let out = harness()
        .args(["bench", "--quick"])
        .output()
        .expect("spawn piom-harness");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("unknown experiment \"bench\""), "{stderr}");
}
