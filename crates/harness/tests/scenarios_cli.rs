//! Integration coverage for the `piom-harness` subcommands. `scenarios`:
//! the committed `SCENARIOS_pioman.json` must reproduce byte for byte
//! (the exact gate), the CLI must write valid trajectory JSON only where
//! `--out` says, reproduce byte-identically under one seed, diverge under
//! another, and treat an unmatched `--filter` as an error — a typo must
//! never read as an empty-but-green matrix. `stats`: the
//! Prometheus-text-shaped counter export. And `bench` and `compare`,
//! which are gone.

use piom_harness::{scen, schema};
use piom_scenarios::{Scenario, ScenarioParams};
use std::process::Command;

fn harness() -> Command {
    Command::new(env!("CARGO_BIN_EXE_piom-harness"))
}

/// The scenario gate: the full preset at seed 42, rendered in-process,
/// must be byte-equal to the committed file. The matrix is a pure
/// function of (code, params, seed), so there is no tolerance; a red run
/// names every row that moved. If the move is intended, regenerate with
/// `piom-harness scenarios --out SCENARIOS_pioman.json` and say why in
/// CHANGES.md.
#[test]
fn committed_matrix_reproduces_exactly() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../SCENARIOS_pioman.json");
    let committed = std::fs::read_to_string(path).expect("read SCENARIOS_pioman.json");
    let scenarios: Vec<&Scenario> = piom_scenarios::registry().iter().collect();
    let rows: Vec<_> = scen::run_matrix(&scenarios, &ScenarioParams::full(42))
        .iter()
        .map(scen::to_row)
        .collect();
    if let Err(table) = scen::explain_mismatch(&committed, &schema::render_json(&rows)) {
        panic!(
            "{table}\nIf this change is intended, regenerate the file with \
             `piom-harness scenarios --out SCENARIOS_pioman.json` and say why in CHANGES.md."
        );
    }
}

/// Runs `scenarios --quick --out <path> [extra args]` and returns the
/// written JSON.
fn scenarios_json_at(path: &std::path::Path, extra: &[&str]) -> String {
    let out = harness()
        .args(["scenarios", "--quick", "--out"])
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
    schema::validate_json(&json).expect("scenarios --out must write valid JSON");
    let rows = schema::parse_trajectory(&json).expect("and a valid trajectory");
    assert!(rows.len() >= 8, "matrix needs >= 8 scenarios:\n{json}");
    for r in &rows {
        assert!(r.mean_ns > 0.0, "{} mean must be positive", r.name);
        assert_eq!(r.seed, 42, "{}", r.name);
    }
    for name in ["incast_fanin", "retry_storm", "rpc_mesh_steady"] {
        assert!(
            rows.iter().any(|r| r.name == name),
            "missing {name}:\n{json}"
        );
    }

    // The determinism contract, at the file level: same seed ⇒ the same
    // bytes (what lets the committed matrix be gated exactly); a
    // different seed ⇒ different measurements.
    let again = scenarios_json_at(&path, &[]);
    assert_eq!(json, again, "same seed must reproduce byte-identically");
    let reseeded = scenarios_json_at(&path, &["--seed", "7"]);
    assert_ne!(json, reseeded, "a different seed must change the rows");

    std::fs::remove_dir_all(&dir).ok();
}

/// Without `--out` nothing is written: the CLI has no default path, so a
/// quick or filtered run can never overwrite the committed matrix.
#[test]
fn scenarios_without_out_writes_no_file() {
    let dir = std::env::temp_dir().join(format!("piom-scen-noout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = harness()
        .args(["scenarios", "--quick"])
        .current_dir(&dir)
        .output()
        .expect("spawn piom-harness scenarios --quick");
    assert!(out.status.success());
    assert!(
        !dir.join("SCENARIOS_pioman.json").exists(),
        "scenarios without --out wrote a trajectory file"
    );
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
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
fn scenarios_rejects_unknown_flags_and_bad_values() {
    for bad in [
        &["scenarios", "--frobnicate"][..],
        &["scenarios", "--seed", "not-a-number"],
        &["scenarios", "--filter"],
        &["scenarios", "--out"],
        // The deleted noise-budget and default-path flags.
        &["scenarios", "--json"],
        &["scenarios", "--compare", "x"],
        &["scenarios", "--threshold", "5"],
    ] {
        let out = harness()
            .args(bad)
            .output()
            .expect("spawn piom-harness scenarios (bad args)");
        assert_eq!(out.status.code(), Some(2), "args {bad:?} must be rejected");
    }
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
        "\"piom_class_waitlist_released_total\"",
        "\"piom_core_executed_total\"",
        "\"class\": \"bulk\"",
    ] {
        assert!(json.contains(marker), "missing {marker}:\n{json}");
    }

    // Bare `stats` prints the human-readable totals.
    let out = harness()
        .arg("stats")
        .output()
        .expect("spawn piom-harness stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("tasks executed"), "missing totals:\n{text}");

    // Unknown flags are a usage error.
    let out = harness()
        .args(["stats", "--frobnicate"])
        .output()
        .expect("spawn piom-harness stats");
    assert_eq!(out.status.code(), Some(2));
}

/// The `bench` subcommand was deleted with its absolute-ns gate and
/// `compare` with the noise-budget gate: both names now fall through to
/// the experiment table like any other unknown word.
#[test]
fn bench_is_an_unknown_experiment() {
    for gone in ["bench", "compare"] {
        let out = harness()
            .args([gone, "--quick"])
            .output()
            .expect("spawn piom-harness");
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            stderr.contains(&format!("unknown experiment {gone:?}")),
            "{stderr}"
        );
    }
}
