//! Integration coverage for the `piom-harness` subcommands: `stats`, the
//! Prometheus-text-shaped counter export, and `bench` and `compare`,
//! which are gone. The file keeps the name it had while it also held the
//! tests of the retired `scenarios` subcommand, so these tests keep theirs.

use std::process::Command;

fn harness() -> Command {
    Command::new(env!("CARGO_BIN_EXE_piom-harness"))
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
