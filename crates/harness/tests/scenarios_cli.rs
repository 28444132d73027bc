//! Integration coverage for the `piom-harness` subcommands that are gone:
//! `bench`, `compare` and `stats`. The file keeps the name it had while it
//! also held the tests of the retired `scenarios` subcommand, so its test
//! keeps its name.

use std::process::Command;

fn harness() -> Command {
    Command::new(env!("CARGO_BIN_EXE_piom-harness"))
}

/// The `bench` subcommand was deleted with its absolute-ns gate,
/// `compare` with the noise-budget gate and `stats` with its demo counter
/// export: every such name now falls through to the experiment table like
/// any other unknown word.
#[test]
fn bench_is_an_unknown_experiment() {
    for gone in ["bench", "compare", "stats"] {
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
