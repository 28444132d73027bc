//! Integration coverage for the `piom-harness` entry points: every
//! table/figure regenerator must return a non-empty, well-formed report,
//! together they must reproduce the committed `FIGURES_pioman.txt` byte
//! for byte, and the binary must behave sanely on good and bad arguments.

use std::process::Command;
use std::sync::OnceLock;

/// Every individual experiment name (everything `run` accepts except the
/// `all` aggregate, which is checked separately).
fn individual_experiments() -> Vec<&'static str> {
    piom_harness::EXPERIMENTS
        .iter()
        .copied()
        .filter(|&e| e != "all")
        .collect()
}

/// The report for `name`. Every individual report is regenerated once and
/// shared by the tests below: each regenerator is seconds of DES in a
/// debug build.
fn report(name: &str) -> &'static str {
    static REPORTS: OnceLock<Vec<(&str, Option<String>)>> = OnceLock::new();
    REPORTS
        .get_or_init(|| {
            individual_experiments()
                .into_iter()
                .map(|name| (name, piom_harness::run(name)))
                .collect()
        })
        .iter()
        .find(|(n, _)| *n == name)
        .and_then(|(_, r)| r.as_deref())
        .unwrap_or_else(|| panic!("EXPERIMENTS lists {name:?} but run() rejects it"))
}

#[test]
fn every_experiment_returns_a_nonempty_report() {
    for name in individual_experiments() {
        let report = report(name);
        assert!(
            report.trim().len() > 40,
            "report for {name:?} suspiciously short: {report:?}"
        );
        assert!(
            report.lines().count() >= 2,
            "report for {name:?} should have a title plus data lines"
        );
    }
}

#[test]
fn reports_carry_their_paper_labels() {
    for (name, expected) in [
        ("table1", "TABLE I"),
        ("table2", "TABLE II"),
        ("fig1", "FIG. 1"),
        ("fig2", "FIG. 2"),
        ("fig4", "FIG. 4"),
        ("fig5", "FIG. 5"),
        ("fig6", "FIG. 6"),
        ("fig7", "FIG. 7"),
        ("ablation-hierarchy", "ABLATION"),
    ] {
        let report = report(name);
        assert!(
            report.contains(expected),
            "report for {name:?} is missing its {expected:?} heading"
        );
    }
}

#[test]
fn figure_reports_contain_numeric_data() {
    // Each figure is a table of numbers; a report of headings only would be
    // well-formed-looking but empty. Require at least one fractional value.
    for name in ["fig4", "fig5", "fig6", "fig7"] {
        let report = report(name);
        let numeric_lines = report
            .lines()
            .filter(|l| l.split_whitespace().any(|w| w.parse::<f64>().is_ok()))
            .count();
        assert!(
            numeric_lines >= 3,
            "report for {name:?} has too few data lines:\n{report}"
        );
    }
}

#[test]
fn run_is_deterministic() {
    // Regenerators are seeded; two runs must render identical reports.
    for name in ["table1", "fig4"] {
        assert_eq!(
            piom_harness::run(name).as_deref(),
            Some(report(name)),
            "{name:?} report is not deterministic"
        );
    }
}

#[test]
fn all_aggregates_every_individual_report() {
    // `all` is exactly the individual reports, in EXPERIMENTS order.
    let all = piom_harness::run("all").unwrap();
    let joined: Vec<&str> = individual_experiments().into_iter().map(report).collect();
    assert_eq!(
        all,
        joined.join("\n"),
        "aggregate report is not the sections joined"
    );
}

/// The figures gate: `piom-harness all` prints the individual reports
/// joined with `"\n"`, plus `println!`'s newline, and those bytes must
/// equal the committed file. The reports are a pure function of the code
/// and `SEED`, so there is no tolerance; a red run lists every line that
/// moved.
#[test]
fn committed_figures_reproduce_exactly() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../FIGURES_pioman.txt");
    let committed = std::fs::read_to_string(path).expect("read FIGURES_pioman.txt");
    let joined: Vec<&str> = individual_experiments().into_iter().map(report).collect();
    let rendered = joined.join("\n") + "\n";
    if committed == rendered {
        return;
    }
    let (old, new): (Vec<&str>, Vec<&str>) = (
        committed.split('\n').collect(),
        rendered.split('\n').collect(),
    );
    let mut moved = String::new();
    for i in 0..old.len().max(new.len()) {
        let (o, n) = (old.get(i), new.get(i));
        if o != n {
            moved += &format!(
                "line {}: {:?} → {:?}\n",
                i + 1,
                o.copied().unwrap_or("<none>"),
                n.copied().unwrap_or("<none>")
            );
        }
    }
    panic!(
        "FIGURES_pioman.txt no longer reproduces:\n{moved}If this change is intended, \
         regenerate the file with `./target/release/piom-harness all > FIGURES_pioman.txt` \
         and say why in CHANGES.md."
    );
}

#[test]
fn unknown_experiment_is_rejected() {
    assert!(piom_harness::run("figure-nope").is_none());
    assert!(piom_harness::run("").is_none());
}

#[test]
fn binary_prints_report_for_known_experiment() {
    let out = Command::new(env!("CARGO_BIN_EXE_piom-harness"))
        .arg("fig2")
        .output()
        .expect("spawn piom-harness");
    assert!(out.status.success(), "exit: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("FIG. 2"));
}

#[test]
fn binary_usage_and_unknown_names_exit_2() {
    let no_args = Command::new(env!("CARGO_BIN_EXE_piom-harness"))
        .output()
        .expect("spawn piom-harness");
    assert_eq!(no_args.status.code(), Some(2));
    assert!(String::from_utf8(no_args.stderr).unwrap().contains("usage"));

    let bad = Command::new(env!("CARGO_BIN_EXE_piom-harness"))
        .arg("figure-nope")
        .output()
        .expect("spawn piom-harness");
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8(bad.stderr)
        .unwrap()
        .contains("unknown experiment"));
}
