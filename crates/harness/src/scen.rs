//! The workload-scenario matrix behind `piom-harness scenarios`.
//!
//! `piom_scenarios` owns the workloads and reports each run as a
//! [`ScenarioReport`] in the shared [`piom_scenarios::hist::PercentileSummary`]
//! vocabulary; this module is the thin adapter that turns those reports
//! into [`Row`]s — the rows of `SCENARIOS_pioman.json` (simulated workload
//! latency) — and explains, row by row, why a fresh matrix differs from
//! the committed one ([`explain_mismatch`], the exact gate's red report).
//!
//! The dependency points this way (harness → scenarios) on purpose: the
//! scenario crate must stay buildable without the harness, so it speaks
//! `PercentileSummary` and the conversion to the trajectory schema lives
//! here, next to the schema's owner.

use crate::schema::{self, Row};
use piom_scenarios::{Scenario, ScenarioParams, ScenarioReport};
use pioman::TaskClass;
use std::fmt::Write as _;

/// Converts one scenario report into a trajectory row: the summary's
/// exact mean and bucket-resolved percentiles, the sample count as
/// `iters`, and the run seed.
pub fn to_row(r: &ScenarioReport) -> Row {
    Row {
        name: r.name.to_owned(),
        mean_ns: r.summary.mean,
        p50_ns: r.summary.p50,
        p99_ns: r.summary.p99,
        p999_ns: r.summary.p999,
        iters: r.summary.count,
        seed: r.seed,
    }
}

/// Runs `scenarios` under `params`, in the given (registry) order,
/// returning one full report each. Deterministic: same scenario list,
/// params, and seed produce identical reports. The caller converts to
/// trajectory rows with [`to_row`]; the throughput-per-class rows stay
/// report-only (the JSON schema is ns/op percentiles).
pub fn run_matrix(scenarios: &[&Scenario], params: &ScenarioParams) -> Vec<ScenarioReport> {
    scenarios.iter().map(|s| s.run(params)).collect()
}

/// Human-readable matrix table (the CLI's stdout). Latencies are
/// *simulated* nanoseconds. Each scenario's throughput-per-class rows
/// follow indented — completions per simulated millisecond, classes with
/// zero completions omitted.
pub fn render_text(scenarios: &[&Scenario], reports: &[ScenarioReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "SCENARIO MATRIX — simulated workload latency (ns), seed {}",
        reports.first().map_or(0, |r| r.seed)
    );
    let _ = writeln!(
        out,
        "{:<22}{:>12}{:>12}{:>12}{:>12}{:>9}",
        "scenario", "mean", "p50", "p99", "p999", "samples"
    );
    for (s, r) in scenarios.iter().zip(reports) {
        let _ = writeln!(
            out,
            "{:<22}{:>12.1}{:>12.1}{:>12.1}{:>12.1}{:>9}",
            r.name, r.summary.mean, r.summary.p50, r.summary.p99, r.summary.p999, r.summary.count,
        );
        let _ = writeln!(out, "  {}", s.about);
        let mut tput = String::new();
        for (class, row) in TaskClass::ALL.iter().zip(&r.throughput) {
            if row.completed > 0 {
                if !tput.is_empty() {
                    tput.push_str("  ·  ");
                }
                let _ = write!(tput, "{:?} {} ({:.2}/ms)", class, row.completed, row.per_ms);
            }
        }
        let _ = writeln!(out, "  throughput: {tput}");
    }
    out
}

/// The exact gate's verdict on a fresh trajectory document `new` against
/// the committed `old` one: `Ok` only when the bytes are equal. Otherwise
/// the error explains the difference — one line per row that moved, each
/// field shown as `old → new` (with a Δ % on the latencies) or `(=)`,
/// then the rows only one side has, listed as added or removed.
///
/// # Errors
///
/// Whenever `old != new`, including when either document fails to parse.
pub fn explain_mismatch(old: &str, new: &str) -> Result<(), String> {
    if old == new {
        return Ok(());
    }
    let old = schema::parse_trajectory(old).map_err(|e| format!("committed matrix: {e}"))?;
    let new = schema::parse_trajectory(new).map_err(|e| format!("fresh matrix: {e}"))?;
    let mut lines = Vec::new();
    for n in &new {
        match old.iter().find(|o| o.name == n.name) {
            None => lines.push(format!("  {}: added", n.name)),
            Some(o) if o != n => lines.push(format!("  {}: {}", n.name, row_delta(o, n))),
            Some(_) => {}
        }
    }
    for o in old.iter().filter(|o| new.iter().all(|n| n.name != o.name)) {
        lines.push(format!("  {}: removed", o.name));
    }
    if lines.is_empty() {
        lines.push("  every row is equal: the documents differ in layout or row order".into());
    }
    Err(format!(
        "scenario matrix differs from the committed file in {} row(s):\n{}",
        lines.len(),
        lines.join("\n")
    ))
}

/// One moved row's cells: every field, `old → new` where it changed.
fn row_delta(o: &Row, n: &Row) -> String {
    let mut cells = Vec::new();
    for (key, a, b) in [
        ("mean_ns", o.mean_ns, n.mean_ns),
        ("p50_ns", o.p50_ns, n.p50_ns),
        ("p99_ns", o.p99_ns, n.p99_ns),
        ("p999_ns", o.p999_ns, n.p999_ns),
    ] {
        cells.push(if a == b {
            format!("{key} {a:.1} (=)")
        } else {
            format!("{key} {a:.1} → {b:.1} ({:+.1} %)", (b - a) / a * 100.0)
        });
    }
    for (key, a, b) in [("iters", o.iters, n.iters), ("seed", o.seed, n.seed)] {
        cells.push(if a == b {
            format!("{key} {a} (=)")
        } else {
            format!("{key} {a} → {b}")
        });
    }
    cells.join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_rows(seed: u64) -> Vec<Row> {
        let scenarios: Vec<&Scenario> = piom_scenarios::registry().iter().collect();
        run_matrix(&scenarios, &ScenarioParams::quick(seed))
            .iter()
            .map(to_row)
            .collect()
    }

    #[test]
    fn matrix_rows_render_as_valid_schema_v2() {
        let rows = quick_rows(42);
        assert!(rows.len() >= 8, "matrix too small");
        let json = schema::render_json(&rows);
        schema::validate_json(&json).expect("valid JSON");
        // Rendering rounds to 0.1 ns; what it writes reads back to itself.
        let parsed = schema::parse_trajectory(&json).unwrap();
        assert_eq!(schema::render_json(&parsed), json);
        assert!(rows.iter().all(|r| r.mean_ns > 0.0));
    }

    #[test]
    fn report_conversion_is_field_for_field() {
        let s = piom_scenarios::find("rpc_mesh_steady").unwrap();
        let report = s.run(&ScenarioParams::quick(7));
        let row = to_row(&report);
        assert_eq!(row.name, "rpc_mesh_steady");
        assert_eq!(row.seed, 7);
        assert_eq!(row.iters, report.summary.count);
        assert_eq!(row.mean_ns, report.summary.mean);
        assert_eq!(row.p99_ns, report.summary.p99);
    }

    #[test]
    fn render_text_lists_every_scenario() {
        let params = ScenarioParams::quick(42);
        let scenarios: Vec<&Scenario> = piom_scenarios::registry().iter().collect();
        let reports = run_matrix(&scenarios, &params);
        let text = render_text(&scenarios, &reports);
        for s in piom_scenarios::registry() {
            assert!(text.contains(s.name), "{} missing from table", s.name);
        }
        // Every scenario carries a throughput-per-class line, and the QoS
        // mesh rows decompose theirs into all four classes.
        assert_eq!(
            text.matches("throughput:").count(),
            reports.len(),
            "one throughput line per scenario"
        );
        assert!(
            text.contains("Urgent") && text.contains("Background"),
            "QoS rows must break out per-class rates"
        );
    }

    fn base() -> Vec<Row> {
        let row = |name: &str, mean_ns: f64| Row {
            name: name.to_owned(),
            mean_ns,
            p50_ns: 100.0,
            p99_ns: 400.0,
            p999_ns: 800.0,
            iters: 4096,
            seed: 42,
        };
        vec![row("steady", 200.0), row("bursty", 300.0)]
    }

    #[test]
    fn identical_documents_explain_as_ok() {
        assert_eq!(
            explain_mismatch(&schema::render_json(&base()), &schema::render_json(&base())),
            Ok(())
        );
    }

    #[test]
    fn each_perturbed_field_is_named_with_old_and_new() {
        for field in ["mean_ns", "p50_ns", "p99_ns", "p999_ns", "iters", "seed"] {
            let mut new = base();
            let r = &mut new[0];
            let cell = match field {
                "mean_ns" => {
                    r.mean_ns = 300.0;
                    "mean_ns 200.0 → 300.0 (+50.0 %)"
                }
                "p50_ns" => {
                    r.p50_ns = 90.0;
                    "p50_ns 100.0 → 90.0 (-10.0 %)"
                }
                "p99_ns" => {
                    r.p99_ns = 500.0;
                    "p99_ns 400.0 → 500.0 (+25.0 %)"
                }
                "p999_ns" => {
                    r.p999_ns = 200.0;
                    "p999_ns 800.0 → 200.0 (-75.0 %)"
                }
                "iters" => {
                    r.iters = 4095;
                    "iters 4096 → 4095"
                }
                _ => {
                    r.seed = 7;
                    "seed 42 → 7"
                }
            };
            let err = explain_mismatch(&schema::render_json(&base()), &schema::render_json(&new))
                .unwrap_err();
            assert!(err.contains("in 1 row(s)"), "{field}: {err}");
            let line = err.lines().find(|l| l.contains("steady:")).unwrap();
            assert!(line.contains(cell), "{field}: {line}");
            assert_eq!(line.matches('→').count(), 1, "only {field} moved: {line}");
            assert!(
                !err.contains("bursty"),
                "{field}: unmoved row listed: {err}"
            );
        }
    }

    #[test]
    fn added_and_removed_rows_are_listed() {
        let mut new = base();
        new[1].name = "retry".into();
        let err = explain_mismatch(&schema::render_json(&base()), &schema::render_json(&new))
            .unwrap_err();
        assert!(err.contains("  retry: added"), "{err}");
        assert!(err.contains("  bursty: removed"), "{err}");
        assert!(!err.contains("steady"), "{err}");
        // Same rows, different order: red, and says so.
        let mut swapped = base();
        swapped.reverse();
        let err = explain_mismatch(
            &schema::render_json(&base()),
            &schema::render_json(&swapped),
        )
        .unwrap_err();
        assert!(err.contains("every row is equal"), "{err}");
    }

    #[test]
    fn quick_preset_against_the_committed_file_lists_every_row() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../SCENARIOS_pioman.json");
        let committed = std::fs::read_to_string(path).unwrap();
        let quick = quick_rows(42);
        let err = explain_mismatch(&committed, &schema::render_json(&quick)).unwrap_err();
        assert!(err.contains(&format!("in {} row(s)", quick.len())), "{err}");
        for r in &quick {
            assert!(err.contains(&format!("  {}: mean_ns ", r.name)), "{err}");
        }
    }
}
