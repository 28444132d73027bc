//! The workload-scenario matrix behind `piom-harness scenarios`.
//!
//! `piom_scenarios` owns the workloads and reports each run as a
//! [`ScenarioReport`] in the shared [`pioman::hist::PercentileSummary`]
//! vocabulary; this module is the thin adapter that turns those reports
//! into [`BenchResult`] rows for the schema-v2 renderer and the compare
//! gate — the rows of `SCENARIOS_pioman.json` (simulated workload
//! latency).
//!
//! The dependency points this way (harness → scenarios) on purpose: the
//! scenario crate must stay buildable without the harness, so it speaks
//! `PercentileSummary` and the conversion to the trajectory schema lives
//! here, next to the schema's owner.

use crate::schema::BenchResult;
use piom_scenarios::{Scenario, ScenarioParams, ScenarioReport};
use pioman::TaskClass;
use std::fmt::Write as _;

/// Converts one scenario report into a schema-v2 trajectory row: the
/// summary's exact mean and bucket-resolved percentiles, the sample count
/// as `iters`, and the run seed.
pub fn to_bench_result(r: &ScenarioReport) -> BenchResult {
    BenchResult {
        name: r.name,
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
/// trajectory rows with [`to_bench_result`]; the throughput-per-class
/// rows stay report-only (the JSON schema is ns/op percentiles).
pub fn run_matrix(scenarios: &[&Scenario], params: &ScenarioParams) -> Vec<ScenarioReport> {
    scenarios.iter().map(|s| s.run(params)).collect()
}

/// Human-readable matrix table (the non-`--json` CLI output). Latencies
/// are *simulated* nanoseconds; `gate` shows which compare treatment the
/// row gets (`wide` = mean-only at the wide threshold, `tail` = mean +
/// p99). Each scenario's throughput-per-class rows follow indented —
/// completions per simulated millisecond, classes with zero completions
/// omitted.
pub fn render_text(scenarios: &[&Scenario], reports: &[ScenarioReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "SCENARIO MATRIX — simulated workload latency (ns), seed {}",
        reports.first().map_or(0, |r| r.seed)
    );
    let _ = writeln!(
        out,
        "{:<22}{:>12}{:>12}{:>12}{:>12}{:>9}  {:<6}",
        "scenario", "mean", "p50", "p99", "p999", "samples", "gate"
    );
    for (s, r) in scenarios.iter().zip(reports) {
        let gate = match s.gate {
            piom_scenarios::Gate::Wide => "wide",
            piom_scenarios::Gate::Tail => "tail",
        };
        let _ = writeln!(
            out,
            "{:<22}{:>12.1}{:>12.1}{:>12.1}{:>12.1}{:>9}  {:<6}",
            r.name,
            r.summary.mean,
            r.summary.p50,
            r.summary.p99,
            r.summary.p999,
            r.summary.count,
            gate
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema;

    #[test]
    fn matrix_rows_render_as_valid_schema_v2() {
        let params = ScenarioParams::quick(42);
        let scenarios: Vec<&Scenario> = piom_scenarios::registry().iter().collect();
        let rows: Vec<BenchResult> = run_matrix(&scenarios, &params)
            .iter()
            .map(to_bench_result)
            .collect();
        assert!(rows.len() >= 8, "matrix too small");
        let json = schema::render_json(&rows);
        let parsed = schema::parse_trajectory(&json).expect("rows must round-trip");
        assert_eq!(parsed.len(), rows.len());
        for r in &rows {
            let e = parsed[r.name];
            assert!(!e.is_v1(), "{} must carry v2 percentiles", r.name);
            assert!(e.mean_ns > 0.0);
        }
    }

    #[test]
    fn report_conversion_is_field_for_field() {
        let s = piom_scenarios::find("rpc_mesh_steady").unwrap();
        let report = s.run(&ScenarioParams::quick(7));
        let row = to_bench_result(&report);
        assert_eq!(row.name, "rpc_mesh_steady");
        assert_eq!(row.seed, 7);
        assert_eq!(row.iters, report.summary.count);
        assert_eq!(row.mean_ns, report.summary.mean);
        assert_eq!(row.p99_ns, report.summary.p99);
    }

    #[test]
    fn render_text_lists_every_scenario_and_its_gate() {
        let params = ScenarioParams::quick(42);
        let scenarios: Vec<&Scenario> = piom_scenarios::registry().iter().collect();
        let reports = run_matrix(&scenarios, &params);
        let text = render_text(&scenarios, &reports);
        for s in piom_scenarios::registry() {
            assert!(text.contains(s.name), "{} missing from table", s.name);
        }
        assert!(text.contains("wide") && text.contains("tail"));
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
}
