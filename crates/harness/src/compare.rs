//! The trajectory regression gate: `piom-harness compare OLD NEW` and
//! `piom-harness scenarios --compare OLD`.
//!
//! `SCENARIOS_pioman.json` is a committed trajectory of the deterministic
//! workload-scenario matrix. This module diffs a fresh run (or a second
//! recorded file) against a baseline file, prints per-scenario percentage
//! deltas, and **fails** (nonzero exit in the CLI) when any scenario's
//! `mean_ns` grew past a threshold (default [`DEFAULT_THRESHOLD_PCT`]).
//!
//! Policy choices, spelled out because a gate is only useful when its
//! verdicts are explainable (`EXPERIMENTS.md`, "Scenario matrix"):
//!
//! * **new scenarios pass** — a PR adding scenarios must not be punished
//!   for having no baseline; the row is reported as `new`;
//! * **removed scenarios warn but do not fail** — dropping a scenario is
//!   a review concern, not a regression; the report lists them;
//! * **`mean_ns` is gated everywhere; `p99_ns` is gated on the scenarios
//!   registered as** [`piom_scenarios::Gate::Tail`] — and only when *both*
//!   sides carry it, so a percentile-less baseline degrades to mean-only
//!   gating with a warning instead of a verdict (`iters`/`seed` describe
//!   methodology, and `p50`/`p999` are recorded context, not gates: the
//!   median moves with the mean, and a p999 rests on a handful of
//!   samples);
//! * **the p99 gate gets [`P99_THRESHOLD_FACTOR`]× the scenario's mean
//!   threshold** — a tail estimate rests on ~1% of the samples the mean
//!   rests on, so it gets proportionally more room;
//! * **a non-finite or non-positive current value fails outright** — a
//!   NaN mean (e.g. a zero-sample run) compares false against every
//!   threshold, which without this rule would read as a pass.
//!
//! Parsing lives in [`crate::schema`] (shared with the emit side);
//! anything malformed is a hard error — silently comparing against
//! garbage would make the gate lie.

use crate::schema::{BaselineEntry, BenchResult};
use piom_scenarios::{is_high_variance, is_tail_gated};
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub use crate::schema::parse_trajectory;

/// Default regression threshold: a scenario may be up to this many percent
/// slower than the baseline before the gate fails. The scenario matrix is
/// deterministic, so against an unchanged model every delta is zero; the
/// budget is for PRs that legitimately shift the model.
pub const DEFAULT_THRESHOLD_PCT: f64 = 20.0;

/// Per-scenario wide threshold applied to scenarios registered as
/// [`piom_scenarios::Gate::Wide`]: bursty, heavy-tailed or bimodal
/// workloads whose mean a small model change legitimately swings, so
/// gating them at the tight default would fail PRs on the workload's own
/// shape. Tight unimodal scenarios stay on the base threshold.
pub const WIDE_THRESHOLD_PCT: f64 = 75.0;

/// The p99 gate's headroom multiplier over the scenario's mean threshold
/// ([`scenario_threshold`]): a tail estimate rests on ~1% of the samples
/// the mean rests on, so it gets proportionally more room before the
/// verdict flips — while the regressions this gate exists for (a lost
/// wake, a serialized drain, a once-per-batch stall) move p99 by hundreds
/// of percent and clear 3× with room to spare.
pub const P99_THRESHOLD_FACTOR: f64 = 3.0;

/// The effective gate threshold for `name` given the base `threshold_pct`:
/// [`piom_scenarios::Gate::Wide`] scenarios get at least
/// [`WIDE_THRESHOLD_PCT`] (an explicitly wider `--threshold` still wins),
/// everything else the base.
pub fn scenario_threshold(name: &str, threshold_pct: f64) -> f64 {
    if is_high_variance(name) {
        threshold_pct.max(WIDE_THRESHOLD_PCT)
    } else {
        threshold_pct
    }
}

/// One scenario row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDelta {
    /// Scenario name (the JSON key).
    pub name: String,
    /// Baseline `mean_ns`, if the scenario existed in the baseline.
    pub baseline_ns: Option<f64>,
    /// Freshly measured `mean_ns`.
    pub current_ns: f64,
    /// Percentage change vs baseline (positive = slower); `None` for new
    /// scenarios.
    pub delta_pct: Option<f64>,
    /// Baseline `p99_ns` (`None`: new scenario, or a v1 baseline row).
    pub baseline_p99_ns: Option<f64>,
    /// Current `p99_ns` (`None` only in file-vs-file mode over a v1
    /// current file).
    pub current_p99_ns: Option<f64>,
    /// Percentage change of p99; `None` unless both sides carry one.
    pub p99_delta_pct: Option<f64>,
}

impl ScenarioDelta {
    /// `true` when the current measurement is not a usable number (NaN,
    /// infinite, zero, negative — e.g. the mean of a zero-iteration run).
    /// Such a row fails the gate outright: every threshold comparison
    /// against a NaN is `false`, so without this rule a broken run would
    /// read as a pass.
    pub fn invalid(&self) -> bool {
        !self.current_ns.is_finite()
            || self.current_ns <= 0.0
            || self
                .current_p99_ns
                .is_some_and(|p| !p.is_finite() || p <= 0.0)
    }

    /// `true` when this row alone trips a gate at `threshold_pct`, after
    /// the per-scenario widening ([`scenario_threshold`]): the mean past
    /// the threshold, or — on [`Gate::Tail`](piom_scenarios::Gate::Tail)
    /// rows where both sides carry a p99 — the p99 past
    /// [`P99_THRESHOLD_FACTOR`]× the threshold, or an
    /// [`invalid`](Self::invalid) measurement.
    pub fn regressed(&self, threshold_pct: f64) -> bool {
        if self.invalid() {
            return true;
        }
        let gate = scenario_threshold(&self.name, threshold_pct);
        if self.delta_pct.is_some_and(|d| d > gate) {
            return true;
        }
        is_tail_gated(&self.name)
            && self
                .p99_delta_pct
                .is_some_and(|d| d > gate * P99_THRESHOLD_FACTOR)
    }
}

/// The full result of comparing a suite run against a baseline file.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Per-scenario rows, in suite order.
    pub rows: Vec<ScenarioDelta>,
    /// Scenarios present in the baseline but absent from the current run
    /// (reported, never failed on).
    pub removed: Vec<String>,
    /// The *base* gate threshold the report was built with; each row's
    /// effective gate is [`scenario_threshold`] of its name.
    pub threshold_pct: f64,
}

impl CompareReport {
    /// Rows that exceed the threshold.
    pub fn regressions(&self) -> Vec<&ScenarioDelta> {
        self.rows
            .iter()
            .filter(|r| r.regressed(self.threshold_pct))
            .collect()
    }

    /// `true` when no scenario regressed past the threshold.
    pub fn gate_passes(&self) -> bool {
        self.regressions().is_empty()
    }

    /// Human-readable table plus verdict, the CLI's whole output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "TRAJECTORY COMPARE — current vs baseline (gate: mean_ns regression > {:.1}%, \
             high-variance scenarios > {:.1}%, tail-gated p99 > {:.1}×)",
            self.threshold_pct,
            self.threshold_pct.max(WIDE_THRESHOLD_PCT),
            P99_THRESHOLD_FACTOR
        );
        let _ = writeln!(
            out,
            "{:<28}{:>14}{:>14}{:>10}{:>12}",
            "scenario", "baseline (ns)", "current (ns)", "mean Δ", "p99 Δ"
        );
        for row in &self.rows {
            let p99_col = match row.p99_delta_pct {
                Some(d) => format!("{d:>+11.1}%"),
                None if row.baseline_ns.is_some() && row.baseline_p99_ns.is_none() => {
                    // Present-but-ungateable: the baseline predates v2.
                    "   (v1 base)".to_owned()
                }
                None => format!("{:>12}", "—"),
            };
            match (row.baseline_ns, row.delta_pct) {
                (Some(base), Some(delta)) => {
                    let _ = writeln!(
                        out,
                        "{:<28}{:>14.1}{:>14.1}{:>+9.1}%{}{}",
                        row.name,
                        base,
                        row.current_ns,
                        delta,
                        p99_col,
                        if row.invalid() {
                            "  << INVALID"
                        } else if row.regressed(self.threshold_pct) {
                            "  << REGRESSION"
                        } else {
                            ""
                        }
                    );
                }
                _ => {
                    let _ = writeln!(
                        out,
                        "{:<28}{:>14}{:>14.1}{:>10}{:>12}{}",
                        row.name,
                        "—",
                        row.current_ns,
                        "new",
                        "—",
                        if row.invalid() { "  << INVALID" } else { "" }
                    );
                }
            }
        }
        for name in &self.removed {
            let _ = writeln!(
                out,
                "note: baseline scenario {name:?} missing from this run (not gated)"
            );
        }
        let v1_rows = self
            .rows
            .iter()
            .filter(|r| r.baseline_ns.is_some() && r.baseline_p99_ns.is_none())
            .count();
        if v1_rows > 0 {
            let _ = writeln!(
                out,
                "note: {v1_rows} baseline row(s) predate schema v2 (no percentiles) — \
                 gated on mean only; regenerate the baseline to arm the p99 gate"
            );
        }
        let regressions = self.regressions();
        if regressions.is_empty() {
            let _ = writeln!(out, "gate: PASS ({} scenarios compared)", self.rows.len());
        } else {
            let _ = writeln!(
                out,
                "gate: FAIL — {} scenario(s) regressed past +{:.1}%",
                regressions.len(),
                self.threshold_pct
            );
        }
        out
    }
}

/// Compares a fresh suite run against a parsed baseline.
pub fn compare(
    baseline: &BTreeMap<String, BaselineEntry>,
    current: &[BenchResult],
    threshold_pct: f64,
) -> CompareReport {
    report_from_pairs(
        baseline,
        current
            .iter()
            .map(|r| (r.name.to_owned(), r.mean_ns, Some(r.p99_ns)))
            .collect(),
        threshold_pct,
    )
}

/// Compares two *parsed trajectory files* (`current` vs `baseline`) —
/// the file-vs-file mode behind `piom-harness compare OLD NEW`, which
/// lets CI gate the exact numbers an earlier `scenarios --json` step
/// already recorded instead of paying for a second matrix run. Rows
/// follow the current file's (alphabetical) key order.
pub fn compare_parsed(
    baseline: &BTreeMap<String, BaselineEntry>,
    current: &BTreeMap<String, BaselineEntry>,
    threshold_pct: f64,
) -> CompareReport {
    report_from_pairs(
        baseline,
        current
            .iter()
            .map(|(k, e)| (k.clone(), e.mean_ns, e.p99_ns))
            .collect(),
        threshold_pct,
    )
}

fn report_from_pairs(
    baseline: &BTreeMap<String, BaselineEntry>,
    current: Vec<(String, f64, Option<f64>)>,
    threshold_pct: f64,
) -> CompareReport {
    let removed = baseline
        .keys()
        .filter(|name| current.iter().all(|(n, _, _)| n != *name))
        .cloned()
        .collect();
    let rows = current
        .into_iter()
        .map(|(name, current_ns, current_p99_ns)| {
            let base = baseline.get(&name);
            let baseline_ns = base.map(|e| e.mean_ns);
            let delta_pct = baseline_ns
                .filter(|&b| b > 0.0)
                .map(|b| (current_ns - b) / b * 100.0);
            let baseline_p99_ns = base.and_then(|e| e.p99_ns);
            // The p99 delta exists only when both generations carry one
            // (v2 vs v2); otherwise the row degrades to mean-only.
            let p99_delta_pct = match (baseline_p99_ns, current_p99_ns) {
                (Some(b), Some(c)) if b > 0.0 => Some((c - b) / b * 100.0),
                _ => None,
            };
            ScenarioDelta {
                name,
                baseline_ns,
                current_ns,
                delta_pct,
                baseline_p99_ns,
                current_p99_ns,
                p99_delta_pct,
            }
        })
        .collect();
    CompareReport {
        rows,
        removed,
        threshold_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &'static str, mean_ns: f64) -> BenchResult {
        // p99 tracks the mean at 2× unless a test overrides it.
        BenchResult {
            name,
            mean_ns,
            p50_ns: mean_ns,
            p99_ns: mean_ns * 2.0,
            p999_ns: mean_ns * 4.0,
            iters: 10,
            seed: 42,
        }
    }

    /// A v1 baseline: mean only, the shape of pre-PR-6 committed files.
    fn baseline(entries: &[(&str, f64)]) -> BTreeMap<String, BaselineEntry> {
        entries
            .iter()
            .map(|&(n, v)| (n.to_owned(), BaselineEntry::v1(v)))
            .collect()
    }

    /// A v2 baseline with the same mean→p99 shape as [`result`].
    fn baseline_v2(entries: &[(&str, f64)]) -> BTreeMap<String, BaselineEntry> {
        entries
            .iter()
            .map(|&(n, v)| (n.to_owned(), BaselineEntry::v2(v, v, v * 2.0, v * 4.0)))
            .collect()
    }

    #[test]
    fn improvement_and_noise_pass_the_gate() {
        let base = baseline(&[("fast", 1000.0), ("steady", 500.0)]);
        let current = [result("fast", 700.0), result("steady", 540.0)];
        let report = compare(&base, &current, DEFAULT_THRESHOLD_PCT);
        assert!(report.gate_passes());
        assert_eq!(report.rows[0].delta_pct, Some(-30.0));
        // +8% is within the default 20% budget.
        assert!((report.rows[1].delta_pct.unwrap() - 8.0).abs() < 1e-9);
        assert!(report.render().contains("gate: PASS"));
    }

    #[test]
    fn regression_past_threshold_fails_the_gate() {
        let base = baseline(&[("hot", 1000.0), ("fine", 100.0)]);
        let current = [result("hot", 1300.0), result("fine", 100.0)];
        let report = compare(&base, &current, DEFAULT_THRESHOLD_PCT);
        assert!(!report.gate_passes());
        let regs = report.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "hot");
        let rendered = report.render();
        assert!(rendered.contains("REGRESSION"));
        assert!(rendered.contains("gate: FAIL"));
        // A tighter threshold catches more; a looser one passes.
        assert!(!compare(&base, &current, 10.0).gate_passes());
        assert!(compare(&base, &current, 40.0).gate_passes());
    }

    #[test]
    fn new_scenario_is_reported_not_failed() {
        let base = baseline(&[("old", 100.0)]);
        let current = [result("old", 90.0), result("brand_new", 5000.0)];
        let report = compare(&base, &current, DEFAULT_THRESHOLD_PCT);
        assert!(report.gate_passes(), "no baseline, no verdict");
        let new_row = &report.rows[1];
        assert_eq!(new_row.baseline_ns, None);
        assert_eq!(new_row.delta_pct, None);
        assert!(report.render().contains("new"));
    }

    #[test]
    fn removed_scenario_warns_without_failing() {
        let base = baseline(&[("kept", 100.0), ("dropped", 100.0)]);
        let current = [result("kept", 100.0)];
        let report = compare(&base, &current, DEFAULT_THRESHOLD_PCT);
        assert!(report.gate_passes());
        assert_eq!(report.removed, vec!["dropped".to_owned()]);
        assert!(report.render().contains("missing from this run"));
    }

    #[test]
    fn compare_parsed_matches_the_suite_path() {
        let base = baseline(&[("hot", 1000.0), ("gone", 10.0)]);
        let current = baseline(&[("hot", 1300.0), ("fresh", 1.0)]);
        let report = compare_parsed(&base, &current, DEFAULT_THRESHOLD_PCT);
        assert!(!report.gate_passes());
        assert_eq!(report.regressions()[0].name, "hot");
        assert_eq!(report.removed, vec!["gone".to_owned()]);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].delta_pct, None, "fresh is new");
    }

    #[test]
    fn high_variance_scenarios_get_the_wide_threshold() {
        // `retry_storm` is registered Gate::Wide, `rpc_mesh_steady`
        // Gate::Tail (tight mean threshold).
        let base = baseline(&[("retry_storm", 1000.0), ("rpc_mesh_steady", 1000.0)]);
        // +50% is inside the wide budget but past the tight default…
        let current = [
            result("retry_storm", 1500.0),
            result("rpc_mesh_steady", 1000.0),
        ];
        let report = compare(&base, &current, DEFAULT_THRESHOLD_PCT);
        assert!(report.gate_passes(), "high-variance row tolerated at +50%");
        // …and the header names the budget that row was actually held to.
        let rendered = report.render();
        assert!(
            rendered.contains("> 20.0%, high-variance scenarios > 75.0%"),
            "{rendered}"
        );
        // The same +50% on a tight scenario fails.
        let current = [
            result("retry_storm", 1000.0),
            result("rpc_mesh_steady", 1500.0),
        ];
        assert!(!compare(&base, &current, DEFAULT_THRESHOLD_PCT).gate_passes());
        // Past the wide budget the wide row fails too.
        let current = [
            result("retry_storm", 2000.0),
            result("rpc_mesh_steady", 1000.0),
        ];
        assert!(!compare(&base, &current, DEFAULT_THRESHOLD_PCT).gate_passes());
        // An explicitly wider --threshold still wins over the gate class.
        assert_eq!(scenario_threshold("retry_storm", 90.0), 90.0);
        assert!(compare(&base, &current, 90.0)
            .render()
            .contains("high-variance scenarios > 90.0%"));
        assert_eq!(
            scenario_threshold("retry_storm", DEFAULT_THRESHOLD_PCT),
            WIDE_THRESHOLD_PCT
        );
        assert_eq!(scenario_threshold("rpc_mesh_steady", 20.0), 20.0);
    }

    #[test]
    fn empty_baseline_treats_everything_as_new() {
        let report = compare(&BTreeMap::new(), &[result("only", 10.0)], 20.0);
        assert!(report.gate_passes());
        assert_eq!(report.rows[0].delta_pct, None);
    }

    #[test]
    fn v1_baseline_vs_v2_current_gates_mean_only() {
        // A tail-gated scenario whose p99 exploded but whose mean held:
        // against a v1 baseline there is nothing to hold the p99 to, so
        // the row passes with the "v1 base" degradation note.
        let base = baseline(&[("rpc_mesh_steady", 1000.0)]);
        let mut r = result("rpc_mesh_steady", 1000.0);
        r.p99_ns = 50_000.0;
        let report = compare(&base, &[r], DEFAULT_THRESHOLD_PCT);
        assert!(report.gate_passes(), "no baseline p99, no p99 verdict");
        assert_eq!(report.rows[0].p99_delta_pct, None);
        let rendered = report.render();
        assert!(rendered.contains("(v1 base)"));
        assert!(rendered.contains("predate schema v2"));
        // The mean gate still works against the same v1 baseline.
        let slow = result("rpc_mesh_steady", 1300.0);
        assert!(!compare(&base, &[slow], DEFAULT_THRESHOLD_PCT).gate_passes());
    }

    #[test]
    fn v2_vs_v2_p99_only_regression_fails_tail_gated_rows() {
        let base = baseline_v2(&[("rpc_mesh_steady", 1000.0), ("other", 1000.0)]);
        // Mean steady, p99 past 3× the 20% threshold (baseline p99 is
        // 2000 under the fixture shape; +61% > 60% budget).
        let mut r = result("rpc_mesh_steady", 1000.0);
        r.p99_ns = 3_220.0;
        let report = compare(&base, &[r.clone()], DEFAULT_THRESHOLD_PCT);
        assert!(!report.gate_passes(), "tail-only regression must fail");
        assert!(report.render().contains("REGRESSION"));
        // Inside the widened p99 budget (+59%) the same row passes even
        // though +59% would fail the *mean* gate: the factor is real.
        r.p99_ns = 3_180.0;
        assert!(compare(&base, &[r], DEFAULT_THRESHOLD_PCT).gate_passes());
        // A name outside the registry never fails on p99 alone.
        let mut other = result("other", 1000.0);
        other.p99_ns = 50_000.0;
        let report = compare(&base, &[other], DEFAULT_THRESHOLD_PCT);
        assert!(report.gate_passes(), "p99 is advisory off the Tail class");
        assert!(
            report.rows[0].p99_delta_pct.unwrap() > 1000.0,
            "…but the delta is still computed and reported"
        );
    }

    #[test]
    fn scenario_registry_tags_feed_the_gate() {
        // Rows take their gate class from the scenario registry; a name it
        // does not know is held tight, on the mean only.
        assert!(is_high_variance("retry_storm"));
        assert!(!is_tail_gated("retry_storm"));
        assert!(is_tail_gated("rpc_mesh_steady"));
        assert!(!is_high_variance("other") && !is_tail_gated("other"));
        assert_eq!(
            scenario_threshold("other", DEFAULT_THRESHOLD_PCT),
            DEFAULT_THRESHOLD_PCT
        );
        // A Wide-class workload is never held to its p99: the tail *is*
        // the workload.
        let base = baseline_v2(&[("retry_storm", 1000.0)]);
        let mut r = result("retry_storm", 1500.0);
        r.p99_ns = 50_000.0;
        assert!(compare(&base, &[r], DEFAULT_THRESHOLD_PCT).gate_passes());
    }

    #[test]
    fn non_finite_or_zero_measurements_fail_outright() {
        // A NaN mean (a zero-iteration run divides 0/0) compares false
        // against every threshold — the INVALID rule catches it.
        let base = baseline_v2(&[("x", 100.0)]);
        for bad in [f64::NAN, f64::INFINITY, 0.0, -5.0] {
            let r = result("x", bad);
            let report = compare(&base, &[r], DEFAULT_THRESHOLD_PCT);
            assert!(!report.gate_passes(), "current mean {bad} must fail");
            assert!(report.render().contains("INVALID"));
        }
        // A NaN p99 on a finite mean is equally unusable.
        let mut r = result("x", 100.0);
        r.p99_ns = f64::NAN;
        assert!(!compare(&base, &[r], DEFAULT_THRESHOLD_PCT).gate_passes());
        // And a zero/NaN *baseline* mean yields no delta (treated like
        // new) rather than an infinite percentage.
        let zero_base = baseline_v2(&[("x", 0.0)]);
        let report = compare(&zero_base, &[result("x", 100.0)], DEFAULT_THRESHOLD_PCT);
        assert!(report.gate_passes());
        assert_eq!(report.rows[0].delta_pct, None);
    }
}
