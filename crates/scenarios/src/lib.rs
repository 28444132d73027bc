//! The scenario registry: named, parameterized, seedable DES workloads.
//!
//! The repo benchmark (`benchmark/`) times the *scheduler and engine hot
//! paths*; it does not watch *workload behaviour* — an incast collapse, a
//! retry storm amplifying itself, a straggler fattening every gather —
//! regressions that leave ns/op untouched. This crate is that surface: a
//! registry of production-shaped traffic patterns, each
//! a deterministic discrete-event simulation (`piom_des::Sim` +
//! `piom_net::Network`, server CPU costs from `piom_machine::CostModel`)
//! that records one latency sample per request into a
//! [`pioman::hist::Histogram`] and reports the shared
//! [`PercentileSummary`] vocabulary.
//!
//! Determinism is the contract that makes the matrix gateable: a scenario
//! run is a pure function of `(code, params, seed)` — integer simulated
//! time, [`piom_des::rng::SplitMix64`] jitter, no ambient entropy, no
//! wall clock — so two runs with the same seed produce *byte-identical*
//! JSON rows (pinned by `tests/determinism.rs`). The committed
//! `SCENARIOS_pioman.json` is therefore gated exactly: `piom-harness`'s
//! tier-1 test `committed_matrix_reproduces_exactly` re-renders the full
//! preset at seed 42 and requires the same bytes, no tolerance.
//!
//! # Quick start
//!
//! ```
//! use piom_scenarios::{registry, ScenarioParams};
//!
//! let params = ScenarioParams::quick(42);
//! let scenario = piom_scenarios::find("incast_fanin").expect("registered");
//! let report = scenario.run(&params);
//! assert_eq!(report.name, "incast_fanin");
//! assert!(report.summary.count > 0 && report.summary.p99 >= report.summary.p50);
//! assert!(report.throughput.iter().any(|t| t.completed > 0));
//! assert!(registry().len() >= 8);
//! ```

#![warn(missing_docs)]

use pioman::hist::{Histogram, PercentileSummary};
use pioman::{TaskClass, CLASS_COUNT};

mod cluster;
mod workloads;

pub use cluster::{Cluster, Server, ServerCosts};

/// Shared knobs of every scenario run. Each scenario derives its own
/// internal sizes from these two scale parameters plus the seed, so
/// `quick` and `full` exercise the same shapes at different volumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioParams {
    /// Seed of the per-scenario `SplitMix64` (each scenario reseeds with
    /// its own name hash mixed in, so scenarios draw independent streams).
    pub seed: u64,
    /// Client/server endpoint count in the fan-in/fan-out scenarios.
    pub endpoints: usize,
    /// Approximate recorded samples per scenario (the percentile budget:
    /// `full` keeps p999 resting on ≥4 real samples).
    pub samples: u64,
}

impl ScenarioParams {
    /// The full preset recorded into the committed `SCENARIOS_pioman.json`
    /// trajectory (at seed 42) and gated exactly in tier-1.
    pub fn full(seed: u64) -> Self {
        ScenarioParams {
            seed,
            endpoints: 64,
            samples: 4096,
        }
    }

    /// A small preset for smoke runs and tests: same shapes, ~16× fewer
    /// events. Not comparable against a `full` baseline — the simulated
    /// distribution depends (deterministically) on the volume.
    pub fn quick(seed: u64) -> Self {
        ScenarioParams {
            seed,
            endpoints: 16,
            samples: 256,
        }
    }
}

/// The sink a workload reports into: latency samples flow to the
/// caller's histogram (or raw capture), while per-class completion
/// counts and the simulated horizon accumulate here for the
/// throughput-per-class rows of [`ScenarioReport`].
///
/// Classes reuse the scheduler's [`TaskClass`] vocabulary: request/
/// response traffic records as `Interactive`, bulk data movement as
/// `Bulk`, and the QoS mesh rows attribute every completion to its
/// actual lane class — so the throughput rows decompose a workload the
/// same way the class lanes do.
pub struct Recorder<'a> {
    sink: &'a mut dyn FnMut(u64),
    completed: [u64; CLASS_COUNT],
    elapsed_ns: u64,
}

impl<'a> Recorder<'a> {
    fn new(sink: &'a mut dyn FnMut(u64)) -> Self {
        Recorder {
            sink,
            completed: [0; CLASS_COUNT],
            elapsed_ns: 0,
        }
    }

    /// Records one latency sample attributed to `class` (one completed
    /// request of that class).
    pub fn record_class(&mut self, class: TaskClass, ns: u64) {
        self.completed[class.index()] += 1;
        (self.sink)(ns);
    }

    /// Counts `n` completions of `class` *without* latency samples — the
    /// QoS mesh rows use this for the slices whose latency belongs to a
    /// sibling row, so every row still reports the full per-class
    /// throughput of the shared workload.
    pub fn note_completions(&mut self, class: TaskClass, n: u64) {
        self.completed[class.index()] += n;
    }

    /// Advances the simulated horizon the throughput rates divide by
    /// (monotone max — scenarios report their DES end time).
    pub fn note_elapsed(&mut self, ns: u64) {
        self.elapsed_ns = self.elapsed_ns.max(ns);
    }

    fn throughput(&self) -> [ClassThroughput; CLASS_COUNT] {
        let mut rows = [ClassThroughput {
            completed: 0,
            per_ms: 0.0,
        }; CLASS_COUNT];
        for (row, &done) in rows.iter_mut().zip(&self.completed) {
            row.completed = done;
            if self.elapsed_ns > 0 {
                // IEEE basic ops only: bit-reproducible across hosts.
                row.per_ms = done as f64 * 1_000_000.0 / self.elapsed_ns as f64;
            }
        }
        rows
    }
}

/// One registered workload: a name and a run function that builds its
/// simulation and records one latency sample (nanoseconds of *simulated*
/// time) per request into the recorder.
pub struct Scenario {
    /// Stable identifier — the JSON key of its trajectory row.
    pub name: &'static str,
    /// One-line description shown by `piom-harness scenarios`.
    pub about: &'static str,
    run: fn(&ScenarioParams, &mut Recorder),
}

impl Scenario {
    /// Runs the scenario, folding every recorded latency through a
    /// [`Histogram`] (one shard — the DES is single-threaded) into the
    /// shared percentile vocabulary, with the per-class completion rates
    /// alongside.
    pub fn run(&self, params: &ScenarioParams) -> ScenarioReport {
        let hist = Histogram::new(1);
        let mut sink = |ns| hist.record_at(0, ns);
        let mut rec = Recorder::new(&mut sink);
        (self.run)(params, &mut rec);
        let throughput = rec.throughput();
        ScenarioReport {
            name: self.name,
            seed: params.seed,
            summary: hist.snapshot().summary(),
            throughput,
        }
    }

    /// Runs the scenario feeding raw latency samples to `rec` *instead
    /// of* a histogram — the hand-off seam the oracle tests use to
    /// capture the exact sample stream alongside the bucketed summary.
    /// Class attribution and the horizon are folded away.
    pub fn run_with_recorder(&self, params: &ScenarioParams, rec: &mut dyn FnMut(u64)) {
        let mut wrapped = Recorder::new(rec);
        (self.run)(params, &mut wrapped);
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .finish()
    }
}

/// One [`TaskClass`]'s completion throughput in a scenario run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassThroughput {
    /// Requests of this class fully completed over the run.
    pub completed: u64,
    /// Completions per *simulated* millisecond (0 when the scenario
    /// reported no horizon or completed nothing in this class).
    pub per_ms: f64,
}

/// One scenario's result row: the trajectory fields
/// (`mean/p50/p99/p999/iters/seed`) in the shared vocabulary, ready for
/// `piom-harness` to render with no new formats, plus the
/// throughput-per-class rows (text table only — the JSON trajectory
/// carries the latency distribution alone).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (the JSON key).
    pub name: &'static str,
    /// Seed the run was configured with.
    pub seed: u64,
    /// The latency distribution (count doubles as the row's `iters`).
    pub summary: PercentileSummary,
    /// Per-class completion rates, indexed by [`TaskClass::index`].
    pub throughput: [ClassThroughput; CLASS_COUNT],
}

/// Every registered scenario, in fixed (trajectory) order.
pub fn registry() -> &'static [Scenario] {
    workloads::REGISTRY
}

/// The scenario named exactly `name`, if registered.
pub fn find(name: &str) -> Option<&'static Scenario> {
    registry().iter().find(|s| s.name == name)
}

/// Scenarios whose name contains `filter` (substring match, the
/// `--filter` semantics). Empty means the caller asked for something that
/// does not exist — the CLI treats that as an error, not an empty pass.
pub fn matching(filter: &str) -> Vec<&'static Scenario> {
    registry()
        .iter()
        .filter(|s| s.name.contains(filter))
        .collect()
}

/// Mixes the scenario name into the run seed so every scenario draws an
/// independent deterministic stream (two scenarios sharing a seed must
/// not share jitter, or shape changes in one would alias into another).
pub(crate) fn scenario_seed(name: &str, seed: u64) -> u64 {
    // FNV-1a over the name, folded into the user seed.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ seed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_at_least_eight_unique_names() {
        let names: Vec<_> = registry().iter().map(|s| s.name).collect();
        assert!(names.len() >= 8, "matrix too small: {names:?}");
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate scenario names");
        // Names are plain identifiers: the schema renderer does not escape.
        for n in &names {
            assert!(
                n.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "{n:?} is not a plain identifier"
            );
        }
    }

    #[test]
    fn find_and_matching_agree_with_registry() {
        assert!(find("incast_fanin").is_some());
        assert!(find("no_such_scenario").is_none());
        assert!(matching("").len() == registry().len(), "empty matches all");
        assert!(matching("zzz_nothing").is_empty());
        let fanin = matching("fanin");
        assert!(fanin.iter().any(|s| s.name == "incast_fanin"));
    }

    #[test]
    fn scenario_seeds_differ_by_name_and_seed() {
        let a = scenario_seed("incast_fanin", 42);
        let b = scenario_seed("retry_storm", 42);
        let c = scenario_seed("incast_fanin", 43);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn throughput_rows_account_for_every_sample() {
        let params = ScenarioParams::quick(42);
        for s in registry() {
            let r = s.run(&params);
            let total: u64 = r.throughput.iter().map(|t| t.completed).sum();
            assert!(
                total >= r.summary.count,
                "{}: fewer class completions ({total}) than latency samples ({})",
                s.name,
                r.summary.count
            );
            for (t, class) in r.throughput.iter().zip(TaskClass::ALL) {
                assert_eq!(
                    t.completed > 0,
                    t.per_ms > 0.0,
                    "{}: {class:?} count/rate disagree ({t:?})",
                    s.name
                );
            }
        }
    }

    #[test]
    fn every_scenario_produces_a_populated_summary() {
        let params = ScenarioParams::quick(42);
        for s in registry() {
            let r = s.run(&params);
            assert!(r.summary.count > 0, "{} recorded nothing", s.name);
            assert!(
                r.summary.mean > 0.0 && r.summary.p50 > 0.0,
                "{} has zero latencies",
                s.name
            );
            assert!(
                r.summary.p50 <= r.summary.p99
                    && r.summary.p99 <= r.summary.p999
                    && r.summary.p999 <= r.summary.max,
                "{} quantiles out of order: {:?}",
                s.name,
                r.summary
            );
        }
    }
}
