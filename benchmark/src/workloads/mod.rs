//! The four closed-loop workloads and what they share.
//!
//! Load model, common to all: one client that waits for each request
//! before sending the next (the paper's callers wait for their request);
//! at most two OS threads ever runnable — the client plus at most one
//! `Progression` worker; nobody sleeps inside a timed region. The topology
//! is `presets::kwak()` everywhere (16 virtual cores, 4 sockets; virtual
//! cores are not OS threads). Only default-config public API is called, so
//! culling an ablation knob can never break the ruler.

use crate::stats::WindowReport;
use crate::trace::Tracer;
use pioman::{ManagerStats, TaskHandle};
use std::time::{Duration, Instant};

pub mod burst_mixed;
pub mod engine_stream;
pub mod inline_roundtrip;
pub mod poll_loopback;

/// A request that has not completed after this long is a failure (and ends
/// the workload: the closed loop cannot continue past a lost request).
pub const DEADLINE: Duration = Duration::from_secs(1);

/// Name and one-line reason of each workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "inline_roundtrip",
        "one task spawned and run on one thread at queue depth 1: the paper's Table I submit+run cost; park/wake, steal, spill and newmad do nothing",
    ),
    (
        "poll_loopback",
        "one message via a submit task and a repeat recv-poll task run by a Progression worker: cross-thread hand-off and completion notice (paper IV-B); queue never deep, nothing stolen",
    ),
    (
        "burst_mixed",
        "1024-task mixed-class bursts with dependencies, queued while the worker is busy, drained by the submitter and the stealing worker: batch dequeue, class lanes, steal-half, waitlist, spill tier",
    ),
    (
        "engine_stream",
        "64-message rounds of 64 B to 1 MiB through two newmad engines on the simulated 2-rail fabric, in host time: aggregation, wire codec, matching, rendezvous, striping; no pioman code runs",
    ),
];

/// Span vocabulary of the traced run (recorded by index).
pub mod span {
    pub const NAMES: &[&str] = &[
        "request",
        "pioman.spawn.core",
        "pioman.spawn.numa",
        "pioman.spawn.global",
        "pioman.schedule.core",
        "pioman.schedule.numa",
        "pioman.schedule.global",
        "body",
        "check",
        "pioman.spawn.submit",
        "pioman.spawn.recv",
        "wait",
        "body.submit",
        "body.recv",
        "newmad.wire_encode",
        "newmad.wire_decode",
        "pioman.spawn",
        "pioman.after_spawn",
        "pioman.adaptive_budget",
        "pioman.schedule_batch",
        "body.urgent",
        "body.interactive",
        "body.bulk",
        "body.background",
        "newmad.irecv",
        "newmad.isend.eager64",
        "newmad.isend.eager4k",
        "newmad.isend.rndv64k",
        "newmad.isend.rndv1m",
        "des.step",
        "newmad.poll",
        "newmad.payload",
    ];
    pub const REQUEST: usize = 0;
    /// `+0` core, `+1` NUMA, `+2` global.
    pub const SPAWN_LEVEL: usize = 1;
    pub const SCHEDULE_LEVEL: usize = 4;
    pub const BODY: usize = 7;
    pub const CHECK: usize = 8;
    pub const SPAWN_SUBMIT: usize = 9;
    pub const SPAWN_RECV: usize = 10;
    pub const WAIT: usize = 11;
    pub const BODY_SUBMIT: usize = 12;
    pub const BODY_RECV: usize = 13;
    pub const WIRE_ENCODE: usize = 14;
    pub const WIRE_DECODE: usize = 15;
    pub const SPAWN: usize = 16;
    pub const AFTER_SPAWN: usize = 17;
    pub const ADAPTIVE_BUDGET: usize = 18;
    pub const SCHEDULE_BATCH: usize = 19;
    /// `+ TaskClass::index()`.
    pub const BODY_CLASS: usize = 20;
    pub const IRECV: usize = 24;
    /// `+ size class` (64 B, 4 KiB, 64 KiB, 1 MiB).
    pub const ISEND_SIZE: usize = 25;
    pub const STEP: usize = 29;
    pub const POLL: usize = 30;
    pub const PAYLOAD: usize = 31;
}

/// What one measured window produced.
pub struct Outcome {
    pub window: WindowReport,
    /// Per-layer counters of this window, by `BENCHMARK.json` name.
    pub counters: Vec<(&'static str, f64)>,
}

/// One workload. `setup` builds everything and runs the fixed-count
/// warm-up (together they are `setup_s`); `measure` runs one window and may
/// be called more than once on the same instance.
pub trait Workload: Sized {
    fn setup(seed: u64) -> Self;
    fn measure(&mut self, seconds: f64, tracer: Option<&'static Tracer>) -> Outcome;
    /// Requests attempted and failed so far (warm-up included), and whether
    /// every end-of-run invariant held.
    fn verdict(&self) -> Verdict;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Verdict {
    /// Both verdicts together.
    pub fn and(self, other: Verdict) -> Verdict {
        Verdict {
            attempted: self.attempted + other.attempted,
            failed: self.failed + other.failed,
            correct: self.correct && other.correct,
        }
    }
}

/// Spins until `done()` says so. Returns `false` when [`DEADLINE`] passed
/// `since` first. The clock is read once every 4096 turns, so the wait
/// itself stays a pure loop on whatever `done` loads.
pub fn spin_until(since: Instant, mut done: impl FnMut() -> bool) -> bool {
    let mut spins = 0u32;
    while !done() {
        std::hint::spin_loop();
        spins = spins.wrapping_add(1);
        if spins & 0xFFF == 0 && since.elapsed() > DEADLINE {
            return false;
        }
    }
    true
}

/// [`spin_until`] `handle` completes.
pub fn spin_until_complete(handle: &TaskHandle, since: Instant) -> bool {
    spin_until(since, || handle.is_complete())
}

/// `pioman` counters of one window: differences of two `stats()` snapshots
/// (and the worker idle-loop counter) taken outside the timed regions,
/// normalised per elementary op.
pub fn pioman_counters(
    before: &ManagerStats,
    after: &ManagerStats,
    idle_loops: u64,
    worker_core: Option<usize>,
    ops: u64,
) -> Vec<(&'static str, f64)> {
    let ops = ops.max(1) as f64;
    let d = |f: fn(&ManagerStats) -> u64| (f(after) - f(before)) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let executed = d(ManagerStats::total_executed);
    let stolen = d(ManagerStats::total_stolen);
    let steal_batches = d(ManagerStats::total_steal_batches);
    let steal_attempts = d(|s| s.steal_attempts_by_core.iter().sum());
    let lock_acq = d(|s| s.queues.iter().map(|q| q.lock_acquisitions).sum());
    let lock_contended = d(|s| s.queues.iter().map(|q| q.lock_contended).sum());
    let on_worker = worker_core.map_or(0.0, |c| {
        (after.executed_by_core[c] - before.executed_by_core[c]) as f64
    });
    vec![
        ("pioman.runs_per_op", executed / ops),
        (
            "pioman.steal_hit_ratio",
            ratio(steal_batches, steal_attempts),
        ),
        ("pioman.steal_batch_mean", ratio(stolen, steal_batches)),
        ("pioman.worker_share", ratio(on_worker, executed)),
        (
            "pioman.spill_per_ktask",
            1e3 * d(ManagerStats::total_spilled) / ops,
        ),
        (
            "pioman.claim_per_ktask",
            1e3 * d(ManagerStats::total_claimed) / ops,
        ),
        (
            "pioman.waitlist_released_per_ktask",
            1e3 * d(ManagerStats::total_waitlist_released) / ops,
        ),
        ("pioman.lock_acq_per_op", lock_acq / ops),
        (
            "pioman.lock_contended_ratio",
            ratio(lock_contended, lock_acq),
        ),
        (
            "pioman.parks_per_kop",
            1e3 * d(ManagerStats::total_park_probe_misses) / ops,
        ),
        ("pioman.idle_loops_per_op", idle_loops as f64 / ops),
    ]
}

#[cfg(test)]
mod tests {
    use super::span;

    #[test]
    fn span_indices_point_at_their_names() {
        let at = |i: usize| span::NAMES[i];
        assert_eq!(at(span::REQUEST), "request");
        assert_eq!(at(span::SPAWN_LEVEL + 2), "pioman.spawn.global");
        assert_eq!(at(span::SCHEDULE_LEVEL), "pioman.schedule.core");
        assert_eq!((at(span::BODY), at(span::CHECK)), ("body", "check"));
        assert_eq!(at(span::SPAWN_SUBMIT), "pioman.spawn.submit");
        assert_eq!(at(span::SPAWN_RECV), "pioman.spawn.recv");
        assert_eq!(at(span::WAIT), "wait");
        assert_eq!(at(span::BODY_SUBMIT), "body.submit");
        assert_eq!(at(span::BODY_RECV), "body.recv");
        assert_eq!(at(span::WIRE_ENCODE), "newmad.wire_encode");
        assert_eq!(at(span::WIRE_DECODE), "newmad.wire_decode");
        assert_eq!(at(span::SPAWN), "pioman.spawn");
        assert_eq!(at(span::AFTER_SPAWN), "pioman.after_spawn");
        assert_eq!(at(span::ADAPTIVE_BUDGET), "pioman.adaptive_budget");
        assert_eq!(at(span::SCHEDULE_BATCH), "pioman.schedule_batch");
        assert_eq!(at(span::BODY_CLASS + 3), "body.background");
        assert_eq!(at(span::IRECV), "newmad.irecv");
        assert_eq!(at(span::ISEND_SIZE + 3), "newmad.isend.rndv1m");
        assert_eq!(
            (at(span::STEP), at(span::POLL)),
            ("des.step", "newmad.poll")
        );
        assert_eq!(at(span::PAYLOAD), "newmad.payload");
        assert_eq!(span::NAMES.len(), span::PAYLOAD + 1);
    }
}
