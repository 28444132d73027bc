//! Shared scheduler workload shapes, used by both `benches/scheduler.rs`
//! (criterion, exploratory) and `piom-harness bench` (the recorded
//! `BENCH_pioman.json` trajectory). One definition per scenario: changing
//! a load size or drain bound here changes both instruments together.
//!
//! The [`HIGH_VARIANCE`] / [`TAIL_GATED`] tag lists below cover only the
//! *bench* rows. The simulated workload matrix (`piom-harness scenarios`,
//! `SCENARIOS_pioman.json`) carries its gate class on each
//! `piom_scenarios::Scenario` instead; the compare gate unions both
//! sources (`piom_harness::compare::{is_high_variance, is_tail_gated}`),
//! so a workload scenario never needs an entry here.

use piom_cpuset::CpuSet;
use pioman::{TaskClass, TaskHandle, TaskManager, TaskStatus, CLASS_COUNT};
use std::time::{Duration, Instant};

/// Scenarios whose quick-mode numbers swing with host load (±40% observed
/// on shared runners for `newmad_pingpong` and the contended pairs, and
/// 0.4–1.8 µs run-to-run for the single-round-trip rows — EXPERIMENTS.md,
/// "noise caveat"). This tag drives two things: `piom-harness bench`
/// records the **median of three** measurement passes for these (instead
/// of one), and the now-required regression gate applies the wide
/// per-scenario threshold (`compare::WIDE_THRESHOLD_PCT`) to them so CI
/// verdicts track real regressions instead of runner weather.
pub const HIGH_VARIANCE: &[&str] = &[
    "submit_schedule_percore",
    "submit_schedule_global",
    "contended_global_queue",
    "contended_percore_queues",
    "newmad_pingpong",
    // The whole newmad_* family routes here: each row hosts a *simulated*
    // engine run (deterministic latencies, asserted inside the routine)
    // and measures the host-side cost of driving it, which inherits the
    // shared-runner noise of every other host-timed row.
    "newmad_bandwidth_ladder",
    "newmad_multirail_crossover",
    "stats_sharding_contended",
    "stats_sharding_contended_baseline",
    // The manycore re-record of the false-sharing ablation: 16 threads
    // oversubscribed on the shared runner — scheduling jitter *is* the
    // workload, so its quick-mode numbers swing hardest of all.
    "stats_sharding_manycore",
    "stats_sharding_manycore_baseline",
    "newmad_rail_ladder",
];

/// `true` if `name` is tagged [`HIGH_VARIANCE`].
pub fn is_high_variance(name: &str) -> bool {
    HIGH_VARIANCE.contains(&name)
}

/// Scenarios whose **p99** the regression gate holds alongside the mean
/// (schema v2): the tight scheduler microbenches, where a fattened tail
/// is exactly the failure steal-aware parking and adaptive batching
/// exist to prevent and run-to-run noise is small enough for a p99
/// verdict to mean something. The [`HIGH_VARIANCE`] rows stay mean-gated
/// only — their quick-mode tails are runner weather, and gating weather
/// would teach everyone to ignore the gate. Tagged rows also get an
/// iteration floor (`harness` `TAIL_MIN_ITERS`) so the p99 rests on a
/// real sample count even under `--quick`.
pub const TAIL_GATED: &[&str] = &[
    "schedule_batch_drain_64",
    "steal_starved_core",
    "spin_home_drains_alone",
    "steal_half_backlog",
    "adaptive_batch_ramp",
    "park_wake_latency",
    "phase_shift_ramp",
    "qos_class_mix",
    "qos_waitlist_chain",
    // The socket-tier scaling ladder: single-threaded deterministic
    // drains whose tail is exactly the spill/claim/steal path the
    // overflow tier exists to keep flat as the core count grows.
    "steal_scaling_256",
    "steal_scaling_512",
    "steal_scaling_1024",
];

/// `true` if `name` is tagged [`TAIL_GATED`].
pub fn is_tail_gated(name: &str) -> bool {
    TAIL_GATED.contains(&name)
}

/// Backlog size of the skewed-load (steal-vs-spin) scenarios.
pub const SKEWED_LOAD: usize = 64;

/// Tasks per thread in one contended round.
pub const CONTENDED_OPS: usize = 16;

/// Threads in one contended round.
pub const CONTENDED_THREADS: usize = 4;

/// Submits [`SKEWED_LOAD`] one-shot tasks all homed on core 0's Per-Core
/// Queue, runnable by cores 0–3 — the skewed load behind the steal-vs-spin
/// comparison.
pub fn submit_skewed(mgr: &TaskManager) -> Vec<TaskHandle> {
    (0..SKEWED_LOAD)
        .map(|_| {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::range(0..4))
                .on_core(0)
                .spawn()
        })
        .collect()
}

/// Drives keypoints on `cores` round-robin until every handle completes.
///
/// # Panics
///
/// Panics if the backlog fails to drain within `10 * handles.len()`
/// rounds — in the starved-home arm (`cores = 1..4`) that means work
/// stealing failed.
pub fn drain_until_complete(
    mgr: &TaskManager,
    cores: core::ops::Range<usize>,
    handles: &[TaskHandle],
) {
    let mut rounds = 0;
    while handles.iter().any(|h| !h.is_complete()) {
        for core in cores.clone() {
            mgr.schedule(core);
        }
        rounds += 1;
        assert!(
            rounds <= 10 * handles.len(),
            "scheduler failed to drain the backlog via cores {cores:?}"
        );
    }
}

/// Backlog size of the `steal_scaling_*` ladder: deep enough that core
/// 0's dispatch spills well past [`SCALING_SPILL_THRESHOLD`] into its
/// socket's overflow tier on every rung.
pub const SCALING_LOAD: usize = 256;

/// Per-core depth the `steal_scaling_*` rungs configure as
/// [`pioman::ManagerConfig::spill_threshold`]: low, so the
/// [`SCALING_LOAD`] backlog crosses into the socket tier instead of
/// sitting in one deep per-core queue.
pub const SCALING_SPILL_THRESHOLD: usize = 16;

/// Submits [`SCALING_LOAD`] machine-wide one-shot tasks all homed on core
/// 0 — the skewed manycore load behind the `steal_scaling_*` ladder.
/// Machine-wide cpusets make every core an eligible claimer/thief, so the
/// drain exercises same-socket overflow claims *and* cross-socket steals.
pub fn submit_manycore_backlog(mgr: &TaskManager) -> Vec<TaskHandle> {
    let n = mgr.topology().n_cores();
    (0..SCALING_LOAD)
        .map(|_| {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::first_n(n))
                .on_core(0)
                .spawn()
        })
        .collect()
}

/// [`drain_until_complete`] over an explicit core list instead of a
/// contiguous range — the `steal_scaling_*` drain cast (one home-socket
/// sibling plus the first core of each remote socket) is not contiguous
/// on any of the manycore presets.
///
/// # Panics
///
/// Panics if the backlog fails to drain within `10 * handles.len()`
/// rounds.
pub fn drain_cores_until_complete(mgr: &TaskManager, cores: &[usize], handles: &[TaskHandle]) {
    let mut rounds = 0;
    while handles.iter().any(|h| !h.is_complete()) {
        for &core in cores {
            mgr.schedule(core);
        }
        rounds += 1;
        assert!(
            rounds <= 10 * handles.len(),
            "scheduler failed to drain the backlog via cores {cores:?}"
        );
    }
}

/// Backlog size of the adaptive-batch ramp scenario: large enough that a
/// fixed [`pioman::DEFAULT_BATCH`] budget needs many passes, while the
/// adaptive budget sizes itself to the observed depth.
pub const ADAPTIVE_RAMP_LOAD: usize = 256;

/// Submits [`ADAPTIVE_RAMP_LOAD`] one-shot tasks on `core`'s Per-Core
/// Queue — the deep-backlog half of the adaptive-batch scenario.
pub fn submit_ramp(mgr: &TaskManager, core: usize) -> Vec<TaskHandle> {
    (0..ADAPTIVE_RAMP_LOAD)
        .map(|_| {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::single(core))
                .spawn()
        })
        .collect()
}

/// Drains `core`'s hierarchy the way an adaptive progression worker does:
/// each keypoint asks [`TaskManager::adaptive_budget`] for its budget and
/// drains at most that much, until a keypoint runs nothing. Returns the
/// total number of tasks executed.
pub fn adaptive_drain(mgr: &TaskManager, core: usize) -> usize {
    let mut ran = 0;
    loop {
        let budget = mgr.adaptive_budget(core);
        let n = mgr.schedule_batch(core, budget);
        if n == 0 {
            return ran;
        }
        ran += n;
    }
}

/// One contended round: [`CONTENDED_THREADS`] real threads each
/// submit+drain [`CONTENDED_OPS`] one-shot tasks. With `per_core`, thread
/// *i* stays on core *i*'s own queue; otherwise every operation goes
/// through the Global Queue's lock (the contention the hierarchy removes).
///
/// Returns the total number of operations, for per-op normalization.
pub fn contended_round(mgr: &TaskManager, per_core: bool) -> usize {
    std::thread::scope(|s| {
        for core in 0..CONTENDED_THREADS {
            s.spawn(move || {
                for _ in 0..CONTENDED_OPS {
                    let set = if per_core {
                        CpuSet::single(core)
                    } else {
                        CpuSet::first_n(16)
                    };
                    let h = mgr.task(|_| TaskStatus::Done).cpuset(set).spawn();
                    while !h.is_complete() {
                        mgr.schedule(core);
                    }
                }
            });
        }
    });
    CONTENDED_THREADS * CONTENDED_OPS
}

/// Tasks in one QoS class-mix backlog, spread evenly over the four
/// classes so every lane set is exercised.
pub const QOS_MIX_LOAD: usize = 64;

/// Submits [`QOS_MIX_LOAD`] one-shot tasks homed on core 0, classes
/// assigned round-robin over [`TaskClass::ALL`] and an EDF deadline tick
/// on every other task (descending, so the deadline lanes genuinely
/// reorder instead of degenerating to FIFO).
pub fn submit_qos_mix(mgr: &TaskManager) -> Vec<TaskHandle> {
    (0..QOS_MIX_LOAD)
        .map(|i| {
            let mut spec = mgr
                .task(|_| TaskStatus::Done)
                .cpuset(CpuSet::single(0))
                .class(TaskClass::ALL[i % CLASS_COUNT]);
            if i % 2 == 0 {
                spec = spec.deadline((QOS_MIX_LOAD - i) as u64);
            }
            spec.spawn()
        })
        .collect()
}

/// Depth of the dependency chain in the waitlist-release scenario.
pub const QOS_CHAIN_LEN: usize = 32;

/// Submits a [`QOS_CHAIN_LEN`]-deep dependency chain on core 0: every
/// task after the first parks on the waitlist until its predecessor's
/// completion path releases it, so a drain pays one release per link.
pub fn submit_qos_chain(mgr: &TaskManager) -> Vec<TaskHandle> {
    let mut handles: Vec<TaskHandle> = Vec::with_capacity(QOS_CHAIN_LEN);
    for _ in 0..QOS_CHAIN_LEN {
        let mut spec = mgr.task(|_| TaskStatus::Done).cpuset(CpuSet::single(0));
        if let Some(prev) = handles.last() {
            spec = spec.after(prev);
        }
        handles.push(spec.spawn());
    }
    handles
}

/// Park timeout used by the `park_wake_latency` scenario: it stands in for
/// the timer-keypoint period of last resort, so the measured wake latency
/// being far below it is the scenario's correctness claim — a parked core
/// reacts to a submission through the wake path, not by timing out.
pub const PARK_WAKE_TIMEOUT: Duration = Duration::from_millis(200);

/// Blocks until `core`'s progression worker announces it is parked.
///
/// # Panics
///
/// Panics after 10 s — a worker that never parks means the park path is
/// broken, which the benchmark must report rather than hang on.
pub fn wait_until_parked(mgr: &TaskManager, core: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !mgr.is_parked(core) {
        assert!(
            Instant::now() < deadline,
            "worker {core} never parked: park path broken"
        );
        std::thread::yield_now();
    }
}

/// Quiet-history rounds of the phase-shift scenario: each submits and
/// adaptively drains a full ramp on the target core, accumulating
/// *uncontended* lock acquisitions. Sized so the history dominates the
/// later burst by well over the window's decay constant — the shape a
/// cumulative ratio would ossify on.
pub const PHASE_QUIET_ROUNDS: usize = 24;

/// Contended rounds forming the burst phase of the phase-shift scenario.
pub const PHASE_BURST_ROUNDS: usize = 4;

/// Phase 1 of the phase-shift scenario: a long uncontended history of
/// ramp drains on `core`.
pub fn phase_quiet_history(mgr: &TaskManager, core: usize) {
    for _ in 0..PHASE_QUIET_ROUNDS {
        let handles = submit_ramp(mgr, core);
        assert_eq!(adaptive_drain(mgr, core), ADAPTIVE_RAMP_LOAD);
        debug_assert!(handles.iter().all(|h| h.is_complete()));
    }
}

/// Phase 2 of the phase-shift scenario: a burst of real-thread contention
/// on the Global Queue (which sits on every core's hierarchy path).
pub fn phase_burst(mgr: &TaskManager) {
    for _ in 0..PHASE_BURST_ROUNDS {
        contended_round(mgr, false);
    }
}

/// Sums `(lock_acquisitions, lock_contended)` over the queues on `core`'s
/// hierarchy path — the same counters `adaptive_budget` reads.
pub fn path_lock_stats(mgr: &TaskManager, core: usize) -> (u64, u64) {
    let stats = mgr.stats();
    mgr.topology()
        .path_to_root(core)
        .map(|node| {
            let q = &stats.queues[node.index()];
            (q.lock_acquisitions, q.lock_contended)
        })
        .fold((0, 0), |(a, c), (qa, qc)| (a + qa, c + qc))
}
