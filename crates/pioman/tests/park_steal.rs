//! Steal-aware parking: deterministic coverage of the PR-4 park/wake
//! contract (`docs/SCHEDULER.md`).
//!
//! The first test drives the worker lifecycle *by hand* — the park-probe
//! decision and the keypoints it feeds back into are public API — so the
//! paper-critical property ("an idle core reacts to a remote backlog
//! without waiting for a timer keypoint") is asserted with zero timing
//! dependence. The live-`Progression` tests then pin the same contract on
//! real worker threads, with bounded waits only on *observable* state
//! (park-probe misses, task completion), never on sleeps standing in for
//! scheduling decisions.

use piom_cpuset::CpuSet;
use piom_topology::presets;
use pioman::{Progression, ProgressionConfig, TaskManager, TaskStatus, MAX_BATCH};
use std::time::{Duration, Instant};

/// `true` once `core`'s worker has had a park probe miss: it has run every
/// pre-park check and is parked or about to call `park_timeout`. With no
/// work anywhere it may run, that is where the worker stays.
fn parked(mgr: &TaskManager, core: usize) -> bool {
    mgr.stats().park_probe_misses[core] > 0
}

/// Spins until `cond` holds, failing the test after a generous bound.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// The satellite scenario, fully deterministic: core 0's own hierarchy is
/// empty while a *distant* victim (core 12, across the kwak interconnect)
/// holds a backlog core 0 may steal. The pre-park probe must see it —
/// sending the worker back to the keypoint, whose steal path drains the
/// backlog — without a single timer keypoint firing.
#[test]
fn park_probe_path_drains_distant_backlog_without_timer() {
    let mgr = TaskManager::new(presets::kwak().into());
    let handles: Vec<_> = (0..8)
        .map(|_| {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::from_iter([0, 12]))
                .on_core(12)
                .spawn()
        })
        .collect();

    // The worker contract, executed synchronously for core 0: a dry idle
    // keypoint is followed by the own-path re-check and the park probe.
    assert!(!mgr.has_work_for(0), "core 0's own path is empty");
    assert!(
        mgr.park_probe(0),
        "the probe must see the distant stealable backlog"
    );
    // A hit means "do not park: run another keypoint" — which steals.
    let mut rounds = 0;
    while handles.iter().any(|h| !h.is_complete()) {
        assert!(mgr.schedule(0), "post-hit keypoint found nothing");
        rounds += 1;
        assert!(rounds <= 8, "steal-half should drain 8 tasks in ≤ 4 probes");
    }

    let stats = mgr.stats();
    assert!(stats.park_probe_hits[0] > 0, "the probe path was exercised");
    assert_eq!(stats.hook_timer, 0, "no timer keypoint fired");
    assert_eq!(stats.stolen_by_core[0], 8, "everything came via steals");
    assert_eq!(stats.executed_by_core[12], 0, "the home core never ran");
}

/// Steal-span decay (PR 5): once a wide-span queue drains empty, its span
/// stops admitting distant cores, so new backlog that core 0 may *not*
/// steal no longer produces park-probe false positives. Before the decay
/// the span was a forever-monotone union — the `{0, 12}` bits from the
/// drained backlog would have made the probe hit on core-12-only work.
#[test]
fn park_probe_stops_hitting_after_wide_span_decays() {
    let mgr = TaskManager::new(presets::kwak().into());
    let handles: Vec<_> = (0..4)
        .map(|_| {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::from_iter([0, 12]))
                .on_core(12)
                .spawn()
        })
        .collect();
    assert!(mgr.park_probe(0), "wide backlog present: probe must hit");
    while handles.iter().any(|h| !h.is_complete()) {
        assert!(mgr.schedule(0));
    }
    // New backlog on the same queue, but core 0 is excluded this time.
    for _ in 0..4 {
        mgr.task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(12))
            .spawn();
    }
    assert!(
        !mgr.park_probe(0),
        "decayed span must reject the core-12-only backlog (tightened filter)"
    );
    let queue = mgr.topology().core_node(12).index();
    let span = mgr.stats().queues[queue].steal_span;
    assert!(
        span.contains(12) && !span.contains(0),
        "span rebuilt narrow"
    );
    assert_eq!(mgr.schedule_batch(12, usize::MAX), 4, "no task was lost");
}

/// A worker whose path holds only a task it may not run still parks. Core
/// 5's NUMA queue (cores 4–7) holds a task for cores {4, 6}: every idle
/// keypoint of worker 5 takes it and puts it back. That backlog is not work
/// for core 5, so the worker must go on to its park probe and sleep, not
/// spin on the bounced task.
#[test]
fn worker_parks_when_its_path_holds_only_tasks_it_may_not_run() {
    let mgr = TaskManager::new(presets::kwak().into());
    let config = ProgressionConfig {
        park_timeout: Duration::from_millis(1),
        timer_period: None,
        ..ProgressionConfig::for_cores(vec![5])
    };
    let prog = Progression::start(mgr.clone(), config);
    wait_for("worker 5 to park", || parked(&mgr, 5));
    // Idle keypoints and park-probe misses per second over a 200 ms window.
    let rates = || {
        let (loops, misses) = (prog.idle_loops(), mgr.stats().park_probe_misses[5]);
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(200));
        let secs = t0.elapsed().as_secs_f64();
        let misses = mgr.stats().park_probe_misses[5] - misses;
        ((prog.idle_loops() - loops) as f64 / secs, misses)
    };
    let (baseline, _) = rates();
    let _foreign = mgr
        .task(|_| TaskStatus::Done)
        .cpuset(CpuSet::from_iter([4, 6]))
        .spawn();
    let (loops, misses) = rates();
    assert!(misses >= 10, "worker 5 parked {misses} times in 200 ms");
    assert!(
        loops <= 3.0 * baseline.max(1.0),
        "worker 5 spun: {loops:.0} idle keypoints/s against {baseline:.0} with no task"
    );
    assert_eq!(
        mgr.pending_tasks(),
        1,
        "the task is still there for core 4 or 6"
    );
}

/// The other side of that rule: a keypoint whose budget cut a pass short
/// has not seen the whole path. With more than [`MAX_BATCH`] tasks for
/// cores {4, 6} ahead of one that core 5 may run, worker 5's first keypoint
/// only bounces; it must re-check its path and reach the runnable task,
/// not park for its (here unbounded) timeout with the wake already spent.
#[test]
fn worker_reaches_a_runnable_task_behind_a_full_budget_of_foreign_ones() {
    let mgr = TaskManager::new(presets::kwak().into());
    let config = ProgressionConfig {
        park_timeout: Duration::from_secs(3600),
        timer_period: None,
        ..ProgressionConfig::for_cores(vec![5])
    };
    let _prog = Progression::start(mgr.clone(), config);
    wait_for("worker 5 to park", || parked(&mgr, 5));
    for _ in 0..MAX_BATCH + 44 {
        mgr.task(|_| TaskStatus::Done)
            .cpuset(CpuSet::from_iter([4, 6]))
            .spawn();
    }
    let runnable = mgr
        .task(|_| TaskStatus::Done)
        .cpuset(CpuSet::from_iter([4, 5, 6]))
        .spawn();
    wait_for("the task behind the foreign ones", || {
        runnable.is_complete()
    });
    assert_eq!(mgr.stats().executed_by_core[5], 1);
}

/// The lost-wake probe: hammer the exact race the wake protocol must close
/// — a submission landing at the very moment the worker decides to park.
/// Each even round waits for the worker to be *observably parked* (a park
/// probe miss since the previous submission: every pre-park check already
/// ran), submits, and requires completion with the timer disabled and the
/// park timeout far past the test bound — only a delivered unpark token
/// can finish the round. This is the one pin on the wake protocol: every
/// submission unparks the registered workers in its cpuset, and a token
/// that lands before `park_timeout` makes it return at once.
#[test]
fn submission_racing_a_parking_worker_never_loses_the_wake() {
    let mgr = TaskManager::new(presets::kwak().into());
    let config = ProgressionConfig {
        park_timeout: Duration::from_secs(3600), // park "forever"
        timer_period: None,
        ..ProgressionConfig::for_cores(vec![3])
    };
    let _prog = Progression::start(mgr.clone(), config);
    let misses = || mgr.stats().park_probe_misses[3];
    // Misses counted before the previous submission: the worker's first
    // miss after running that task is past this count.
    let mut before = 0;
    for round in 0..200 {
        // Alternate between racing an already-parked worker and racing the
        // park decision itself (submitting the instant the worker's queue
        // runs dry, before its pre-park checks have run).
        if round % 2 == 0 {
            wait_for("worker 3 to park", || misses() > before);
        }
        before = misses();
        let h = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(3))
            .spawn();
        wait_for("racing submission to complete", || h.is_complete());
    }
    assert_eq!(mgr.stats().hook_timer, 0, "no timer keypoint ever fired");
}

/// Live workers: a backlog submitted for a busy home core is finished by a
/// progression worker on another core with the timer disabled and the park
/// timeout far beyond the test bound — completion can only come from the
/// wake/steal path, never from a timer keypoint.
#[test]
fn live_worker_steals_distant_backlog_without_timer() {
    let mgr = TaskManager::new(presets::kwak().into());
    let config = ProgressionConfig {
        park_timeout: Duration::from_secs(3600), // park "forever"
        timer_period: None,
        ..ProgressionConfig::for_cores(vec![0])
    };
    let _prog = Progression::start(mgr.clone(), config);
    let handles: Vec<_> = (0..16)
        .map(|_| {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::from_iter([0, 12]))
                .on_core(12)
                .spawn()
        })
        .collect();
    // Bounded: a lost wake fails here instead of hanging on `wait()`.
    wait_for("the backlog to drain", || {
        handles.iter().all(|h| h.is_complete())
    });
    let stats = mgr.stats();
    assert_eq!(stats.hook_timer, 0, "no timer keypoint fired");
    assert_eq!(stats.stolen_by_core[0], 16);
}

/// The submission's own wake, end to end: a parked distant worker whose
/// core is in the tasks' cpuset is unparked by the submissions themselves
/// (`wake_cores`), finds nothing on its own path, and drains the backlog
/// homed on core 0 (which has no worker) by stealing — without a timer.
#[test]
fn submission_wakes_a_parked_thief_in_the_task_cpuset_end_to_end() {
    let mgr = TaskManager::new(presets::kwak().into());
    let config = ProgressionConfig {
        park_timeout: Duration::from_secs(3600),
        timer_period: None,
        ..ProgressionConfig::for_cores(vec![8])
    };
    let _prog = Progression::start(mgr.clone(), config);
    wait_for("worker 8 to park", || parked(&mgr, 8));

    let handles: Vec<_> = (0..16)
        .map(|_| {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::from_iter([0, 8]))
                .on_core(0)
                .spawn()
        })
        .collect();
    // Bounded: a lost wake fails here instead of hanging on `wait()`.
    wait_for("the backlog to drain", || {
        handles.iter().all(|h| h.is_complete())
    });
    let stats = mgr.stats();
    assert_eq!(stats.hook_timer, 0, "no timer keypoint fired");
    assert_eq!(stats.stolen_by_core[8], 16, "the woken thief drained it");
}
