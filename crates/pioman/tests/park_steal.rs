//! Parking and waking: the park/wake contract of `docs/SCHEDULER.md` §3
//! on real `Progression` worker threads.
//!
//! The paper-critical property — an idle core reacts to a remote backlog
//! without waiting for a park timeout — is pinned with the timeout set to
//! an hour, and the waits are bounded and only on *observable* state
//! (counted parks, task completion), never on sleeps standing in for
//! scheduling decisions.

use piom_cpuset::CpuSet;
use piom_topology::presets;
use pioman::{Progression, ProgressionConfig, TaskHandle, TaskManager, TaskStatus, MAX_BATCH};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `true` once `core`'s worker has counted a park (`park_probe_misses`):
/// its last keypoint and the own-path re-check found nothing, and it is
/// parked or about to call `park_timeout`. With no work anywhere it may
/// run, that is where the worker stays.
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

/// A keypoint that finds nothing parks the worker at once, whatever an old
/// cpuset once admitted. Core 12's queue held tasks core 0 could steal
/// and now holds four it may not run: a worker on core 0 runs one dry
/// keypoint, counts one park and sleeps, and the four tasks stay put.
#[test]
fn a_dry_keypoint_parks_the_worker_once_beside_backlog_it_may_not_run() {
    let mgr = TaskManager::new(presets::kwak().into());
    for _ in 0..4 {
        mgr.task(|_| TaskStatus::Done)
            .cpuset(CpuSet::from_iter([0, 12]))
            .on_core(12)
            .spawn();
    }
    for _ in 0..4 {
        mgr.task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(12))
            .spawn();
    }
    while mgr.schedule(0) {}
    assert_eq!(mgr.stats().stolen_by_core[0], 4);
    let config = ProgressionConfig {
        park_timeout: Duration::from_secs(3600),
        ..ProgressionConfig::for_cores(vec![0])
    };
    let prog = Progression::start(mgr.clone(), config);
    wait_for("worker 0 to park", || parked(&mgr, 0));
    assert_eq!(prog.idle_loops(), 1, "one dry keypoint before the park");
    assert_eq!(mgr.stats().park_probe_misses[0], 1);
    assert_eq!(mgr.pending_tasks(), 4, "the core-12 tasks are still there");
}

/// A worker whose path holds only a task it may not run still parks. Core
/// 5's NUMA queue (cores 4–7) holds a task for cores {4, 6}: every idle
/// keypoint of worker 5 takes it and puts it back. That backlog is not work
/// for core 5, so the worker must park, not spin on the bounced task.
#[test]
fn worker_parks_when_its_path_holds_only_tasks_it_may_not_run() {
    let mgr = TaskManager::new(presets::kwak().into());
    let config = ProgressionConfig {
        park_timeout: Duration::from_millis(1),
        ..ProgressionConfig::for_cores(vec![5])
    };
    let prog = Progression::start(mgr.clone(), config);
    wait_for("worker 5 to park", || parked(&mgr, 5));
    // Idle keypoints per second and parks over a 200 ms window.
    let rates = || {
        let (loops, parks) = (prog.idle_loops(), mgr.stats().park_probe_misses[5]);
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(200));
        let secs = t0.elapsed().as_secs_f64();
        let parks = mgr.stats().park_probe_misses[5] - parks;
        ((prog.idle_loops() - loops) as f64 / secs, parks)
    };
    let (baseline, _) = rates();
    let _foreign = mgr
        .task(|_| TaskStatus::Done)
        .cpuset(CpuSet::from_iter([4, 6]))
        .spawn();
    let (loops, parks) = rates();
    assert!(parks >= 10, "worker 5 parked {parks} times in 200 ms");
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
/// counted since the previous submission: the worker counts a park right
/// before `park_timeout`), submits, and requires completion with the park
/// timeout far past the test bound — only a delivered unpark token can
/// finish the round. This is the one pin on the wake protocol: every
/// submission unparks the registered workers in its cpuset, and a token
/// that lands before `park_timeout` makes it return at once.
#[test]
fn submission_racing_a_parking_worker_never_loses_the_wake() {
    let mgr = TaskManager::new(presets::kwak().into());
    let config = ProgressionConfig {
        park_timeout: Duration::from_secs(3600), // park "forever"
        ..ProgressionConfig::for_cores(vec![3])
    };
    let _prog = Progression::start(mgr.clone(), config);
    let parks = || mgr.stats().park_probe_misses[3];
    // Parks counted before the previous submission: the worker's first
    // park after running that task is past this count.
    let mut before = 0;
    for round in 0..200 {
        // Alternate between racing an already-parked worker and racing the
        // park decision itself (submitting the instant the worker's queue
        // runs dry, before it has counted its park).
        if round % 2 == 0 {
            wait_for("worker 3 to park", || parks() > before);
        }
        before = parks();
        let h = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(3))
            .spawn();
        wait_for("racing submission to complete", || h.is_complete());
    }
}

/// Live workers: a backlog submitted for a busy home core is finished by a
/// progression worker on another core with the park timeout far beyond the
/// test bound — completion can only come from the wake/steal path.
#[test]
fn live_worker_steals_distant_backlog_without_timer() {
    let mgr = TaskManager::new(presets::kwak().into());
    let config = ProgressionConfig {
        park_timeout: Duration::from_secs(3600), // park "forever"
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
    assert_eq!(stats.stolen_by_core[0], 16);
}

/// The submission's own wake, end to end: a parked distant worker whose
/// core is in the tasks' cpuset is unparked by the submissions themselves
/// (`wake_cores`), finds nothing on its own path, and drains the backlog
/// homed on core 0 (which has no worker) by stealing — long before its
/// park timeout.
#[test]
fn submission_wakes_a_parked_thief_in_the_task_cpuset_end_to_end() {
    let mgr = TaskManager::new(presets::kwak().into());
    let config = ProgressionConfig {
        park_timeout: Duration::from_secs(3600),
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
    assert_eq!(stats.stolen_by_core[8], 16, "the woken thief drained it");
}

/// One worker per core: a core has one wake slot, so a second `Progression`
/// on a core that already has a worker is refused, and the first worker
/// keeps its wake. Were the second accepted, it would take the slot, and
/// once it shut down submissions would never unpark the first again: with
/// a one-hour park timeout, the task below would not run.
#[test]
fn a_second_worker_on_a_core_is_refused_and_the_first_keeps_its_wake() {
    let mgr = TaskManager::new(presets::kwak().into());
    let config = || ProgressionConfig {
        park_timeout: Duration::from_secs(3600),
        ..ProgressionConfig::for_cores(vec![0])
    };
    let _first = Progression::start(mgr.clone(), config());
    let start = |config| catch_unwind(AssertUnwindSafe(|| Progression::start(mgr.clone(), config)));
    assert!(
        start(config()).is_err(),
        "a second worker on core 0 was accepted"
    );
    // A refused start keeps no claim: one on cores {1, 0} claims core 1,
    // is refused on core 0 and gives core 1 back.
    assert!(start(ProgressionConfig::for_cores(vec![1, 0])).is_err());
    drop(Progression::start(
        mgr.clone(),
        ProgressionConfig::for_cores(vec![1]),
    ));
    wait_for("worker 0 to park", || parked(&mgr, 0));
    let h = mgr
        .task(|_| TaskStatus::Done)
        .cpuset(CpuSet::single(0))
        .spawn();
    wait_for("the first worker to run the task", || h.is_complete());
    assert_eq!(mgr.stats().executed_by_core[0], 1);
}

/// A worker on `core` alone with a one-hour park timeout: only unpark
/// tokens wake it.
fn sleepy_worker(mgr: &Arc<TaskManager>, core: usize) -> Progression {
    let config = ProgressionConfig {
        park_timeout: Duration::from_secs(3600),
        ..ProgressionConfig::for_cores(vec![core])
    };
    Progression::start(mgr.clone(), config)
}

/// A repeat task over `cpuset`, homed on `home`, that counts its runs in
/// `runs` and returns `Again` until `stop` is set.
fn poller(
    mgr: &TaskManager,
    cpuset: CpuSet,
    home: usize,
    runs: &Arc<AtomicU64>,
    stop: &Arc<AtomicBool>,
) -> TaskHandle {
    let (runs, stop) = (runs.clone(), stop.clone());
    mgr.task(move |_| {
        runs.fetch_add(1, Ordering::Relaxed);
        if stop.load(Ordering::Acquire) {
            TaskStatus::Done
        } else {
            TaskStatus::Again
        }
    })
    .cpuset(cpuset)
    .on_core(home)
    .repeat()
    .spawn()
}

/// Acquisitions of `core`'s own queue lock.
fn core_queue_locks(mgr: &TaskManager, core: usize) -> u64 {
    let queue = mgr.topology().core_node(core).index();
    mgr.stats().queues[queue].lock_acquisitions
}

/// The held lane: a worker keeps a repeat task only its core may run, so
/// a poll takes no queue lock. Core 1's queue lock stays flat over a
/// thousand polls, and a one-shot task spawned meanwhile still runs, for
/// exactly its enqueue and one drain.
#[test]
fn a_held_poller_takes_no_queue_lock_and_new_work_still_runs() {
    const POLLS: u64 = 1_000;
    let mgr = TaskManager::new(presets::kwak().into());
    let _prog = sleepy_worker(&mgr, 1);
    let (runs, stop) = (
        Arc::new(AtomicU64::new(0)),
        Arc::new(AtomicBool::new(false)),
    );
    let poll = poller(&mgr, CpuSet::single(1), 1, &runs, &stop);
    wait_for("the first poll", || runs.load(Ordering::Relaxed) > 0);
    let (r0, locks) = (runs.load(Ordering::Relaxed), core_queue_locks(&mgr, 1));
    wait_for("a thousand polls", || {
        runs.load(Ordering::Relaxed) > r0 + POLLS
    });
    assert_eq!(core_queue_locks(&mgr, 1), locks, "a held poll locked");
    let one_shot = mgr
        .task(|_| TaskStatus::Done)
        .cpuset(CpuSet::single(1))
        .spawn();
    wait_for("the one-shot task", || one_shot.is_complete());
    let (r1, after) = (runs.load(Ordering::Relaxed), core_queue_locks(&mgr, 1));
    assert_eq!(after, locks + 2, "the one-shot task's enqueue and drain");
    wait_for("more polls", || runs.load(Ordering::Relaxed) > r1 + POLLS);
    assert_eq!(core_queue_locks(&mgr, 1), locks + 2);
    assert!(!poll.is_complete());
    assert_eq!(mgr.pending_tasks(), 0, "the poller is held, not queued");
    stop.store(true, Ordering::Release);
    wait_for("the poller to finish", || poll.is_complete());
}

/// Once its held poller returns `Done` the worker holds nothing: it parks,
/// and a later submission wakes it (the park timeout is an hour).
#[test]
fn a_worker_whose_held_poller_finishes_parks_and_wakes_for_new_work() {
    let mgr = TaskManager::new(presets::kwak().into());
    let _prog = sleepy_worker(&mgr, 1);
    wait_for("worker 1 to park", || parked(&mgr, 1));
    let (runs, stop) = (
        Arc::new(AtomicU64::new(0)),
        Arc::new(AtomicBool::new(false)),
    );
    let poll = poller(&mgr, CpuSet::single(1), 1, &runs, &stop);
    wait_for("a hundred polls", || runs.load(Ordering::Relaxed) > 100);
    let misses = mgr.stats().park_probe_misses[1];
    stop.store(true, Ordering::Release);
    wait_for("the poller to finish", || poll.is_complete());
    wait_for("worker 1 to park again", || {
        mgr.stats().park_probe_misses[1] > misses
    });
    let runs_done = runs.load(Ordering::Relaxed);
    let h = mgr
        .task(|_| TaskStatus::Done)
        .cpuset(CpuSet::single(1))
        .spawn();
    wait_for("the woken worker to run the task", || h.is_complete());
    assert_eq!(runs.load(Ordering::Relaxed), runs_done, "nothing held");
}

/// A repeat task that another core may also run is not held: under a live
/// worker on core 1, a `{0, 1}` poller homed there goes back to core 1's
/// queue after each `Again` — a dequeue and a requeue, two lock
/// acquisitions per poll — where an idle core 0 could take it.
#[test]
fn a_wider_repeat_task_still_requeues_home_under_a_live_worker() {
    const POLLS: u64 = 1_000;
    let mgr = TaskManager::new(presets::kwak().into());
    let _prog = sleepy_worker(&mgr, 1);
    let (runs, stop) = (
        Arc::new(AtomicU64::new(0)),
        Arc::new(AtomicBool::new(false)),
    );
    let poll = poller(&mgr, CpuSet::from_iter([0, 1]), 1, &runs, &stop);
    wait_for("the first poll", || runs.load(Ordering::Relaxed) > 0);
    // Each poll locks once before its run is counted and once after, so
    // the lock count is within one of 2 × runs plus a constant. Sampled
    // locks-then-runs at the start and runs-then-locks at the end, the
    // race can only shrink the run delta against the lock delta.
    let l0 = core_queue_locks(&mgr, 1);
    let r0 = runs.load(Ordering::Relaxed);
    wait_for("a thousand polls", || {
        runs.load(Ordering::Relaxed) > r0 + POLLS
    });
    let r1 = runs.load(Ordering::Relaxed);
    let l1 = core_queue_locks(&mgr, 1);
    assert!(
        l1 - l0 >= 2 * (r1 - r0 - 1),
        "{} polls took {} lock acquisitions",
        r1 - r0,
        l1 - l0
    );
    stop.store(true, Ordering::Release);
    wait_for("the poller to finish", || poll.is_complete());
    let stats = mgr.stats();
    assert_eq!(stats.executed_by_core[0], 0);
    assert_eq!(stats.total_stolen(), 0);
}

/// `docs/SCHEDULER.md` §6's identity, Σ queue `executed` + Σ `claimed` =
/// `total_executed()`, with a worker holding a poller: a held run counts on
/// its home queue at hand-out. Inside the poll — the one run in flight,
/// counted at hand-out and not yet as a run — the sides differ by exactly
/// one; once the poller is done, they agree.
#[test]
fn the_counter_identity_holds_with_a_held_poller() {
    let mgr = TaskManager::new(presets::kwak().into());
    let _prog = sleepy_worker(&mgr, 1);
    let gap_inside = Arc::new(AtomicU64::new(u64::MAX));
    let (runs, stop) = (
        Arc::new(AtomicU64::new(0)),
        Arc::new(AtomicBool::new(false)),
    );
    let filler = mgr
        .task(|_| TaskStatus::Done)
        .cpuset(CpuSet::range(0..4))
        .spawn();
    let poll = {
        let (gap, runs, stop) = (gap_inside.clone(), runs.clone(), stop.clone());
        mgr.task(move |ctx| {
            if runs.fetch_add(1, Ordering::Relaxed) == 100 {
                let stats = ctx.manager.stats();
                let by_queue: u64 = stats.queues.iter().map(|q| q.executed).sum();
                gap.store(
                    by_queue + stats.total_claimed() - stats.total_executed(),
                    Ordering::Relaxed,
                );
                stop.store(true, Ordering::Release);
            }
            if stop.load(Ordering::Acquire) {
                TaskStatus::Done
            } else {
                TaskStatus::Again
            }
        })
        .cpuset(CpuSet::single(1))
        .repeat()
        .spawn()
    };
    wait_for("the poller to finish", || poll.is_complete());
    assert_eq!(gap_inside.load(Ordering::Relaxed), 1);
    wait_for("the filler", || filler.is_complete());
    let stats = mgr.stats();
    let by_queue: u64 = stats.queues.iter().map(|q| q.executed).sum();
    assert_eq!(stats.total_executed(), 102, "101 polls and the filler");
    assert_eq!(by_queue + stats.total_claimed(), stats.total_executed());
    let home = mgr.topology().core_node(1).index();
    assert_eq!(
        stats.queues[home].executed, 101,
        "every poll counts at home"
    );
}
