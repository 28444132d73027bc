//! The progression runtime: background workers standing in for the MARCEL
//! thread scheduler's keypoints.
//!
//! In the paper, PIOMan is invoked by the thread scheduler when a CPU goes
//! idle, at context switches, and on timer interrupts (§III, §IV-A). On
//! stock OS threads there is no scheduler to hook, so this module provides
//! the equivalent service: one worker thread per (virtual) core whose idle
//! loop is that core's one keypoint. It invokes the task manager whenever
//! work may be available and parks when its queues are empty — an idle core
//! in the paper's sense. Submissions unpark exactly the workers whose cores
//! may run the new task, and `park_timeout` bounds the latency of event
//! detection even if a wake-up were missed. A core has at most one worker,
//! so a worker keeps the polling tasks only its core may run between
//! keypoints instead of requeueing them (the held lane), and puts them
//! back on their queue when it stops.
//!
//! A keypoint that ran nothing has already tried to steal from every
//! victim, so it is the worker's last check before sleeping: the worker
//! re-checks its own path ([`TaskManager::has_work_for`], unless its
//! keypoint only bounced tasks its core may not run), then counts the
//! park (`park_probe_misses`) and parks. No pre-park check is needed for
//! a wake-up to arrive: a submission unparks every registered worker in
//! its task's cpuset, and a token that lands before `park_timeout` makes
//! it return at once.
//! The full submit → batch → steal → park/wake lifecycle, with its
//! invariants, is documented in `docs/SCHEDULER.md`.

use crate::manager::{HeldLane, Hold, TaskManager};
use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration for [`Progression::start`].
#[derive(Debug, Clone)]
pub struct ProgressionConfig {
    /// Virtual cores to run workers for. Each worker executes the tasks
    /// visible from that core's queue path.
    pub cores: Vec<usize>,
    /// Upper bound on how long an idle worker sleeps before re-checking its
    /// queues (the "timer interrupt" period of last resort).
    pub park_timeout: Duration,
}

impl ProgressionConfig {
    /// Workers for every core of the manager's topology, 100 µs park
    /// timeout.
    pub fn all_cores(mgr: &TaskManager) -> Self {
        Self::for_cores((0..mgr.topology().n_cores()).collect::<Vec<_>>())
    }

    /// Workers for an explicit core list.
    pub fn for_cores(cores: impl Into<Vec<usize>>) -> Self {
        ProgressionConfig {
            cores: cores.into(),
            park_timeout: Duration::from_micros(100),
        }
    }
}

/// Handle to the running progression workers. Shutting down (explicitly or
/// on drop) stops and joins every worker.
pub struct Progression {
    /// Held so the manager outlives the joined workers: its last reference
    /// never drops on a worker thread.
    _mgr: Arc<TaskManager>,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    idle_loops: Arc<AtomicU64>,
}

impl Progression {
    /// Spawns one worker per configured core.
    ///
    /// # Panics
    ///
    /// Panics if a configured core id is outside the manager's topology,
    /// is listed twice, or already has a worker (of another `Progression`
    /// on the same manager): a core has one wake slot, and a second worker
    /// would take it from the first.
    pub fn start(mgr: Arc<TaskManager>, config: ProgressionConfig) -> Progression {
        let n = mgr.topology().n_cores();
        for &c in &config.cores {
            assert!(c < n, "progression core {c} outside topology ({n} cores)");
        }
        // A core listed twice is refused by its own first claim.
        for (i, &c) in config.cores.iter().enumerate() {
            if !mgr.claim_worker(c) {
                for &claimed in &config.cores[..i] {
                    mgr.unregister_waker(claimed);
                }
                panic!("progression core {c} already has a worker");
            }
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let idle_loops = Arc::new(AtomicU64::new(0));
        let workers: Vec<JoinHandle<()>> = config
            .cores
            .iter()
            .map(|&core| {
                let mgr = mgr.clone();
                let shutdown = shutdown.clone();
                let idle_loops = idle_loops.clone();
                let park = config.park_timeout;
                std::thread::Builder::new()
                    .name(format!("piom-worker-{core}"))
                    .spawn(move || {
                        mgr.register_waker(core, std::thread::current());
                        // The repeat tasks only this core may run, kept
                        // out of the queues between keypoints; put back
                        // on their home queue when the lane drops.
                        let mut held = HeldLane::new(&mgr);
                        while !shutdown.load(Ordering::Acquire) {
                            // The worker *is* the idle loop: invoke the idle
                            // keypoint; park when nothing was runnable. The
                            // budget is the backlog visible now, capped at
                            // MAX_BATCH, plus one run per held task, so a
                            // flood on one queue cannot keep the worker
                            // away from its shutdown/park checks
                            // indefinitely.
                            let budget = mgr.adaptive_budget(core) + held.len();
                            let (ran, bounce_only) = held.keypoint(core, budget);
                            if ran > 0 {
                                continue;
                            }
                            idle_loops.fetch_add(1, Ordering::Relaxed);
                            // Work on the path — arrived since, or behind a
                            // pass the budget cut short: run another
                            // keypoint. A bounce-only keypoint saw the whole
                            // path: a runnable submission since has its own
                            // unpark token.
                            if !bounce_only && mgr.has_work_for(core) {
                                continue;
                            }
                            // The keypoint's steal scan found nothing
                            // either: park until a submission's unpark
                            // token or the timeout.
                            mgr.count_park(core);
                            std::thread::park_timeout(park);
                        }
                        drop(held);
                        mgr.unregister_waker(core);
                    })
                    .expect("spawn progression worker")
            })
            .collect();

        Progression {
            _mgr: mgr,
            shutdown,
            workers,
            idle_loops,
        }
    }

    /// Worker loop iterations that found nothing to run (activity metric).
    pub fn idle_loops(&self) -> u64 {
        self.idle_loops.load(Ordering::Relaxed)
    }

    /// Stops and joins every worker. Idempotent; also called on drop.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        for w in &self.workers {
            w.thread().unpark();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Progression {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskStatus;
    use piom_cpuset::CpuSet;
    use piom_topology::presets;

    #[test]
    fn background_worker_completes_tasks() {
        let mgr = TaskManager::new(presets::symmetric(1, 1, 2).into());
        let mut prog = Progression::start(mgr.clone(), ProgressionConfig::all_cores(&mgr));
        let h = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::from_iter([0, 1]))
            .spawn();
        assert_eq!(h.wait(), Ok(()), "worker ran the task without help");
        prog.shutdown();
    }

    #[test]
    fn repeat_polling_task_progresses_in_background() {
        let mgr = TaskManager::new(presets::symmetric(1, 1, 2).into());
        let _prog = Progression::start(mgr.clone(), ProgressionConfig::all_cores(&mgr));
        let mut countdown = 50;
        let h = mgr
            .task(move |_| {
                countdown -= 1;
                if countdown == 0 {
                    TaskStatus::Done
                } else {
                    TaskStatus::Again
                }
            })
            .cpuset(CpuSet::single(0))
            .repeat()
            .spawn();
        assert_eq!(h.wait(), Ok(()));
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mgr = TaskManager::new(presets::uniprocessor().into());
        let mut prog = Progression::start(mgr.clone(), ProgressionConfig::for_cores(vec![0]));
        prog.shutdown();
        prog.shutdown();
        drop(prog);
    }

    #[test]
    fn shutdown_with_work_in_flight_leaves_it_queued() {
        let mgr = TaskManager::new(presets::symmetric(1, 1, 2).into());
        let runs = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (r, s) = (runs.clone(), stop.clone());
        let poll = mgr
            .task(move |_| {
                r.fetch_add(1, Ordering::Relaxed);
                if s.load(Ordering::Acquire) {
                    TaskStatus::Done
                } else {
                    TaskStatus::Again
                }
            })
            .cpuset(CpuSet::single(1))
            .repeat()
            .spawn();
        let dependent = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(1))
            .after(&poll)
            .spawn();
        let mut prog = Progression::start(mgr.clone(), ProgressionConfig::for_cores(vec![1]));
        while runs.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        prog.shutdown();
        // The worker stopped between keypoints: the poll went back to its
        // queue after its last run, and its dependent is still parked.
        assert!(!poll.is_complete());
        assert!(mgr.pending_tasks() >= 1, "the repeat task is still queued");
        assert!(!dependent.is_complete(), "the dependent was not released");
        // Any thread can finish the work by hand.
        stop.store(true, Ordering::Release);
        assert!(mgr.schedule(1));
        assert!(poll.is_complete());
        assert!(mgr.schedule(1));
        assert!(dependent.is_complete());
        assert_eq!(mgr.pending_tasks(), 0);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn bad_core_panics() {
        let mgr = TaskManager::new(presets::uniprocessor().into());
        let _ = Progression::start(mgr, ProgressionConfig::for_cores(vec![5]));
    }
    #[test]
    #[should_panic(expected = "already has a worker")]
    fn duplicate_core_panics() {
        let mgr = TaskManager::new(presets::uniprocessor().into());
        let _ = Progression::start(mgr, ProgressionConfig::for_cores(vec![0, 0]));
    }
}
