//! The progression runtime: background workers standing in for the MARCEL
//! thread scheduler's keypoints.
//!
//! In the paper, PIOMan is invoked by the thread scheduler when a CPU goes
//! idle, at context switches, and on timer interrupts (§III, §IV-A). On
//! stock OS threads there is no scheduler to hook, so this module provides
//! the equivalent service: one worker thread per (virtual) core that invokes
//! the task manager whenever work may be available, parking itself when its
//! queues are empty — an idle core in the paper's sense. Submissions unpark
//! exactly the workers whose cores may run the new task, and an optional
//! timer thread plays the role of the timer interrupt, bounding the latency
//! of event detection even when wake-ups race.
//!
//! Parking is **steal-aware**: before sleeping, a worker re-checks its
//! own path ([`TaskManager::has_work_for`], unless its keypoint only
//! bounced tasks its core may not run) and then runs the cheap
//! [`TaskManager::park_probe`] over its victim queues — a hit sends it
//! back to the keypoint (where the steal path will take the backlog)
//! instead of to sleep, so a remote imbalance is picked up in probe time
//! rather than a park-timeout/timer period. Because the probe's span
//! filter may over-approximate, consecutive fruitless hits are bounded
//! ([`MAX_PROBE_STRIKES`]) before the worker parks anyway. None of these
//! checks is needed for a wake-up to arrive: a submission unparks every
//! registered worker in its task's cpuset, and a token that lands before
//! `park_timeout` makes it return at once.
//! The full submit → batch → steal → park/wake lifecycle, with its
//! invariants, is documented in `docs/SCHEDULER.md`.

use crate::manager::{HookPoint, TaskManager};
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
    /// Optional timer thread running every configured core's [`HookPoint::TimerInterrupt`]
    /// keypoint itself at this period, independent of submissions; it unparks no worker.
    pub timer_period: Option<Duration>,
}

/// Upper bound on *consecutive* park probes that report stealable backlog
/// without the following keypoint actually running anything. The probe's
/// span filter may over-approximate the live backlog (see
/// [`TaskManager::park_probe`]; it decays when the queue drains empty,
/// but bits for tasks still enqueued can also mislead a core those tasks
/// exclude); after this many fruitless hits the worker parks anyway and
/// the park-timeout/timer bound takes over.
pub const MAX_PROBE_STRIKES: u32 = 3;

impl ProgressionConfig {
    /// Workers for every core of the manager's topology, 100 µs park
    /// timeout, no dedicated timer thread.
    pub fn all_cores(mgr: &TaskManager) -> Self {
        Self::for_cores((0..mgr.topology().n_cores()).collect::<Vec<_>>())
    }

    /// Workers for an explicit core list.
    pub fn for_cores(cores: impl Into<Vec<usize>>) -> Self {
        ProgressionConfig {
            cores: cores.into(),
            park_timeout: Duration::from_micros(100),
            timer_period: None,
        }
    }
}

/// Handle to the running progression workers. Shutting down (explicitly or
/// on drop) stops and joins every worker.
pub struct Progression {
    mgr: Arc<TaskManager>,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    timer: Option<JoinHandle<()>>,
    idle_loops: Arc<AtomicU64>,
    cores: Vec<usize>,
}

impl Progression {
    /// Spawns the workers (and timer thread, if configured).
    ///
    /// # Panics
    ///
    /// Panics if a configured core id is outside the manager's topology.
    pub fn start(mgr: Arc<TaskManager>, config: ProgressionConfig) -> Progression {
        let n = mgr.topology().n_cores();
        for &c in &config.cores {
            assert!(c < n, "progression core {c} outside topology ({n} cores)");
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
                        // Consecutive park probes that hit but whose next
                        // keypoint still ran nothing (a stale steal span,
                        // or work this core may not run).
                        let mut probe_strikes = 0u32;
                        while !shutdown.load(Ordering::Acquire) {
                            // The worker *is* the idle loop: invoke the idle
                            // keypoint; park when nothing was runnable. The
                            // budget is the backlog visible now, capped at
                            // MAX_BATCH, so a flood on one queue cannot
                            // keep the worker away from its shutdown/park
                            // checks indefinitely.
                            let budget = mgr.adaptive_budget(core);
                            let (ran, bounce_only) =
                                mgr.keypoint(Some(HookPoint::Idle), core, budget);
                            if ran > 0 {
                                probe_strikes = 0;
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
                            // The steal-aware park check: a hit means a
                            // victim queue has backlog this core may be
                            // able to steal — run another keypoint (whose
                            // steal probe takes it) instead of parking.
                            // Strikes bound the spin when the span filter
                            // over-approximates: after MAX_PROBE_STRIKES
                            // fruitless hits the worker parks anyway and
                            // the park timeout / timer takes over.
                            if probe_strikes < MAX_PROBE_STRIKES && mgr.park_probe(core) {
                                probe_strikes += 1;
                                continue;
                            }
                            std::thread::park_timeout(park);
                            probe_strikes = 0;
                        }
                        mgr.unregister_waker(core);
                    })
                    .expect("spawn progression worker")
            })
            .collect();

        let timer = config.timer_period.map(|period| {
            let mgr = mgr.clone();
            let shutdown = shutdown.clone();
            let cores = config.cores.clone();
            std::thread::Builder::new()
                .name("piom-timer".to_owned())
                .spawn(move || {
                    while !shutdown.load(Ordering::Acquire) {
                        std::thread::sleep(period);
                        // A broadcast timer interrupt in software: this
                        // thread runs each core's keypoint; nobody is woken.
                        for &core in &cores {
                            mgr.hook(HookPoint::TimerInterrupt, core);
                        }
                    }
                })
                .expect("spawn progression timer")
        });

        Progression {
            cores: config.cores,
            mgr,
            shutdown,
            workers,
            timer,
            idle_loops,
        }
    }

    /// The manager the workers progress.
    pub fn manager(&self) -> &Arc<TaskManager> {
        &self.mgr
    }

    /// Cores with a running worker.
    pub fn cores(&self) -> &[usize] {
        &self.cores
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
        if let Some(t) = self.timer.take() {
            let _ = t.join();
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
    fn timer_thread_drives_progress_without_submission_wakeups() {
        let mgr = TaskManager::new(presets::uniprocessor().into());
        let config = ProgressionConfig {
            timer_period: Some(Duration::from_millis(1)),
            park_timeout: Duration::from_secs(3600), // park "forever"
            ..ProgressionConfig::for_cores(vec![0])
        };
        let _prog = Progression::start(mgr.clone(), config);
        // Let the worker park first, then rely on the timer to run the task.
        std::thread::sleep(Duration::from_millis(10));
        let h = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(0))
            .spawn();
        assert_eq!(h.wait(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn bad_core_panics() {
        let mgr = TaskManager::new(presets::uniprocessor().into());
        let _ = Progression::start(mgr, ProgressionConfig::for_cores(vec![5]));
    }
}
