//! Task bursts spawned on one thread and run by a `Progression` worker
//! allocate no task block once warm: the worker gives the blocks back
//! through the pool's depot, and the submitter takes them from it.
//!
//! The depot is shared by the whole process, and a thread whose cache is
//! empty takes a batch from it, so this test has a binary of its own: in
//! one with other tests, such a thread could take a batch the submitter
//! counts on.

use pioman::{
    presets, CpuSet, Progression, ProgressionConfig, TaskHandle, TaskManager, TaskStatus,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

mod counting;
use counting::{live, CALLS};

#[test]
fn bursts_run_by_a_worker_allocate_no_block() {
    const BURST: usize = 1_024;
    const WORKER: usize = 1;
    /// Bodies run, and the last burst fully submitted.
    static RAN: AtomicUsize = AtomicUsize::new(0);
    static SUBMITTED: AtomicUsize = AtomicUsize::new(0);
    /// What the worker read of its own counts: live bytes, and
    /// allocations and frees.
    static WORKER_LIVE: AtomicIsize = AtomicIsize::new(0);
    static WORKER_CALLS: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let mgr = TaskManager::new(presets::kwak().into());
    let mut prog = Progression::start(mgr.clone(), ProgressionConfig::for_cores(vec![WORKER]));
    // Waits for a task only the worker runs, with no slow block.
    let wait = |h: TaskHandle| {
        while !h.is_complete() {
            std::thread::yield_now();
        }
    };
    // The worker drops the last reference of every block of a burst: its
    // cache overflows into the depot, and this thread's cache refills from
    // it. The worker is held while a burst is submitted, so this thread
    // takes blocks only from those the earlier bursts gave back. A burst
    // ends once every body ran and a task spawned after them completed:
    // the worker runs one task at a time, freeing each block before the
    // next body starts.
    let mut bursts = 0;
    let mut burst = || {
        bursts += 1;
        let number = bursts;
        let hold = mgr
            .task(move |_| {
                while SUBMITTED.load(Ordering::Acquire) < number {
                    std::hint::spin_loop();
                }
                TaskStatus::Done
            })
            .cpuset(CpuSet::single(WORKER))
            .spawn();
        for _ in 0..BURST {
            mgr.task(|_| {
                RAN.fetch_add(1, Ordering::Relaxed);
                TaskStatus::Done
            })
            .cpuset(CpuSet::single(WORKER))
            .spawn();
        }
        SUBMITTED.store(number, Ordering::Release);
        wait(hold);
        while RAN.load(Ordering::Relaxed) < number * BURST {
            std::thread::yield_now();
        }
        wait(
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::single(WORKER))
                .spawn(),
        );
    };
    // The worker's own counts, read by a task it runs.
    let worker = || {
        wait(
            mgr.task(|_| {
                WORKER_LIVE.store(live(), Ordering::Relaxed);
                let (a, f) = CALLS.with(Cell::get);
                WORKER_CALLS[0].store(a, Ordering::Relaxed);
                WORKER_CALLS[1].store(f, Ordering::Relaxed);
                TaskStatus::Done
            })
            .cpuset(CpuSet::single(WORKER))
            .spawn(),
        );
        let calls = WORKER_CALLS.each_ref().map(|c| c.load(Ordering::Relaxed));
        (WORKER_LIVE.load(Ordering::Relaxed), calls)
    };
    // Warm-up: the queue reaches its depth, and enough blocks circulate.
    (0..10).for_each(|_| burst());
    let (worker_before, mine_before) = (worker(), (live(), CALLS.with(Cell::get)));
    (0..100).for_each(|_| burst());
    let (worker_after, mine_after) = (worker(), (live(), CALLS.with(Cell::get)));
    prog.shutdown();
    assert_eq!(
        mine_after, mine_before,
        "the submitter's live bytes, allocations and frees over 100 bursts"
    );
    assert_eq!(
        worker_after, worker_before,
        "the worker's live bytes, allocations and frees over 100 bursts"
    );
}
