//! The scheduler's memory footprint: the live heap one `TaskManager::new`
//! adds on the 1 024-core quad-socket preset, the allocations one task
//! round trip and a thief's steal keypoints make, and the heap a dropped
//! manager gives back.
//!
//! A counting global allocator measures them per thread: every test here
//! allocates and frees on its own thread only, so the tests cannot disturb
//! each other's counts and run in parallel.

use pioman::{presets, TaskHandle, TaskManager, TaskStatus, Topology};
use std::cell::Cell;
use std::sync::Arc;

mod counting;
use counting::{live, CALLS};

/// MiB of live heap a default manager built over `topo` holds once `new`
/// has returned.
fn live_mib_after_new(topo: &Arc<Topology>) -> f64 {
    let before = live();
    let mgr = TaskManager::new(topo.clone());
    let added = live() - before;
    drop(mgr);
    added as f64 / (1024.0 * 1024.0)
}

#[test]
fn quad_socket_1024_manager_heap_stays_within_budget() {
    let topo: Arc<Topology> = presets::quad_socket_1024().into();
    // 16.8 MiB, mostly the per-core victim orders. With one more
    // O(queues × cores) table (every core, per queue) it read 21.9 MiB:
    // the budget sits between, so such a table cannot come back unnoticed.
    let default = live_mib_after_new(&topo);
    assert!(
        default <= 20.0,
        "default config: {default:.1} MiB live after new, budget 20 MiB"
    );
}

#[test]
fn a_round_trip_allocates_nothing() {
    const OPS: usize = 1_000;
    let mgr = TaskManager::new(presets::kwak().into());
    let round_trip = |i: u64| {
        let h = mgr
            .task(move |_| {
                std::hint::black_box(i);
                TaskStatus::Done
            })
            .spawn();
        assert!(mgr.schedule(0));
        assert!(h.is_complete());
    };
    // Warm-up: queue lanes and the keypoint scratch reach their capacity,
    // and this thread's cache of task blocks holds one.
    (0..OPS as u64).for_each(round_trip);
    let (allocs, frees) = CALLS.with(Cell::get);
    let before = live();
    (0..OPS as u64).for_each(round_trip);
    let (a, f) = CALLS.with(Cell::get);
    assert_eq!(
        (a - allocs, f - frees),
        (0, 0),
        "allocations and frees over {OPS} spawn → schedule → handle drop"
    );
    assert_eq!(live(), before);
}

#[test]
fn steal_keypoints_allocate_nothing() {
    const TASKS: usize = 64;
    let mgr = TaskManager::new(presets::kwak().into());
    // Backlogs core 0 may steal, homed on queues across the interconnect:
    // core 12's is deepest, so each probe ranks a tier of two.
    let fill = || {
        for (home, n) in [(12, TASKS / 2 + 8), (13, TASKS / 2 - 8)] {
            for _ in 0..n {
                let set = pioman::CpuSet::from_iter([0, home]);
                drop(
                    mgr.task(|_| TaskStatus::Done)
                        .cpuset(set)
                        .on_core(home)
                        .spawn(),
                );
            }
        }
    };
    let drain = || {
        let mut ran = 0;
        while ran < TASKS {
            let n = mgr.schedule_batch(0, usize::MAX);
            assert!(n > 0, "a steal keypoint found nothing");
            ran += n;
        }
        assert_eq!(mgr.pending_tasks(), 0);
    };
    // Warm-up: the keypoint scratch reaches its capacity.
    fill();
    drain();
    fill();
    let (allocs, frees) = CALLS.with(Cell::get);
    drain();
    let (a, f) = CALLS.with(Cell::get);
    assert_eq!(
        (a - allocs, f - frees),
        (0, 0),
        "allocations and frees over the steal keypoints: the stolen blocks stay cached"
    );
    assert_eq!(mgr.stats().total_stolen(), 2 * TASKS as u64);
}

/// Builds a kwak manager holding work in each unfinished state, drops it,
/// and returns the handles that outlive it.
fn drop_a_manager_with_work_in_flight() -> Vec<TaskHandle> {
    drop_a_padded_manager_with_work_in_flight::<0>()
}

/// [`drop_a_manager_with_work_in_flight`], with `PAD` more bytes in every
/// body.
fn drop_a_padded_manager_with_work_in_flight<const PAD: usize>() -> Vec<TaskHandle> {
    let mgr = TaskManager::new(presets::kwak().into());
    // Every body owns heap, so a body never dropped shows as live bytes.
    let body = |bytes: Vec<u8>| {
        let pad = [0u8; PAD];
        move |_: &pioman::TaskContext<'_>| {
            std::hint::black_box((&bytes, &pad));
            TaskStatus::Done
        }
    };
    let mut handles = Vec::new();
    // Queued and never run.
    for _ in 0..8 {
        handles.push(mgr.task(body(vec![0; 64])).spawn());
    }
    // Waitlisted behind a queued predecessor, two deep.
    let pred = mgr.task(body(vec![0; 64])).spawn();
    let mid = mgr.task(body(vec![0; 64])).after(&pred).spawn();
    handles.push(mgr.task(body(vec![0; 64])).after(&mid).after(&pred).spawn());
    handles.extend([pred, mid]);
    // A repeat task, run once and requeued.
    let (bytes, pad) = (vec![0u8; 64], [0u8; PAD]);
    handles.push(
        mgr.task(move |_| {
            std::hint::black_box((&bytes, &pad));
            TaskStatus::Again
        })
        .cpuset(pioman::CpuSet::single(3))
        .repeat()
        .spawn(),
    );
    assert_eq!(mgr.schedule_batch(3, 1), 1);
    // A spec never spawned.
    drop(mgr.task(body(vec![0; 64])));
    drop(mgr);
    assert!(handles.iter().all(|h| !h.is_complete()));
    handles
}

#[test]
fn a_dropped_manager_gives_back_every_task_block() {
    // Warm-up: one-time initialization and the keypoint scratch.
    drop(drop_a_manager_with_work_in_flight());
    let before = live();
    let handles = drop_a_manager_with_work_in_flight();
    drop(handles);
    assert_eq!(live(), before, "bytes still live after the last handle");
}

#[test]
fn a_dropped_manager_frees_every_unpooled_task_block() {
    // The pool keeps blocks of at most 128 bytes: the test above finds a
    // lost one of those only by its body's heap. With this pad, every
    // block is an allocation of its own, so a block whose last reference
    // never goes shows as live bytes.
    drop(drop_a_padded_manager_with_work_in_flight::<129>());
    let before = live();
    let handles = drop_a_padded_manager_with_work_in_flight::<129>();
    drop(handles);
    assert_eq!(live(), before, "bytes still live after the last handle");
}
