//! The scheduler's memory footprint: the live heap one `TaskManager::new`
//! adds on the 1 024-core quad-socket preset, the allocations one task
//! round trip makes, and the heap a dropped manager gives back.
//!
//! A counting global allocator measures them per thread: every test here
//! allocates and frees on its own thread only, so the tests cannot disturb
//! each other's counts and run in parallel.

use pioman::{presets, ManagerConfig, TaskHandle, TaskManager, TaskStatus, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Bytes this thread holds through [`Counting`]: its allocations minus
    /// its frees.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Allocations and frees this thread made.
    static CALLS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// The system allocator, keeping [`LIVE`] and [`CALLS`] up to date.
struct Counting;

fn count(bytes: isize, allocs: usize, frees: usize) {
    LIVE.with(|live| live.set(live.get() + bytes));
    CALLS.with(|calls| {
        let (a, f) = calls.get();
        calls.set((a + allocs, f + frees));
    });
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialized thread locals without a destructor, so updating them
// neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as isize, 1, 0);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as isize, 1, 0);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize), 0, 1);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize, 1, 1);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// MiB of live heap a manager built over `topo` holds once `with_config`
/// has returned.
fn live_mib_after_new(topo: &Arc<Topology>, config: ManagerConfig) -> f64 {
    let before = live();
    let mgr = TaskManager::with_config(topo.clone(), config);
    let added = live() - before;
    drop(mgr);
    added as f64 / (1024.0 * 1024.0)
}

#[test]
fn quad_socket_1024_manager_heap_stays_within_budget() {
    let topo: Arc<Topology> = presets::quad_socket_1024().into();
    // 17.5 MiB, mostly the per-core victim orders. With one more
    // O(queues × cores) table (every core, per queue) it read 21.9 MiB:
    // the budget sits between, so such a table cannot come back unnoticed.
    let default = live_mib_after_new(&topo, ManagerConfig::default());
    assert!(
        default <= 20.0,
        "default config: {default:.1} MiB live after new, budget 20 MiB"
    );
    let armed = live_mib_after_new(
        &topo,
        ManagerConfig {
            latency_histogram: true,
            ..ManagerConfig::default()
        },
    );
    assert!(
        armed <= 96.0,
        "latency_histogram: {armed:.1} MiB live after new, budget 96 MiB"
    );
}

#[test]
fn a_round_trip_costs_one_allocation_and_one_free() {
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
    // Warm-up: queue lanes and the keypoint scratch reach their capacity.
    (0..OPS as u64).for_each(round_trip);
    let (allocs, frees) = CALLS.with(Cell::get);
    let before = live();
    (0..OPS as u64).for_each(round_trip);
    let (a, f) = CALLS.with(Cell::get);
    assert_eq!(
        (a - allocs, f - frees),
        (OPS, OPS),
        "allocations and frees over {OPS} spawn → schedule → handle drop"
    );
    assert_eq!(live(), before);
}

/// Builds a kwak manager holding work in each unfinished state, drops it,
/// and returns the handles that outlive it.
fn drop_a_manager_with_work_in_flight() -> Vec<TaskHandle> {
    let mgr = TaskManager::new(presets::kwak().into());
    // Every body owns heap, so a body never dropped shows as live bytes.
    let body = |bytes: Vec<u8>| {
        move |_: &pioman::TaskContext<'_>| {
            std::hint::black_box(&bytes);
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
    let bytes = vec![0u8; 64];
    handles.push(
        mgr.task(move |_| {
            std::hint::black_box(&bytes);
            TaskStatus::Again
        })
        .cpuset(pioman::CpuSet::single(3))
        .repeat()
        .spawn(),
    );
    assert_eq!(mgr.schedule_batch(3, 1), 1);
    // A spec never spawned, whose early handle a dependent waits on.
    let spec = mgr.task(body(vec![0; 64]));
    let early = spec.handle();
    handles.push(mgr.task(body(vec![0; 64])).after(&early).spawn());
    handles.push(early);
    drop(spec);
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
