//! The scheduler's memory footprint at scale: the live heap one
//! `TaskManager::new` adds on the 1 024-core quad-socket preset.
//!
//! A counting global allocator measures it, so this binary holds this one
//! test only: no other test may allocate while it measures.

use pioman::{presets, ManagerConfig, TaskManager, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::sync::Arc;

/// Bytes currently allocated through [`Counting`].
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, keeping [`LIVE`] up to date.
struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is a
// side effect that never touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// MiB of live heap a manager built over `topo` holds once `with_config`
/// has returned.
fn live_mib_after_new(topo: &Arc<Topology>, config: ManagerConfig) -> f64 {
    let before = LIVE.load(Relaxed);
    let mgr = TaskManager::with_config(topo.clone(), config);
    let added = LIVE.load(Relaxed) - before;
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
