//! A counting global allocator for the footprint tests: the system
//! allocator, keeping per-thread counts of live bytes, allocations and
//! frees. A thread reads only its own counts, so tests that each count
//! their own threads cannot disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread holds through [`Counting`]: its allocations minus
    /// its frees.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Allocations and frees this thread made.
    pub static CALLS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
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

/// Bytes this thread holds.
pub fn live() -> isize {
    LIVE.with(Cell::get)
}
