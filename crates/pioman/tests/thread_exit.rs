//! A task block whose last reference drops in a thread-local destructor,
//! while its thread exits: after the thread's pool cache is destroyed
//! (`pool::free` finds no cache and gives the block to the allocator) or
//! before (the block goes to the cache, which the cache's own destructor
//! then drains). Either way every byte the thread allocated is given back,
//! so no block is lost to a cache nobody drains.
//!
//! A thread runs its thread-local destructors in the reverse order of
//! their first use on Linux, so each case orders the two by which it uses
//! first; the two cases take opposite arms whatever that order is. A last
//! destructor, used before both, reads the thread's counts once they have
//! run, against a thread that drops its handle before it exits: std gives
//! back at a thread's exit some bytes its parent allocated.

use pioman::{presets, CpuSet, TaskHandle, TaskManager, TaskStatus};
use std::cell::{Cell, RefCell};
use std::sync::mpsc::{channel, Sender};

mod counting;
use counting::{live, CALLS};

/// The handle that holds a finished task's last reference.
struct Held(RefCell<Option<TaskHandle>>);

impl Drop for Held {
    fn drop(&mut self) {
        let frees = CALLS.with(Cell::get).1;
        drop(self.0.take());
        let at_once = CALLS.with(Cell::get).1 > frees;
        FREED_AT_ONCE.with(|freed| freed.set(Some(at_once)));
    }
}

/// What a thread holds at its exit, net of what it held at its start, and
/// whether a handle's destructor freed its block at once.
type Exit = (isize, Option<bool>);

/// Sends the thread's [`Exit`] once every other destructor has run.
struct Report(RefCell<Option<(Sender<Exit>, isize)>>);

impl Drop for Report {
    fn drop(&mut self) {
        let (to, start) = self.0.take().expect("a report was set up");
        let _ = to.send((live() - start, FREED_AT_ONCE.with(Cell::get)));
    }
}

thread_local! {
    static HELD: Held = const { Held(RefCell::new(None)) };
    static REPORT: Report = const { Report(RefCell::new(None)) };
    /// Whether the handle's drop freed the block on the spot.
    static FREED_AT_ONCE: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Where a thread's task handle goes.
#[derive(Clone, Copy, PartialEq)]
enum Handle {
    /// Dropped before the thread exits.
    Dropped,
    /// Kept in a thread-local whose destructor is first used before the
    /// pool's.
    HeldFirst,
    /// Kept in a thread-local first used after the pool's.
    HeldLast,
}

/// Runs one task on a thread, which does with its handle as `handle` says.
fn exit_with(handle: Handle) -> Exit {
    let (to, from) = channel();
    std::thread::spawn(move || {
        REPORT.with(|report| *report.0.borrow_mut() = Some((to, live())));
        if handle == Handle::HeldFirst {
            HELD.with(|_| {});
        }
        let mgr = TaskManager::new(presets::kwak().into());
        let task = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(0))
            .spawn();
        assert!(mgr.schedule(0) && task.is_complete());
        drop(mgr);
        if handle != Handle::Dropped {
            HELD.with(|held| *held.0.borrow_mut() = Some(task));
        }
    })
    .join()
    .unwrap();
    from.recv().expect("the thread reported")
}

#[test]
fn a_block_freed_at_thread_exit_is_given_back_either_way() {
    let (kept, none) = exit_with(Handle::Dropped);
    assert_eq!(none, None);
    let (kept_first, at_once_first) = exit_with(Handle::HeldFirst);
    let (kept_last, at_once_last) = exit_with(Handle::HeldLast);
    assert_eq!(
        kept_first, kept,
        "bytes lost, handle's destructor used first"
    );
    assert_eq!(kept_last, kept, "bytes lost, pool used first");
    let arms = [at_once_first, at_once_last].map(|arm| arm.expect("the handle was dropped"));
    assert_ne!(
        arms[0], arms[1],
        "both cases took the same arm of `pool::free`"
    );
}
