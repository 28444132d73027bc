//! The synchronisation types of a task's block (`completion.rs`) and of the
//! dependency waitlist's `PendingTask` (`manager/submit.rs`).
//!
//! In every normal build they are `core`'s atomics and `parking_lot`'s
//! mutex and condition variable. Built with `RUSTFLAGS="--cfg interleave"`,
//! they are the `interleave` explorer's model types behind the same API,
//! so the tests below run the production block, pool and waitlist under
//! every schedule the explorer reaches. The atomics take an `Ordering` and
//! ignore it there: the explorer is sequentially consistent, and the
//! orderings are Miri's to check.
//!
//! The rest of the crate keeps its own imports: nothing else holds a lock
//! or waits across a scheduling point of the code explored here.

pub(crate) use core::sync::atomic::Ordering;

#[cfg(not(interleave))]
pub(crate) use core::sync::atomic::AtomicUsize;
#[cfg(not(interleave))]
pub(crate) use parking_lot::{Condvar, Mutex, MutexGuard};

#[cfg(interleave)]
pub(crate) use interleave::sync::{Condvar, Lock as Mutex, LockGuard as MutexGuard};

/// `core`'s `AtomicUsize` API over the explorer's model atomic: each call
/// is one scheduling point inside a model, a plain atomic outside one.
#[cfg(interleave)]
#[derive(Debug, Default)]
pub(crate) struct AtomicUsize(interleave::atomic::AtomicUsize);

#[cfg(interleave)]
impl AtomicUsize {
    pub(crate) fn new(v: usize) -> Self {
        AtomicUsize(interleave::atomic::AtomicUsize::new(v))
    }

    pub(crate) fn load(&self, _: Ordering) -> usize {
        self.0.load()
    }

    pub(crate) fn store(&self, v: usize, _: Ordering) {
        self.0.store(v);
    }

    pub(crate) fn fetch_add(&self, v: usize, _: Ordering) -> usize {
        self.0.fetch_add(v)
    }

    pub(crate) fn fetch_sub(&self, v: usize, _: Ordering) -> usize {
        self.0.fetch_sub(v)
    }

    pub(crate) fn fetch_or(&self, v: usize, _: Ordering) -> usize {
        self.0.fetch_or(v)
    }
}

#[cfg(test)]
#[cfg(interleave)]
mod explore {
    //! The explorer on the production code: a pooled task block driven by
    //! its real `finish`, `register`, `wait`, clone and drop, and a
    //! `PendingTask` parked and released as the manager does it, on two or
    //! three model threads. What each test checks:
    //!
    //! - **exactly-once release**: a dependent is drained by its
    //!   predecessor's completion or told "already complete" by
    //!   `PendingTask::park`, never both and never neither, and of several
    //!   predecessors only the last releases it;
    //! - **no lost wake**: a blocked `wait()` that is never notified leaves
    //!   no thread enabled, which the explorer reports as a deadlock;
    //! - **one free, nothing after it**: the block ends on exactly one
    //!   thread's pool stack, and the debug checks of the free path fail a
    //!   use of the block after its free (its word reads `FREED`) and a
    //!   second free (`pool::Stack::push`).
    //!
    //! The preemption bound keeps each test to a few thousand schedules;
    //! each fault these properties rule out shows within it.

    use crate::completion::tests::addr;
    use crate::completion::{TaskBody, TaskHandle};
    use crate::manager::PendingTask;
    use crate::pool::tests::cached;
    use crate::queue::QueueId;
    use crate::task::{Task, TaskClass, TaskSet, TaskStatus};
    use interleave::{model_with, thread, Options};
    use piom_cpuset::CpuSet;

    const BOUNDED: Options = Options {
        max_schedules: 200_000,
        max_steps: 5_000,
        preemption_bound: Some(2),
    };

    /// A task whose block is pooled: its body captures nothing.
    fn pooled() -> (TaskBody, TaskHandle) {
        TaskBody::new(|_| TaskStatus::Done)
    }

    /// A pooled task as the waitlist parks it.
    fn dependent() -> Task {
        Task {
            body: pooled().0,
            repeat: false,
            class: TaskClass::Interactive,
            cpuset: TaskSet::new(&CpuSet::single(0)),
            home: QueueId(0),
        }
    }

    /// Completes `body` and satisfies the dependents its drain hands back,
    /// as the manager does; returns how many of them this released.
    fn complete(body: TaskBody) -> usize {
        let drained = body.finish(None);
        drained.iter().filter_map(|w| w.satisfy_one()).count()
    }

    /// Whether the block at `block` is on this thread's pool stack: where
    /// its one free put it, if this thread freed it.
    fn freed_here(block: usize) -> usize {
        usize::from(cached(block))
    }

    /// The completer against a dependent's registration and a blocking
    /// waiter, each holding a handle and dropping it after.
    fn race() {
        let (body, handle) = pooled();
        let block = addr(&handle);
        let waiting = handle.clone();
        let dependent = dependent();
        let registrant = thread::spawn(move || {
            let direct = PendingTask::park(dependent, vec![handle]).is_some();
            (usize::from(direct), freed_here(block))
        });
        let waiter = thread::spawn(move || {
            assert_eq!(waiting.wait(), Ok(()));
            drop(waiting);
            freed_here(block)
        });
        let drained = complete(body);
        let (direct, freed_by_registrant) = registrant.join();
        let freed_by_waiter = waiter.join();
        assert_eq!(
            drained + direct,
            1,
            "dependent not released exactly once: {drained} drained, {direct} direct"
        );
        let frees = freed_here(block) + freed_by_registrant + freed_by_waiter;
        assert_eq!(frees, 1, "block not freed exactly once");
    }

    /// The common task: the completer against the drop of its one handle,
    /// which nobody waited on; either may free the block.
    fn drop_race() {
        let (body, handle) = pooled();
        let block = addr(&handle);
        let dropper = thread::spawn(move || {
            drop(handle);
            freed_here(block)
        });
        assert_eq!(complete(body), 0, "a task nobody depends on drained");
        let frees = freed_here(block) + dropper.join();
        assert_eq!(frees, 1, "block not freed exactly once");
    }

    /// Two predecessors completing on two threads against one dependent
    /// parked on both: only the last satisfaction releases it.
    fn waitlist_race() {
        let (a, after_a) = pooled();
        let (b, after_b) = pooled();
        let dependent = dependent();
        let first = thread::spawn(move || complete(a));
        let second = thread::spawn(move || complete(b));
        let direct = usize::from(PendingTask::park(dependent, vec![after_a, after_b]).is_some());
        let drained = first.join() + second.join();
        assert_eq!(
            drained + direct,
            1,
            "dependent not released exactly once: {drained} drained, {direct} direct"
        );
    }

    #[test]
    fn completion_releases_once_wakes_and_frees_once() {
        let report = model_with(BOUNDED, race);
        assert!(report.schedules > 100, "got {}", report.schedules);
        let report = model_with(BOUNDED, drop_race);
        assert!(report.schedules > 2, "got {}", report.schedules);
    }

    #[test]
    fn the_last_predecessor_releases_the_dependent_once() {
        let report = model_with(BOUNDED, waitlist_race);
        assert!(report.schedules > 100, "got {}", report.schedules);
    }
}
