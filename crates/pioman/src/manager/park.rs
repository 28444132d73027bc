//! Parking and wake-ups: the park count, the waker registry and the
//! submission's wake of the cores a task may run on.

use super::*;

impl TaskManager {
    /// Counts one park of `core`'s worker, right before it calls
    /// `park_timeout` (`ManagerStats::park_probe_misses`).
    pub(crate) fn count_park(&self, core: usize) {
        self.cores[core].parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Claims `core` for a progression worker, before the worker exists;
    /// `false` if it already has one. Presence first: a submitter that
    /// reads `true` before the slot fills pays one harmless mutex peek; one
    /// that reads `false` after it fills cannot exist.
    pub(crate) fn claim_worker(&self, core: usize) -> bool {
        !self.cores[core].waker_present.swap(true, Ordering::SeqCst)
    }

    /// Installs the calling worker, which [`claim_worker`](Self::claim_worker)
    /// claimed `core` for, so submissions can unpark it.
    pub(crate) fn register_waker(&self, core: usize, thread: Thread) {
        let previous = self.wakers[core].lock().replace(thread);
        debug_assert!(previous.is_none(), "core {core} had a worker");
    }

    /// Removes the waker registration for `core` and its claim.
    pub(crate) fn unregister_waker(&self, core: usize) {
        self.wakers[core].lock().take();
        self.cores[core]
            .waker_present
            .store(false, Ordering::SeqCst);
    }

    /// Unparks every registered worker whose core may run a new task.
    ///
    /// This is the whole no-lost-wake argument: every submission unparks
    /// every registered worker in its cpuset after the enqueue, and a
    /// token delivered before that worker's `park_timeout` call makes the
    /// call return at once — whatever its last keypoint saw.
    ///
    /// Cost discipline (the 1024-core scaling study's submit path): a
    /// core without a registered worker is skipped on one `waker_present`
    /// load — the waker mutex is only touched for cores that actually
    /// have a worker to unpark, so a machine-wide submission on a
    /// workerless (or sparsely-workered) manager is a read-only sweep,
    /// not `n_cores` mutex round-trips per enqueue; the walk visits set bits only.
    pub(super) fn wake_cores(&self, set: &TaskSet<CpuSet>) {
        for core in set.cores() {
            if core >= self.wakers.len() {
                break;
            }
            if !self.cores[core].waker_present.load(Ordering::SeqCst) {
                continue;
            }
            if let Some(t) = self.wakers[core].lock().as_ref() {
                t.unpark();
            }
        }
    }
}
