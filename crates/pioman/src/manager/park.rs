//! Steal-aware parking and wake-ups: the pre-park probe, the waker
//! registry and the submission's wake of the cores a task may run on.

use super::*;

impl TaskManager {
    /// The steal-aware park check: `true` if a socket overflow or a victim
    /// queue (a queue *not* on `core`'s hierarchy path) holds backlog whose
    /// steal span admits `core`, so the caller should run another keypoint
    /// instead of parking.
    ///
    /// The probe is the steal scan's gates without the lock: it walks the
    /// same socket-major victim list a steal probe walks, and at each
    /// socket asks the overflow (when the tier is active), then each
    /// victim queue, the two relaxed loads Algorithm 2 asks before
    /// locking — `len_hint() > 0` and `steal_span.admits(core)`.
    /// A full miss therefore costs one poll per active overflow plus one
    /// per queue off `core`'s path. The spans may over-approximate, so a
    /// hit is a *hint*: the next keypoint's steal probe re-checks real
    /// task cpusets under the victim's lock, and
    /// [`Progression`](crate::Progression) workers bound consecutive
    /// fruitless hits so a stale span cannot spin a worker forever.
    ///
    /// Returns `false` without probing when stealing is disabled. Updates
    /// the `park_probe_hits` / `park_probe_misses` / `park_probe_polls`
    /// counters in [`ManagerStats`] (`park_probe_polls` counts the
    /// containers consulted).
    pub fn park_probe(&self, core: usize) -> bool {
        debug_assert!(core < self.topo.n_cores(), "core id out of range");
        if !self.config.steal {
            return false;
        }
        let mut polls = 0;
        let hit = self.steal_order[core].iter().any(|(s, victims)| {
            let overflow = &self.sockets[*s as usize].overflow;
            self.socket_overflow_active
                .then_some(overflow)
                .into_iter()
                .chain(victims.iter().map(|&(qi, _)| &self.queues[qi as usize]))
                .any(|queue| {
                    polls += 1;
                    queue.len_hint() > 0 && queue.steal_span.admits(core)
                })
        });
        let state = &self.cores[core];
        state.park_polls.fetch_add(polls, Ordering::Relaxed);
        let outcome = if hit {
            &state.park_hits
        } else {
            &state.park_misses
        };
        outcome.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Registers the calling progression worker as the runner for `core`
    /// so submissions can unpark it. Returns the previous registrant.
    pub(crate) fn register_waker(&self, core: usize, thread: Thread) -> Option<Thread> {
        // Presence first: a submitter that reads `true` before the slot
        // fills pays one harmless mutex peek; one that reads `false`
        // after it fills cannot exist.
        self.cores[core].waker_present.store(true, Ordering::SeqCst);
        self.wakers[core].lock().replace(thread)
    }

    /// Removes the waker registration for `core`.
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
    /// call return at once — whatever pre-park checks it ran in between.
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

#[cfg(test)]
mod tests {
    use super::super::tests::{kwak_mgr, no_steal_mgr};
    use super::*;

    #[test]
    fn park_probe_sees_distant_stealable_backlog() {
        let mgr = kwak_mgr();
        // Nothing anywhere: every probe misses.
        assert!(!mgr.park_probe(0));
        // Backlog homed across the interconnect, stealable by core 0.
        for _ in 0..4 {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::from_iter([0, 12]))
                .on_core(12)
                .spawn();
        }
        assert!(mgr.park_probe(0), "distant victim backlog must be seen");
        let stats = mgr.stats();
        assert_eq!(stats.park_probe_hits[0], 1);
        assert_eq!(stats.park_probe_misses[0], 1);
    }

    #[test]
    fn park_probe_ignores_backlog_outside_the_steal_span() {
        let mgr = kwak_mgr();
        for _ in 0..4 {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::single(3))
                .spawn();
        }
        // Core 2 may never run core-3-only work: the span filter must
        // reject the queue without a hit, so the worker parks instead of
        // spinning on unstealable backlog.
        assert!(!mgr.park_probe(2));
        assert_eq!(mgr.stats().park_probe_misses[2], 1);
        assert_eq!(mgr.stats().park_probe_hits[2], 0);
        // Core 3 itself has the work on its own path — the probe is about
        // *victim* queues only and still misses (path queues are excluded).
        assert!(!mgr.park_probe(3));
    }

    #[test]
    fn park_probe_disabled_with_stealing() {
        let mgr = no_steal_mgr();
        mgr.task(|_| TaskStatus::Done)
            .cpuset(CpuSet::from_iter([0, 1]))
            .on_core(1)
            .spawn();
        assert!(!mgr.park_probe(0), "no stealing: always park");
        let stats = mgr.stats();
        assert_eq!(stats.total_park_probe_hits(), 0);
        assert_eq!(
            stats.total_park_probe_misses(),
            0,
            "disabled probes are not counted as misses"
        );
    }
}
