//! The held lane: a progression worker keeps the repeat tasks only its own
//! core may run between keypoints, out of every queue.
//!
//! A polling task that returns `Again` and whose cpuset is exactly the
//! worker's core has nowhere else to go: no other core may run it, and a
//! core has at most one worker. Requeued, it would keep its queue
//! non-empty, so every poll would take the queue's lock twice (dequeue and
//! requeue) and Algorithm 2's unlocked emptiness test would never skip
//! it. Held, it costs no lock, and the queue stays empty unless something
//! new was submitted (`docs/SCHEDULER.md` §2).

use super::*;
use crate::spinlock::bump;

/// What a keypoint does with a repeat task that returned `Again`, and the
/// held tasks it runs after its own core queue's pass. The plain keypoint
/// (`()`) holds nothing and requeues every `Again` on its home queue, so
/// `schedule` and `schedule_batch` compile to the walk without the lane.
pub(crate) trait Hold {
    /// Keeps `task` (which just returned `Again` on `core`), or hands it
    /// back to be requeued.
    fn hold(&mut self, task: Task, core: usize) -> Option<Task>;

    /// Tasks held between keypoints.
    fn len(&self) -> usize;

    /// Runs up to `budget` held tasks once on `core`, in hold order;
    /// returns how many ran.
    fn run(&mut self, mgr: &TaskManager, core: usize, budget: usize) -> usize;
}

impl Hold for () {
    #[inline(always)]
    fn hold(&mut self, task: Task, _: usize) -> Option<Task> {
        Some(task)
    }

    #[inline(always)]
    fn len(&self) -> usize {
        0
    }

    #[inline(always)]
    fn run(&mut self, _: &TaskManager, _: usize, _: usize) -> usize {
        0
    }
}

/// A progression worker's held tasks. Dropped — when the worker stops, or
/// unwinds — it puts every held task back on its home queue, so work in
/// flight at shutdown stays queued (`docs/SCHEDULER.md` §11).
pub(crate) struct HeldLane<'m> {
    mgr: &'m TaskManager,
    /// Tasks to run at the next keypoint: those a budget left over first,
    /// then those held since.
    due: Vec<Task>,
    /// Tasks held during the current keypoint; appended to `due` when it
    /// ends, so none runs twice in one keypoint.
    next: Vec<Task>,
}

impl<'m> HeldLane<'m> {
    pub(crate) fn new(mgr: &'m TaskManager) -> Self {
        HeldLane {
            mgr,
            due: Vec::new(),
            next: Vec::new(),
        }
    }

    /// [`TaskManager::keypoint`] on the worker's own core, holding what
    /// only that core may poll.
    pub(crate) fn keypoint(&mut self, core: usize, max: usize) -> (usize, bool) {
        let outcome = self.mgr.keypoint(core, max, self);
        self.due.append(&mut self.next);
        outcome
    }
}

impl Hold for HeldLane<'_> {
    fn hold(&mut self, task: Task, core: usize) -> Option<Task> {
        if !task.cpuset.is_only(core) {
            return Some(task);
        }
        // A `{core}` task's home is `core`'s own queue (`spawn` places it
        // on the smallest node covering `{core}`, or on `on_core(core)`):
        // the queue its held runs are counted on.
        debug_assert_eq!(task.home.index(), self.mgr.topo.core_node(core).index());
        self.next.push(task);
        None
    }

    fn len(&self) -> usize {
        self.due.len()
    }

    fn run(&mut self, mgr: &TaskManager, core: usize, budget: usize) -> usize {
        let mut due = core::mem::take(&mut self.due);
        let n = due.len().min(budget);
        // Counted at hand-out, before the runs, like a queue's `executed`:
        // the `executed` bumps after them are Release, so a snapshot
        // that sees a run also sees its count.
        bump(&mgr.cores[core].held_runs, n as u64);
        for task in due.drain(..n) {
            mgr.run_task(task, core, self);
        }
        self.due = due;
        n
    }
}

impl Drop for HeldLane<'_> {
    fn drop(&mut self) {
        for task in self.due.drain(..).chain(self.next.drain(..)) {
            self.mgr.queues[task.home.index()].requeue(task);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::kwak_mgr;
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A repeat task pinned to `core` that counts its runs and never ends.
    fn poller(mgr: &TaskManager, core: usize, runs: &Arc<AtomicUsize>) -> TaskHandle {
        let runs = runs.clone();
        mgr.task(move |_| {
            runs.fetch_add(1, Ordering::Relaxed);
            TaskStatus::Again
        })
        .cpuset(CpuSet::single(core))
        .repeat()
        .spawn()
    }

    #[test]
    fn each_held_task_runs_within_ceil_n_over_budget_keypoints() {
        const N: usize = 10;
        const BUDGET: usize = 4;
        let mgr = kwak_mgr();
        let runs: Vec<_> = (0..N).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        let _handles: Vec<_> = runs.iter().map(|r| poller(&mgr, 2, r)).collect();
        let mut lane = HeldLane::new(&mgr);
        // The first keypoint's pass takes all ten from the queue (the
        // queue pass is budgeted like any other) and holds what it ran.
        let mut ran = lane.keypoint(2, N).0;
        assert_eq!((ran, lane.len()), (N, N));
        assert_eq!(mgr.pending_tasks(), 0, "held, not requeued");
        let count = |r: &Arc<AtomicUsize>| r.load(Ordering::Relaxed);
        let before: Vec<usize> = runs.iter().map(count).collect();
        // From now on every task runs once in any ⌈N / BUDGET⌉ = 3
        // consecutive keypoints: the ones a budget leaves over go first.
        for round in 1..=12 {
            ran += lane.keypoint(2, BUDGET).0;
            if round % N.div_ceil(BUDGET) == 0 {
                let want = round / N.div_ceil(BUDGET);
                for (i, r) in runs.iter().enumerate() {
                    assert!(
                        count(r) - before[i] >= want,
                        "task {i} ran {} times in {round} keypoints",
                        count(r) - before[i]
                    );
                }
            }
        }
        assert_eq!(ran, N + 12 * BUDGET);
        assert_eq!(lane.len(), N, "nothing lost, nothing duplicated");
        let home = mgr.topology().core_node(2).index();
        let stats = mgr.stats();
        assert_eq!(stats.queues[home].executed, ran as u64);
        assert_eq!(stats.total_executed(), ran as u64);
        // The lock was taken to enqueue and to drain once, never to requeue.
        assert_eq!(stats.queues[home].lock_acquisitions, N as u64 + 1);
        drop(lane);
        assert_eq!(mgr.pending_tasks(), N, "a dropped lane requeues home");
    }

    #[test]
    fn a_task_held_by_this_keypoint_is_not_run_again_in_it() {
        let mgr = kwak_mgr();
        let runs = Arc::new(AtomicUsize::new(0));
        let _h = poller(&mgr, 0, &runs);
        let mut lane = HeldLane::new(&mgr);
        assert_eq!(lane.keypoint(0, 8).0, 1);
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert_eq!(lane.keypoint(0, 8).0, 1);
        assert_eq!(runs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_flood_on_the_core_queue_does_not_starve_a_held_task() {
        const FLOOD: usize = 12;
        const BUDGET: usize = 4;
        let mgr = kwak_mgr();
        let runs = Arc::new(AtomicUsize::new(0));
        let _h = poller(&mgr, 0, &runs);
        let mut lane = HeldLane::new(&mgr);
        assert_eq!(lane.keypoint(0, BUDGET).0, 1);
        for _ in 0..FLOOD {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::single(0))
                .spawn();
        }
        // Each keypoint's core pass leaves one slot of the budget for the
        // held poller: three queued tasks, then the poll.
        for k in 1..=FLOOD / (BUDGET - 1) {
            assert_eq!(lane.keypoint(0, BUDGET).0, BUDGET);
            assert_eq!(runs.load(Ordering::Relaxed), 1 + k);
            assert_eq!(mgr.pending_tasks(), FLOOD - k * (BUDGET - 1));
        }
    }

    #[test]
    fn wider_or_one_shot_tasks_are_not_held() {
        let mgr = kwak_mgr();
        let _wide = mgr
            .task(|_| TaskStatus::Again)
            .cpuset(CpuSet::from_iter([0, 1]))
            .on_core(0)
            .repeat()
            .spawn();
        let one_shot = mgr
            .task(|_| TaskStatus::Again)
            .cpuset(CpuSet::single(0))
            .spawn();
        let mut lane = HeldLane::new(&mgr);
        assert_eq!(lane.keypoint(0, 8).0, 2);
        assert!(one_shot.is_complete(), "a one-shot `Again` is done");
        assert_eq!(lane.len(), 0);
        assert_eq!(mgr.pending_tasks(), 1, "the {{0, 1}} poller went home");
    }
}
