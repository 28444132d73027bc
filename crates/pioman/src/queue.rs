//! Task queues: the paper's spinlocked list with Algorithm 2's unlocked
//! emptiness test (§IV-A), one per topology node and one per socket
//! overflow.
//!
//! There is one queue implementation. Tasks live in [`SeqLanes`] — plain
//! `VecDeque` lanes per QoS class, popped under the policy documented on
//! [`SeqLanes::pop`] — behind the instrumented TTAS [`SpinLock`], with the
//! lane count mirrored into an unlocked length hint so an empty queue is
//! detected without touching the lock.
//!
//! # Layout
//!
//! A queue's hot words are touched by different cores in different roles:
//! the *owner* and *thieves* take the lock, and every keypoint that passes
//! by reads the length hint. Each of those groups sits behind a
//! [`CachePadded`] so one role's writes never evict the line another role
//! is polling. The queue's counts, `submitted` and `executed`, sit in the
//! lock's block and only the holder writes them, so they add no line and
//! no locked RMW. `DESIGN.md` §6 has the layout rationale.

use crate::pad::CachePadded;
use crate::spinlock::{bump, SpinLock};
use crate::task::{Task, TaskClass, CLASS_COUNT};
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::collections::VecDeque;

/// Identifier of a task queue — the arena index of the topology node owning
/// it (per-core queue for leaves, global queue for the root).
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueId(pub(crate) u32);

impl QueueId {
    /// Arena index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// How many higher-class pops may bypass a waiting [`TaskClass::Background`]
/// task before the next pop serves `Background` regardless of priority.
///
/// This is the anti-starvation bound stated in docs/SCHEDULER.md ("QoS
/// tiers") and pinned by the `qos_policy` tests. The credit is a plain
/// counter mutated under the queue's lock, so the bound is *exact*: the
/// `BACKGROUND_BYPASS_LIMIT + 1`-th pop while `Background` waits serves
/// `Background`, however many cores are popping.
pub const BACKGROUND_BYPASS_LIMIT: u32 = 16;

/// The QoS lanes of one queue: one FIFO `VecDeque` per [`TaskClass`].
/// Every access happens under the owning queue's lock, so the policy is
/// sequential, exact and deterministic. The `qos_policy` proptests pin it
/// against an independent oracle.
pub struct SeqLanes {
    classes: [VecDeque<Task>; CLASS_COUNT],
    /// Anti-starvation credit (see [`BACKGROUND_BYPASS_LIMIT`]).
    bg_credit: u32,
    len: usize,
}

impl SeqLanes {
    /// Creates empty lanes.
    pub fn new() -> Self {
        SeqLanes {
            classes: Default::default(),
            bg_credit: 0,
            len: 0,
        }
    }

    /// Total task count across every lane.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Appends to the tail of the task's class lane.
    pub fn push(&mut self, task: Task) {
        self.classes[task.class.index()].push_back(task);
        self.len += 1;
    }

    /// Pops the next task under the full QoS policy: strict class
    /// priority ([`TaskClass::ALL`] order), submission order within a
    /// class — softened by the anti-starvation credit: every pop that
    /// serves a higher class while `Background` waits bumps the credit,
    /// and once it reaches [`BACKGROUND_BYPASS_LIMIT`] the next pop serves
    /// `Background` first and resets it.
    pub fn pop(&mut self) -> Option<Task> {
        let bg = TaskClass::Background.index();
        let order = if self.bg_credit >= BACKGROUND_BYPASS_LIMIT && !self.classes[bg].is_empty() {
            [
                TaskClass::Background,
                TaskClass::Urgent,
                TaskClass::Interactive,
                TaskClass::Bulk,
            ]
        } else {
            TaskClass::ALL
        };
        for class in order {
            if let Some(task) = self.classes[class.index()].pop_front() {
                self.len -= 1;
                if class == TaskClass::Background {
                    self.bg_credit = 0;
                } else if !self.classes[bg].is_empty() {
                    self.bg_credit += 1;
                }
                return Some(task);
            }
        }
        None
    }

    /// Removes up to `quota` tasks for a **socket-overflow spill**:
    /// lowest class first, each class in its pop order, so the work the
    /// policy serves next stays local. A spill is relocation, not service:
    /// it skips the anti-starvation credit.
    fn spill_lowest(&mut self, quota: usize, out: &mut Vec<Task>) -> usize {
        let mut n = 0;
        for lane in self.classes.iter_mut().rev() {
            let k = lane.len().min(quota - n);
            out.extend(lane.drain(..k));
            n += k;
        }
        self.len -= n;
        n
    }

    /// Steal-half over the lanes: removes the
    /// `min(max, ceil(eligible / 2))` eligible tasks the *pop policy
    /// would serve first* (class priority, oldest first within a class),
    /// leaving ineligible tasks in place and in order. Returns how many
    /// were taken. Deliberately skips the credit bookkeeping — a steal is
    /// relocation, not service.
    ///
    /// One pass per lane: each task up to the last one taken leaves the
    /// front, to `out` or to the back, and one rotation puts the kept ones
    /// back ahead of the rest. A take costs the tasks passed over, not
    /// their count times the take.
    fn steal_eligible(&mut self, thief: usize, max: usize, out: &mut Vec<Task>) -> usize {
        let eligible = self
            .classes
            .iter()
            .flatten()
            .filter(|t| t.cpuset.contains(thief))
            .count();
        if eligible == 0 {
            return 0;
        }
        let quota = eligible.div_ceil(2).min(max);
        let mut taken = 0;
        for lane in &mut self.classes {
            // The lane is the tasks not yet passed, then the `kept` ones.
            let mut kept = 0;
            while taken < quota && kept < lane.len() {
                let task = lane.pop_front().expect("a task not yet passed");
                if task.cpuset.contains(thief) {
                    out.push(task);
                    taken += 1;
                } else {
                    lane.push_back(task);
                    kept += 1;
                }
            }
            lane.rotate_right(kept);
        }
        self.len -= taken;
        taken
    }
}

/// One task queue: a topology node's, or a socket's overflow.
pub(crate) struct TaskQueue {
    /// The paper's list + spinlock (§IV-A), then two counts only the
    /// holder writes ([`bump`]): tasks enqueued by submission, and tasks
    /// handed to a core allowed to run them. Owner and thieves take the
    /// lock; padded away from the hint so the keypoints that only read it
    /// do not contend the lock line.
    list: CachePadded<(SpinLock<SeqLanes>, AtomicU64, AtomicU64)>,
    /// Algorithm 2's unlocked emptiness test: the lane count, published
    /// under the lock and read without it.
    len: CachePadded<AtomicUsize>,
}

impl TaskQueue {
    pub(crate) fn new() -> Self {
        TaskQueue {
            list: CachePadded::new((
                SpinLock::new(SeqLanes::new()),
                AtomicU64::new(0),
                AtomicU64::new(0),
            )),
            len: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// The frame around every insertion: `LOCK; insert; UNLOCK` with the
    /// length hint published before the unlock. A stale hint is Algorithm
    /// 2's usual race: the lock carries the data and unpark tokens the
    /// progress. The store is Release so [`pending`](Self::pending) sees
    /// the `submitted` count written with it. Returns the depth after the
    /// insertion.
    fn with_lock(&self, insert: impl FnOnce(&mut SeqLanes)) -> usize {
        let mut guard = self.list.0.lock();
        insert(&mut guard);
        let depth = guard.len();
        self.len.store(depth, Ordering::Release);
        depth
    }

    /// Appends a task to the tail of its class lane and returns the queue
    /// depth just after the append, which feeds the spill-threshold check.
    pub(crate) fn enqueue(&self, task: Task) -> usize {
        self.with_lock(|lanes| {
            lanes.push(task);
            bump(&self.list.1, 1);
        })
    }

    /// Re-enqueue a repeat task without counting a new submission. Goes
    /// through the same class lanes as a fresh enqueue — in particular an
    /// urgent repeat task requeues at the *tail of the Urgent lane*: it
    /// still preempts every lower class, but does not cut ahead of older
    /// urgent work. Returns the depth just after the append.
    #[inline]
    pub(crate) fn requeue(&self, task: Task) -> usize {
        self.with_lock(|lanes| lanes.push(task))
    }

    /// [`requeue`](Self::requeue) for a whole batch under **one** lock
    /// acquisition, in order — how a spill lands in the socket overflow.
    pub(crate) fn requeue_batch(&self, tasks: &mut Vec<Task>) {
        if !tasks.is_empty() {
            self.with_lock(|lanes| tasks.drain(..).for_each(|t| lanes.push(t)));
        }
    }

    /// The paper's **Algorithm 2** (`Get_Task`), as the frame around every
    /// removal: evaluate the queue content without holding the mutex
    /// (`notempty(Queue)`); if non-empty, `LOCK; re-check; remove; UNLOCK`.
    /// "This technique permits to avoid race conditions with a minimal
    /// overhead since the mutex is only held when the list contains tasks."
    /// The hint is re-published under the lock. `remove` returns how many
    /// it took.
    fn with_nonempty(&self, remove: impl FnOnce(&mut SeqLanes) -> usize) -> usize {
        if self.len.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let mut guard = self.list.0.lock();
        let taken = remove(&mut guard);
        self.len.store(guard.len(), Ordering::Release);
        taken
    }

    /// Batched Algorithm 2: drains up to `max` tasks into `out`, in
    /// [`SeqLanes::pop`] order, under a *single* lock acquisition. Returns
    /// the number drained. Those `core` may run count as `executed` here;
    /// the others bounce home and count where they finally run.
    pub(crate) fn dequeue_batch(&self, max: usize, core: usize, out: &mut Vec<Task>) -> usize {
        self.with_nonempty(|lanes| {
            let take = lanes.len().min(max);
            let mut runnable = 0;
            for _ in 0..take {
                let task = lanes.pop().expect("len checked under the lock");
                runnable += u64::from(task.cpuset.contains(core));
                out.push(task);
            }
            bump(&self.list.2, runnable);
            take
        })
    }

    /// Batched stealing (*steal-half*): takes up to `max` of the tasks
    /// `thief` may run — at most **half of the eligible backlog**, rounded
    /// up, so the backlog splits geometrically between the home core and
    /// the thieves instead of moving whole — into `out`, in pop order
    /// ([`SeqLanes::steal_eligible`]). Returns how many were taken; all of
    /// them count as `executed`.
    pub(crate) fn try_steal_half(&self, thief: usize, max: usize, out: &mut Vec<Task>) -> usize {
        if max == 0 {
            return 0;
        }
        self.with_nonempty(|lanes| {
            let taken = lanes.steal_eligible(thief, max, out);
            bump(&self.list.2, taken as u64);
            taken
        })
    }

    /// Removes up to `quota` tasks for a socket-overflow spill, lowest
    /// class first ([`SeqLanes::spill_lowest`]).
    pub(crate) fn spill_lowest(&self, quota: usize, out: &mut Vec<Task>) -> usize {
        self.with_nonempty(|lanes| lanes.spill_lowest(quota, out))
    }

    /// Current length (hint; racy by nature). Relaxed: no data is consumed
    /// through it (the lock publishes the tasks), and the wake paths that
    /// guarantee progress carry unpark tokens, not this value.
    pub(crate) fn len_hint(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// The length hint for a stats snapshot: Acquire, pairing with the
    /// Release stores under the lock, so a `submitted` read after it
    /// counts every task it shows.
    pub(crate) fn pending(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    pub(crate) fn submitted(&self) -> u64 {
        self.list.1.load(Ordering::Relaxed)
    }

    pub(crate) fn executed(&self) -> u64 {
        self.list.2.load(Ordering::Relaxed)
    }

    /// `(acquisitions, contended acquisitions)` of the queue's spinlock.
    pub(crate) fn lock_stats(&self) -> (u64, u64) {
        let lock = &self.list.0;
        (lock.acquisitions(), lock.contended_acquisitions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::completion::TaskBody;
    use crate::task::{TaskSet, TaskStatus};
    use piom_cpuset::CpuSet;

    fn dummy_task() -> Task {
        task_for(CpuSet::single(0))
    }

    fn task_for(cpuset: CpuSet) -> Task {
        task_with(cpuset, TaskClass::Interactive)
    }

    fn task_with(cpuset: CpuSet, class: TaskClass) -> Task {
        Task {
            body: TaskBody::new(|_| TaskStatus::Done).0,
            repeat: false,
            class,
            cpuset: TaskSet::new(&cpuset),
            home: QueueId(0),
        }
    }

    /// Algorithm 2 for one task: whichever the pop policy serves next.
    fn pop(q: &TaskQueue) -> Option<Task> {
        let mut out = Vec::new();
        q.dequeue_batch(1, 0, &mut out);
        out.pop()
    }

    #[test]
    fn seq_lanes_serve_any_classed_element_under_the_pop_policy() {
        // Class priority, submission order within a class, and the exact
        // background bypass. Each task is named by its one-core cpuset.
        let named = |class, name| task_with(CpuSet::single(name), class);
        let mut lanes = SeqLanes::new();
        lanes.push(named(TaskClass::Background, 999));
        lanes.push(named(TaskClass::Bulk, 100));
        lanes.push(named(TaskClass::Bulk, 101));
        lanes.push(named(TaskClass::Bulk, 102));
        lanes.push(named(TaskClass::Urgent, 103));
        for i in 0..BACKGROUND_BYPASS_LIMIT {
            lanes.push(named(TaskClass::Interactive, i as usize));
        }
        assert_eq!(lanes.len(), 5 + BACKGROUND_BYPASS_LIMIT as usize);
        let order: Vec<usize> =
            core::iter::from_fn(|| lanes.pop().and_then(|t| t.cpuset().first())).collect();
        // Urgent, then 15 Interactive make 16 bypasses; Background is
        // served next, then the last Interactive, then Bulk in submission
        // order.
        let limit = BACKGROUND_BYPASS_LIMIT as usize;
        let mut expected = vec![103];
        expected.extend(0..limit - 1);
        expected.extend([999, limit - 1, 100, 101, 102]);
        assert_eq!(order, expected);
        assert_eq!(lanes.len(), 0);
    }

    #[test]
    fn fifo_order_spin() {
        let q = TaskQueue::new();
        for _ in 0..3 {
            q.enqueue(dummy_task());
        }
        assert_eq!(q.len_hint(), 3);
        let mut n = 0;
        while pop(&q).is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
        assert_eq!(q.len_hint(), 0);
        assert!(pop(&q).is_none());
    }

    #[test]
    fn empty_dequeue_never_locks() {
        let q = TaskQueue::new();
        assert!(pop(&q).is_none());
        // Algorithm 2's whole point: an empty queue is detected without a
        // single lock acquisition.
        assert_eq!(q.lock_stats().0, 0);
    }

    #[test]
    fn requeue_does_not_count_as_submission() {
        let q = TaskQueue::new();
        q.enqueue(dummy_task());
        let t = pop(&q).unwrap();
        q.requeue(t);
        assert_eq!(q.submitted(), 1);
        assert_eq!(q.len_hint(), 1);
    }

    #[test]
    fn requeue_batch_locks_once_and_keeps_order() {
        let q = TaskQueue::new();
        let mut batch: Vec<Task> = (0..4)
            .map(|i| task_for(CpuSet::from_iter([0, 10 + i])))
            .collect();
        q.requeue_batch(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(q.lock_stats().0, 1, "one acquisition for the whole batch");
        assert_eq!(q.len_hint(), 4);
        assert_eq!(q.submitted(), 0, "a relocation is not a submission");
        for marker in 10..14 {
            assert!(pop(&q).unwrap().cpuset().contains(marker));
        }
        q.requeue_batch(&mut batch);
        assert_eq!(q.lock_stats().0, 5, "an empty batch takes no lock");
    }

    #[test]
    fn batch_drains_in_one_lock_acquisition() {
        let q = TaskQueue::new();
        for _ in 0..5 {
            q.enqueue(dummy_task());
        }
        let locks_before = q.lock_stats().0;
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(8, 0, &mut out), 5);
        assert_eq!(out.len(), 5);
        assert_eq!(q.len_hint(), 0);
        assert_eq!(
            q.lock_stats().0 - locks_before,
            1,
            "a batch drain must lock exactly once"
        );
        // Draining an empty queue takes the unlocked fast path.
        assert_eq!(q.dequeue_batch(8, 0, &mut out), 0);
        assert_eq!(q.lock_stats().0 - locks_before, 1);
    }

    #[test]
    fn batch_respects_max() {
        let q = TaskQueue::new();
        for _ in 0..5 {
            q.enqueue(dummy_task());
        }
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(2, 0, &mut out), 2);
        assert_eq!(q.len_hint(), 3);
    }

    #[test]
    fn steal_skips_ineligible_tasks_without_reordering() {
        let q = TaskQueue::new();
        q.enqueue(task_for(CpuSet::single(0)));
        q.enqueue(task_for(CpuSet::from_iter([0, 3])));
        q.enqueue(task_for(CpuSet::single(0)));
        // Thief core 3 takes the (only) eligible task...
        let mut out = Vec::new();
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 1);
        assert!(out.pop().unwrap().cpuset().contains(3));
        // ...and the two ineligible ones stay, in order, still dequeuable.
        assert_eq!(q.len_hint(), 2);
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 0);
        assert!(pop(&q).is_some());
        assert!(pop(&q).is_some());
    }

    #[test]
    fn steal_half_takes_half_of_eligible_backlog() {
        let q = TaskQueue::new();
        // 6 eligible for thief 3, 2 not.
        for i in 0..8 {
            let set = if i % 4 == 3 {
                CpuSet::single(0)
            } else {
                CpuSet::from_iter([0, 3])
            };
            q.enqueue(task_for(set));
        }
        let mut out = Vec::new();
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 3);
        assert!(out.iter().all(|t| t.cpuset().contains(3)));
        assert_eq!(q.len_hint(), 5, "half the eligible + all ineligible stay");
        // The survivors are still dequeuable in order by the home core.
        let mut left = 0;
        while pop(&q).is_some() {
            left += 1;
        }
        assert_eq!(left, 5);
    }

    #[test]
    fn steal_half_rounds_up_and_honours_max() {
        let q = TaskQueue::new();
        q.enqueue(task_for(CpuSet::from_iter([0, 1])));
        let mut out = Vec::new();
        // ceil(1/2) = 1: a lone straggler is still stealable.
        assert_eq!(q.try_steal_half(1, usize::MAX, &mut out), 1);
        assert_eq!(q.len_hint(), 0);

        for _ in 0..10 {
            q.enqueue(task_for(CpuSet::from_iter([0, 1])));
        }
        out.clear();
        // Budget caps below the half quota.
        assert_eq!(q.try_steal_half(1, 2, &mut out), 2);
        assert_eq!(q.len_hint(), 8);
        assert_eq!(
            q.try_steal_half(1, 0, &mut out),
            0,
            "zero budget steals nothing"
        );
    }

    #[test]
    fn steal_half_on_empty_queue_never_locks() {
        let q = TaskQueue::new();
        let mut out = Vec::new();
        assert_eq!(q.try_steal_half(1, usize::MAX, &mut out), 0);
        assert_eq!(q.lock_stats().0, 0);
    }

    #[test]
    fn steal_preserves_fifo_of_survivors_ahead_of_newer_pushes() {
        // Stealing must not rotate the victim queue. Tag each task with a
        // unique marker cpu (10+i) so the drain order is observable;
        // even-indexed tasks are eligible for thief 3.
        let q = TaskQueue::new();
        for i in 0..6 {
            let mut set = CpuSet::from_iter([0, 10 + i]);
            if i % 2 == 0 {
                set.insert(3);
            }
            q.enqueue(task_for(set));
        }
        let mut out = Vec::new();
        // 3 eligible -> quota 2: tasks 0 and 2 (the oldest eligible) leave.
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 2);
        assert!(out[0].cpuset().contains(10));
        assert!(out[1].cpuset().contains(12));
        // A task pushed after the steal drains later than every survivor.
        q.enqueue(task_for(CpuSet::from_iter([0, 16])));
        // Survivors drain in original submission order: 1, 3, 4, 5.
        for expect in [11, 13, 14, 15, 16] {
            let t = pop(&q).expect("survivor present");
            assert!(
                t.cpuset().contains(expect),
                "queue was reordered: expected marker {expect}"
            );
        }
        assert!(pop(&q).is_none());
    }

    #[test]
    fn urgent_class_preempts_queue_order() {
        // Class priority is the preemption mechanism: an Urgent task
        // submitted after older Interactive work still drains first.
        let q = TaskQueue::new();
        q.enqueue(task_for(CpuSet::from_iter([0, 10])));
        q.enqueue(task_with(CpuSet::from_iter([0, 11]), TaskClass::Urgent));
        assert_eq!(q.len_hint(), 2);
        assert!(pop(&q).unwrap().cpuset().contains(11));
        assert!(pop(&q).unwrap().cpuset().contains(10));
    }

    #[test]
    fn urgent_requeue_lands_at_its_class_lane_tail() {
        // An urgent repeat task requeues *behind* older urgent work
        // (class-lane tail), not ahead of it — while still preempting
        // every lower class.
        let q = TaskQueue::new();
        q.enqueue(task_for(CpuSet::from_iter([0, 10])));
        let urgent = TaskClass::Urgent;
        q.enqueue(task_with(CpuSet::from_iter([0, 11]), urgent));
        let first = pop(&q).unwrap();
        assert!(first.cpuset().contains(11), "urgent preempts interactive");
        q.enqueue(task_with(CpuSet::from_iter([0, 12]), urgent));
        q.requeue(first);
        // The freshly enqueued urgent task (12) is older in the lane
        // than the requeued one (11); both beat the interactive task.
        assert!(pop(&q).unwrap().cpuset().contains(12));
        assert!(pop(&q).unwrap().cpuset().contains(11));
        assert!(pop(&q).unwrap().cpuset().contains(10));
    }

    #[test]
    fn steal_takes_the_tasks_the_pop_policy_would_serve_first() {
        // 2 eligible tasks (quota 1): the thief must get the Urgent one,
        // not the older Interactive one — steals honour class priority.
        let q = TaskQueue::new();
        q.enqueue(task_for(CpuSet::from_iter([0, 3])));
        q.enqueue(task_with(CpuSet::from_iter([0, 3]), TaskClass::Urgent));
        let mut out = Vec::new();
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 1);
        assert_eq!(out.pop().unwrap().class, TaskClass::Urgent);
        assert_eq!(q.len_hint(), 1);
        assert_eq!(pop(&q).unwrap().class, TaskClass::Interactive);
    }

    #[test]
    fn steal_behind_a_half_lane_it_may_not_run_keeps_both_orders() {
        // One 1 024-task lane, each task named by its home: only core 1 may
        // run the first half, core 0 (the thief) too the second.
        for (max, taken) in [(usize::MAX, 256), (100, 100)] {
            let mut lanes = SeqLanes::new();
            for i in 0..1024 {
                let set = if i < 512 {
                    CpuSet::single(1)
                } else {
                    CpuSet::range(0..2)
                };
                lanes.push(Task {
                    home: QueueId(i),
                    ..task_for(set)
                });
            }
            let mut out = Vec::new();
            assert_eq!(lanes.steal_eligible(0, max, &mut out), taken);
            let stolen: Vec<u32> = out.iter().map(|t| t.home.0).collect();
            assert_eq!(stolen, (512..512 + taken as u32).collect::<Vec<_>>());
            assert_eq!(lanes.len(), 1024 - taken);
            let left: Vec<u32> = core::iter::from_fn(|| lanes.pop())
                .map(|t| t.home.0)
                .collect();
            let expect: Vec<u32> = (0..512).chain(512 + taken as u32..1024).collect();
            assert_eq!(left, expect, "the kept tasks keep their place");
        }
    }

    #[test]
    fn enqueue_reports_post_append_depth() {
        let q = TaskQueue::new();
        assert_eq!(q.enqueue(dummy_task()), 1);
        assert_eq!(q.enqueue(dummy_task()), 2);
        pop(&q);
        assert_eq!(q.enqueue(dummy_task()), 2);
    }

    #[test]
    fn counters() {
        let q = TaskQueue::new();
        q.enqueue(dummy_task());
        q.enqueue(task_for(CpuSet::from_iter([0, 3])));
        q.enqueue(task_for(CpuSet::single(3)));
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(3, 0, &mut out), 3);
        assert_eq!(q.submitted(), 3);
        assert_eq!(
            q.executed(),
            2,
            "a hand-out counts only if core 0 may run it"
        );
        q.requeue_batch(&mut out);
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 1);
        assert_eq!(q.executed(), 3, "a stolen task always counts");
        assert_eq!(q.lock_stats(), (6, 0));
    }

    #[test]
    fn hand_outs_are_counted_exactly_across_threads() {
        // `submitted` and `executed` are a plain load + store under the
        // lock: threads enqueueing, draining and stealing at once lose no
        // count. A barrier lines the threads up.
        let q = TaskQueue::new();
        let per = if cfg!(miri) { 20 } else { 2_000 };
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for core in 0..3 {
                let (q, start) = (&q, &start);
                s.spawn(move || {
                    start.wait();
                    let mut out = Vec::new();
                    for i in 0..per {
                        q.enqueue(task_for(CpuSet::range(0..4)));
                        if i % 2 == 0 {
                            q.dequeue_batch(2, core, &mut out);
                        } else {
                            q.try_steal_half(core, 2, &mut out);
                        }
                        out.clear();
                    }
                });
            }
        });
        let mut out = Vec::new();
        q.dequeue_batch(usize::MAX, 3, &mut out);
        assert_eq!(q.len_hint(), 0);
        assert_eq!(q.submitted(), 3 * per);
        assert_eq!(q.executed(), 3 * per);
    }
}
