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
//! the *owner* and *thieves* take the lock, and every *park probe* reads
//! the length hint and the steal span. Each of those groups sits behind a
//! [`CachePadded`] so one role's writes never evict the line another role
//! is polling. The queue's counts, `submitted` and `executed`, sit in the
//! lock's block and only the holder writes them, so they add no line and
//! no locked RMW. `DESIGN.md` §6 has the layout rationale.

use crate::spinlock::{bump, SpinLock};
use crate::task::{Task, TaskClass, CLASS_COUNT};
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crossbeam::utils::CachePadded;
use piom_cpuset::CpuSet;
use piom_topology::Level;
use std::collections::VecDeque;

/// Identifier of a task queue — the arena index of the topology node owning
/// it (per-core queue for leaves, global queue for the root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueueId(pub(crate) u32);

impl QueueId {
    /// Arena index.
    pub fn index(self) -> usize {
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

/// Number of deadline (EDF) lanes per class in [`SeqLanes`].
pub const DL_LANES: usize = 2;

/// An element that carries QoS routing metadata: which class lane it
/// belongs in and an optional EDF deadline (integer ticks).
pub trait Classed {
    /// The QoS class lane this element is enqueued into.
    fn class(&self) -> TaskClass;
    /// Optional deadline tick; `None` reads as "infinitely late" and the
    /// element drains FIFO behind the class's deadline-carrying elements.
    fn deadline(&self) -> Option<u64>;
}

/// Picks which of a class's [`DL_LANES`] deadline lanes a push with
/// `deadline` should append to, given each lane's tail deadline (`None` =
/// lane empty).
///
/// The goal is to keep each lane individually sorted by deadline so the
/// tournament pop (min over lane heads) is exact EDF. A lane is *eligible*
/// when appending keeps it sorted: it is empty, or its tail deadline is
/// `<= deadline`.
///
/// - If any non-empty lane is eligible, append to the one with the
///   **greatest** tail (ties: lowest index) — the tightest fit, which
///   preserves the other lanes' headroom for earlier deadlines.
/// - Else if any lane is empty, take the lowest-indexed empty lane.
/// - Else no append keeps sortedness (the deadline precedes every tail):
///   append to the **smallest**-tail lane (ties: lowest index). That lane
///   is now locally out of order and EDF degrades to best-effort until it
///   drains — the documented trade for keeping the hot path heap-free.
///
/// Pure function: the sequential oracle in the `qos_policy` proptests
/// re-derives this placement from the documented contract.
pub fn place_deadline_lane(tails: [Option<u64>; DL_LANES], deadline: u64) -> usize {
    let mut best_eligible: Option<(u64, usize)> = None;
    let mut first_empty: Option<usize> = None;
    let mut smallest: Option<(u64, usize)> = None;
    for (i, t) in tails.iter().enumerate() {
        match *t {
            Some(tail) => {
                if tail <= deadline && best_eligible.is_none_or(|(b, _)| tail > b) {
                    best_eligible = Some((tail, i));
                }
                if smallest.is_none_or(|(s, _)| tail < s) {
                    smallest = Some((tail, i));
                }
            }
            None => {
                if first_empty.is_none() {
                    first_empty = Some(i);
                }
            }
        }
    }
    if let Some((_, i)) = best_eligible {
        i
    } else if let Some(i) = first_empty {
        i
    } else {
        smallest.map(|(_, i)| i).unwrap_or(0)
    }
}

/// The QoS lanes of one queue: per [`TaskClass`], a FIFO lane for
/// deadline-less elements and [`DL_LANES`] deadline lanes, all plain
/// `VecDeque`s — every access happens under the owning queue's lock (or,
/// for the DES workloads that queue simulated requests in the same type,
/// on the single simulation thread), so the policy is sequential, exact
/// and deterministic. The `qos_policy` proptests pin it against an
/// independent oracle.
pub struct SeqLanes<T> {
    classes: [SeqClassLane<T>; CLASS_COUNT],
    /// Anti-starvation credit (see [`BACKGROUND_BYPASS_LIMIT`]).
    bg_credit: u32,
    len: usize,
}

struct SeqClassLane<T> {
    fifo: VecDeque<T>,
    dl: [VecDeque<T>; DL_LANES],
}

impl<T> Default for SeqClassLane<T> {
    fn default() -> Self {
        SeqClassLane {
            fifo: VecDeque::new(),
            dl: Default::default(),
        }
    }
}

impl<T> SeqClassLane<T> {
    fn is_empty(&self) -> bool {
        self.fifo.is_empty() && self.dl.iter().all(|l| l.is_empty())
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.dl.iter().flatten().chain(self.fifo.iter())
    }
}

impl<T: Classed> Default for SeqLanes<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Classed> SeqLanes<T> {
    /// Creates empty lanes.
    pub fn new() -> Self {
        SeqLanes {
            classes: Default::default(),
            bg_credit: 0,
            len: 0,
        }
    }

    /// Total element count across every lane.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no lane holds an element.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends to the element's class lane: the deadline lane chosen by
    /// [`place_deadline_lane`] when it carries a deadline, the class FIFO
    /// otherwise.
    pub fn push(&mut self, value: T) {
        let lane = &mut self.classes[value.class().index()];
        self.len += 1;
        match value.deadline() {
            Some(d) => {
                let tails = core::array::from_fn(|i| lane.dl[i].back().and_then(T::deadline));
                lane.dl[place_deadline_lane(tails, d)].push_back(value);
            }
            None => lane.fifo.push_back(value),
        }
    }

    /// Pops the earliest-deadline element of `class` (tournament over the
    /// deadline-lane fronts, ties to the lower lane), falling back to the
    /// class FIFO.
    fn pop_class(&mut self, class: TaskClass) -> Option<T> {
        let lane = &mut self.classes[class.index()];
        let heads: [Option<u64>; DL_LANES] =
            core::array::from_fn(|i| lane.dl[i].front().map(|t| t.deadline().unwrap_or(u64::MAX)));
        let value = match (heads[0], heads[1]) {
            (Some(a), Some(b)) => lane.dl[usize::from(a > b)].pop_front(),
            (Some(_), None) => lane.dl[0].pop_front(),
            (None, Some(_)) => lane.dl[1].pop_front(),
            (None, None) => lane.fifo.pop_front(),
        };
        if value.is_some() {
            self.len -= 1;
        }
        value
    }

    /// Pops the next element under the full QoS policy: strict class
    /// priority ([`TaskClass::ALL`] order), earliest-deadline-first within
    /// a class ahead of the class's FIFO elements — softened by the
    /// anti-starvation credit: every pop that serves a higher class while
    /// `Background` waits bumps the credit, and once it reaches
    /// [`BACKGROUND_BYPASS_LIMIT`] the next pop serves `Background` first
    /// and resets it.
    pub fn pop(&mut self) -> Option<T> {
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
            if let Some(value) = self.pop_class(class) {
                if class == TaskClass::Background {
                    self.bg_credit = 0;
                } else if !self.classes[bg].is_empty() {
                    self.bg_credit += 1;
                }
                return Some(value);
            }
        }
        None
    }

    /// Removes up to `quota` elements for a **socket-overflow spill**:
    /// lowest class first, each class in its pop order, so the work the
    /// policy serves next stays local. A spill is relocation, not service:
    /// it skips the anti-starvation credit.
    fn spill_lowest(&mut self, quota: usize, out: &mut Vec<T>) -> usize {
        let mut n = 0;
        'classes: for class in TaskClass::ALL.iter().rev() {
            while n < quota {
                let Some(value) = self.pop_class(*class) else {
                    continue 'classes;
                };
                out.push(value);
                n += 1;
            }
            break;
        }
        n
    }
}

impl SeqLanes<Task> {
    /// Steal-half over the lanes: removes the
    /// `min(max, ceil(eligible / 2))` eligible tasks the *pop policy
    /// would serve first* (class priority, EDF ahead of FIFO, FIFO in
    /// order), leaving ineligible tasks in place and in order. Returns
    /// how many were taken. Deliberately skips the credit bookkeeping —
    /// a steal is relocation, not service.
    fn steal_eligible(&mut self, thief: usize, max: usize, out: &mut Vec<Task>) -> usize {
        let eligible = self
            .classes
            .iter()
            .flat_map(|c| c.iter())
            .filter(|t| t.cpuset.contains(thief))
            .count();
        if eligible == 0 {
            return 0;
        }
        let quota = eligible.div_ceil(2).min(max);
        let mut taken = 0;
        'classes: for ci in 0..CLASS_COUNT {
            let lane = &mut self.classes[ci];
            // Deadline tasks first: repeatedly remove the earliest-deadline
            // eligible element across the class's (sorted) deadline lanes.
            loop {
                if taken >= quota {
                    break 'classes;
                }
                let mut best: Option<(u64, usize, usize)> = None;
                for (li, l) in lane.dl.iter().enumerate() {
                    for (i, t) in l.iter().enumerate() {
                        if t.cpuset.contains(thief) {
                            let d = t.options.deadline.unwrap_or(u64::MAX);
                            if best.is_none_or(|(bd, _, _)| d < bd) {
                                best = Some((d, li, i));
                            }
                            break; // lanes are sorted: first eligible is earliest
                        }
                    }
                }
                let Some((_, li, i)) = best else { break };
                out.push(lane.dl[li].remove(i).expect("index checked"));
                taken += 1;
                self.len -= 1;
            }
            // Then the class FIFO, oldest eligible first.
            let mut i = 0;
            while taken < quota && i < lane.fifo.len() {
                if lane.fifo[i].cpuset.contains(thief) {
                    out.push(lane.fifo.remove(i).expect("index checked"));
                    taken += 1;
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
        }
        taken
    }
}

/// Width of a [`Span`] in 64-bit words — one bit per possible CPU,
/// matching [`CpuSet::MAX_CPUS`] so a span can admit any core of the
/// widest supported fabric (the 1024-core quad-socket preset).
const SPAN_WORDS: usize = CpuSet::MAX_CPUS / 64;

/// A decaying union of task cpusets, kept as atomic words so
/// [`admits`](Self::admits) is a single relaxed load: the cpuset filter
/// behind park probes, steal-targeted wake-ups and overflow claims. Every
/// [`TaskQueue`] has one: its *steal span*, over the tasks enqueued there.
///
/// A core outside the span can never take work from the container it
/// describes, whatever the depth, so probing it is pointless. The span may
/// over-approximate the *current* backlog — that only costs a wasted
/// probe, never a lost task (the steal path re-checks real task cpusets
/// under the victim's lock) — and it is not a monotone union: a drain that
/// empties the container clears it ([`decay`](Self::decay)), so one that
/// once held wide-cpuset tasks stops attracting probes forever.
#[derive(Default)]
pub(crate) struct Span([AtomicU64; SPAN_WORDS]);

impl Span {
    /// ORs `set` into the span. Word-skipping: after the first task with a
    /// given span shape, the common case is relaxed loads only and zero
    /// RMWs.
    ///
    /// Must be called **after** the tasks it describes are visible to
    /// `decay`'s `still_pending` (after the push published the length),
    /// never before: `decay` restores what it cleared only when it
    /// observes pending work, so bits published ahead of their task could
    /// be cleared for good. The cost of folding late is that a probe
    /// racing the enqueue may transiently miss the new task (a wasted
    /// park, and the submission's own wake path covers it), never a stuck
    /// one. The `fetch_or` is Release, pairing with `decay`'s Acquire swap.
    pub(crate) fn fold(&self, (first, words): (usize, &[u64])) {
        for (word, &bits) in self.0[first..].iter().zip(words) {
            if bits != 0 && word.load(Ordering::Relaxed) & bits != bits {
                word.fetch_or(bits, Ordering::Release);
            }
        }
    }

    /// `true` if `core`'s bit is set (one relaxed load): some task with
    /// `core` in its cpuset was folded in and the span has not decayed
    /// since.
    pub(crate) fn admits(&self, core: usize) -> bool {
        core < CpuSet::MAX_CPUS
            && self.0[core / 64].load(Ordering::Relaxed) & (1u64 << (core % 64)) != 0
    }

    /// Relaxed snapshot of the span as a [`CpuSet`].
    pub(crate) fn snapshot(&self) -> CpuSet {
        CpuSet::from_words(core::array::from_fn(|i| self.0[i].load(Ordering::Relaxed)))
    }

    /// Clears the span after a removal that left the queue empty — unless
    /// nothing in it is wider than `own`, the queue's own cpuset, whose
    /// bits attract only cores already scanning the queue. The clear is a
    /// `swap(0)` per word, then the `still_pending` re-check of the length
    /// hint ORs every cleared bit back if a task slipped in:
    ///
    /// * an enqueue whose `fetch_or` lands after the swap re-adds its bits;
    /// * one whose `fetch_or` (Release) landed before the swap (Acquire)
    ///   synchronizes with it, so the re-check sees its push and restores;
    /// * an enqueuer that *skipped* its `fetch_or` (the word already held
    ///   its bits) can lose them. That costs at most a wasted park: the
    ///   span gates only the advisory park probe, the submission unparked
    ///   its cpuset's cores itself, and stealing never reads the span.
    ///
    /// `vendor/interleave/tests/queue_span.rs` is the model.
    pub(crate) fn decay(&self, own: &CpuSet, still_pending: impl FnOnce() -> bool) {
        if self
            .0
            .iter()
            .zip(own.as_words())
            .all(|(w, &own_bits)| w.load(Ordering::Relaxed) & !own_bits == 0)
        {
            return;
        }
        let mut cleared = [0u64; SPAN_WORDS];
        for (c, w) in cleared.iter_mut().zip(self.0.iter()) {
            // Acquire pairs with `fold`'s Release fetch_or: capturing an
            // enqueue's bits makes its push visible to the re-check.
            *c = w.swap(0, Ordering::Acquire);
        }
        if still_pending() {
            // fetch_or also preserves bits added in between.
            for (c, w) in cleared.iter().zip(self.0.iter()) {
                if *c != 0 {
                    w.fetch_or(*c, Ordering::Relaxed);
                }
            }
        }
    }
}

/// One task queue: a topology node's, or a socket's overflow.
pub(crate) struct TaskQueue {
    pub(crate) id: QueueId,
    pub(crate) level: Level,
    /// The cores whose hierarchy path includes this queue. Steal-span bits
    /// inside it never decay ([`Span::decay`]); a socket overflow passes
    /// [`CpuSet::EMPTY`] because *its* span gates claims, where every
    /// stale bit costs a wasted lock acquisition.
    pub(crate) cpuset: CpuSet,
    /// The paper's list + spinlock (§IV-A), then two counts only the
    /// holder writes ([`bump`]): tasks enqueued by submission, and tasks
    /// handed to a core allowed to run them. Owner and thieves take the
    /// lock; padded away from the hint so park-probe traffic does not
    /// contend the lock line.
    list: CachePadded<(SpinLock<SeqLanes<Task>>, AtomicU64, AtomicU64)>,
    /// Algorithm 2's unlocked emptiness test: the lane count, published
    /// under the lock and read without it.
    len: CachePadded<AtomicUsize>,
    /// Union of the cpusets of the tasks enqueued here: the filter the
    /// park probe consults before treating this queue's backlog as
    /// stealable by a core. Padded: every about-to-park core reads these words while
    /// enqueuers OR into them.
    pub(crate) steal_span: CachePadded<Span>,
}

impl TaskQueue {
    pub(crate) fn new(id: QueueId, level: Level, cpuset: CpuSet) -> Self {
        TaskQueue {
            id,
            level,
            cpuset,
            list: CachePadded::new((
                SpinLock::new(SeqLanes::new()),
                AtomicU64::new(0),
                AtomicU64::new(0),
            )),
            len: CachePadded::new(AtomicUsize::new(0)),
            steal_span: Default::default(),
        }
    }

    /// The frame around every insertion: `LOCK; insert; UNLOCK` with the
    /// length hint published before the unlock, then the fold of `span`,
    /// the inserted tasks' cpusets. A stale hint is Algorithm 2's usual
    /// race: the lock carries the data and unpark tokens the progress. The
    /// store is Release so [`pending`](Self::pending) sees the `submitted`
    /// count written with it. Returns the depth after the insertion.
    fn with_lock(&self, span: (usize, &[u64]), insert: impl FnOnce(&mut SeqLanes<Task>)) -> usize {
        let mut guard = self.list.0.lock();
        insert(&mut guard);
        let depth = guard.len();
        self.len.store(depth, Ordering::Release);
        drop(guard);
        // After the push: see `Span::fold`.
        self.steal_span.fold(span);
        depth
    }

    /// Appends a task to its class lane (tail of the lane; the deadline
    /// lanes order by [`place_deadline_lane`]) and returns the queue depth
    /// just after the append, which feeds the spill-threshold check.
    pub(crate) fn enqueue(&self, task: Task) -> usize {
        self.with_lock(task.cpuset.local().words(), |lanes| {
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
        self.with_lock(task.cpuset.local().words(), |lanes| lanes.push(task))
    }

    /// [`requeue`](Self::requeue) for a whole batch under **one** lock
    /// acquisition, in order — how a spill lands in the socket overflow.
    pub(crate) fn requeue_batch(&self, tasks: &mut Vec<Task>) {
        if !tasks.is_empty() {
            let span = tasks.iter().fold(CpuSet::EMPTY, |s, t| s | t.cpuset());
            self.with_lock((0, span.as_words()), |lanes| {
                tasks.drain(..).for_each(|t| lanes.push(t))
            });
        }
    }

    /// The paper's **Algorithm 2** (`Get_Task`), as the frame around every
    /// removal: evaluate the queue content without holding the mutex
    /// (`notempty(Queue)`); if non-empty, `LOCK; re-check; remove; UNLOCK`.
    /// "This technique permits to avoid race conditions with a minimal
    /// overhead since the mutex is only held when the list contains tasks."
    /// The hint is re-published under the lock, and a removal that left
    /// the queue empty decays the steal span. `remove` returns how many
    /// it took.
    fn with_nonempty(&self, remove: impl FnOnce(&mut SeqLanes<Task>) -> usize) -> usize {
        if self.len.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let mut guard = self.list.0.lock();
        let taken = remove(&mut guard);
        let left = guard.len();
        self.len.store(left, Ordering::Release);
        drop(guard);
        if taken > 0 && left == 0 {
            self.steal_span.decay(&self.cpuset, || self.len_hint() != 0);
        }
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
    use crate::task::{TaskOptions, TaskSet, TaskStatus};

    fn dummy_task(home: QueueId) -> Task {
        task_for(home, CpuSet::single(0))
    }

    fn task_for(home: QueueId, cpuset: CpuSet) -> Task {
        task_with(home, cpuset, TaskOptions::oneshot())
    }

    fn task_with(home: QueueId, cpuset: CpuSet, options: TaskOptions) -> Task {
        Task {
            body: TaskBody::new(|_| TaskStatus::Done).0,
            options,
            cpuset: TaskSet::new(&cpuset),
            home,
            submitted_at: None,
        }
    }

    fn queue() -> TaskQueue {
        TaskQueue::new(QueueId(0), Level::Core, CpuSet::single(0))
    }

    /// Algorithm 2 for one task: whichever the pop policy serves next.
    fn pop(q: &TaskQueue) -> Option<Task> {
        let mut out = Vec::new();
        q.dequeue_batch(1, 0, &mut out);
        out.pop()
    }

    #[test]
    fn placement_prefers_the_tightest_eligible_lane() {
        // Non-empty eligible lanes: greatest tail wins (tightest fit).
        assert_eq!(place_deadline_lane([Some(5), Some(8)], 10), 1);
        assert_eq!(place_deadline_lane([Some(8), Some(5)], 10), 0);
        // Ties break to the lowest index.
        assert_eq!(place_deadline_lane([Some(7), Some(7)], 10), 0);
        // An eligible non-empty lane beats an empty lane.
        assert_eq!(place_deadline_lane([None, Some(3)], 10), 1);
        // No eligible non-empty lane: lowest-indexed empty lane.
        assert_eq!(place_deadline_lane([None, None], 10), 0);
        assert_eq!(place_deadline_lane([Some(20), None], 10), 1);
        // Nothing eligible, nothing empty: smallest tail (best-effort).
        assert_eq!(place_deadline_lane([Some(20), Some(30)], 10), 0);
        assert_eq!(place_deadline_lane([Some(30), Some(20)], 10), 1);
    }

    #[test]
    fn seq_lanes_serve_any_classed_element_under_the_pop_policy() {
        // The lanes are generic over `Classed` (the DES workloads queue
        // simulated requests in them): class priority, EDF ahead of FIFO
        // within a class, and the exact background bypass.
        struct Item(TaskClass, Option<u64>, u32);
        impl Classed for Item {
            fn class(&self) -> TaskClass {
                self.0
            }
            fn deadline(&self) -> Option<u64> {
                self.1
            }
        }
        let mut lanes = SeqLanes::new();
        lanes.push(Item(TaskClass::Background, None, 999));
        lanes.push(Item(TaskClass::Bulk, None, 100));
        lanes.push(Item(TaskClass::Bulk, Some(30), 101));
        lanes.push(Item(TaskClass::Bulk, Some(10), 102));
        lanes.push(Item(TaskClass::Urgent, None, 103));
        for i in 0..BACKGROUND_BYPASS_LIMIT {
            lanes.push(Item(TaskClass::Interactive, None, i));
        }
        assert_eq!(lanes.len(), 5 + BACKGROUND_BYPASS_LIMIT as usize);
        let order: Vec<u32> = core::iter::from_fn(|| lanes.pop().map(|it| it.2)).collect();
        // Urgent, then 15 Interactive make 16 bypasses; Background is
        // served next, then the last Interactive, then Bulk by deadline
        // with the deadline-less element last.
        let mut expected = vec![103];
        expected.extend(0..BACKGROUND_BYPASS_LIMIT - 1);
        expected.extend([999, BACKGROUND_BYPASS_LIMIT - 1, 102, 101, 100]);
        assert_eq!(order, expected);
        assert!(lanes.is_empty());
    }

    #[test]
    fn fifo_order_spin() {
        let q = queue();
        for _ in 0..3 {
            q.enqueue(dummy_task(q.id));
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
        let q = queue();
        assert!(pop(&q).is_none());
        // Algorithm 2's whole point: an empty queue is detected without a
        // single lock acquisition.
        assert_eq!(q.lock_stats().0, 0);
    }

    #[test]
    fn requeue_does_not_count_as_submission() {
        let q = queue();
        q.enqueue(dummy_task(q.id));
        let t = pop(&q).unwrap();
        q.requeue(t);
        assert_eq!(q.submitted(), 1);
        assert_eq!(q.len_hint(), 1);
    }

    #[test]
    fn requeue_batch_locks_once_and_keeps_order() {
        let q = queue();
        let mut batch: Vec<Task> = (0..4)
            .map(|i| task_for(q.id, CpuSet::from_iter([0, 10 + i])))
            .collect();
        q.requeue_batch(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(q.lock_stats().0, 1, "one acquisition for the whole batch");
        assert_eq!(q.len_hint(), 4);
        assert_eq!(q.submitted(), 0, "a relocation is not a submission");
        assert!(
            q.steal_span.admits(13),
            "the batch's cpusets reach the span"
        );
        for marker in 10..14 {
            assert!(pop(&q).unwrap().cpuset().contains(marker));
        }
        q.requeue_batch(&mut batch);
        assert_eq!(q.lock_stats().0, 5, "an empty batch takes no lock");
    }

    #[test]
    fn batch_drains_in_one_lock_acquisition() {
        let q = queue();
        for _ in 0..5 {
            q.enqueue(dummy_task(q.id));
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
        let q = queue();
        for _ in 0..5 {
            q.enqueue(dummy_task(q.id));
        }
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(2, 0, &mut out), 2);
        assert_eq!(q.len_hint(), 3);
    }

    #[test]
    fn steal_skips_ineligible_tasks_without_reordering() {
        let q = queue();
        q.enqueue(task_for(q.id, CpuSet::single(0)));
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 3])));
        q.enqueue(task_for(q.id, CpuSet::single(0)));
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
        let q = queue();
        // 6 eligible for thief 3, 2 not.
        for i in 0..8 {
            let set = if i % 4 == 3 {
                CpuSet::single(0)
            } else {
                CpuSet::from_iter([0, 3])
            };
            q.enqueue(task_for(q.id, set));
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
        let q = queue();
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 1])));
        let mut out = Vec::new();
        // ceil(1/2) = 1: a lone straggler is still stealable.
        assert_eq!(q.try_steal_half(1, usize::MAX, &mut out), 1);
        assert_eq!(q.len_hint(), 0);

        for _ in 0..10 {
            q.enqueue(task_for(q.id, CpuSet::from_iter([0, 1])));
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
        let q = queue();
        let mut out = Vec::new();
        assert_eq!(q.try_steal_half(1, usize::MAX, &mut out), 0);
        assert_eq!(q.lock_stats().0, 0);
    }

    #[test]
    fn steal_preserves_fifo_of_survivors_ahead_of_newer_pushes() {
        // Stealing must not rotate the victim queue. Tag each task with a
        // unique marker cpu (10+i) so the drain order is observable;
        // even-indexed tasks are eligible for thief 3.
        let q = queue();
        for i in 0..6 {
            let mut set = CpuSet::from_iter([0, 10 + i]);
            if i % 2 == 0 {
                set.insert(3);
            }
            q.enqueue(task_for(q.id, set));
        }
        let mut out = Vec::new();
        // 3 eligible -> quota 2: tasks 0 and 2 (the oldest eligible) leave.
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 2);
        assert!(out[0].cpuset().contains(10));
        assert!(out[1].cpuset().contains(12));
        // A task pushed after the steal drains later than every survivor.
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 16])));
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
        let q = queue();
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 10])));
        q.enqueue(task_with(
            q.id,
            CpuSet::from_iter([0, 11]),
            TaskOptions::oneshot().class(TaskClass::Urgent),
        ));
        assert_eq!(q.len_hint(), 2);
        assert!(pop(&q).unwrap().cpuset().contains(11));
        assert!(pop(&q).unwrap().cpuset().contains(10));
    }

    #[test]
    fn urgent_requeue_lands_at_its_class_lane_tail() {
        // An urgent repeat task requeues *behind* older urgent work
        // (class-lane tail), not ahead of it — while still preempting
        // every lower class.
        let q = queue();
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 10])));
        let urgent = TaskOptions::repeat().class(TaskClass::Urgent);
        q.enqueue(task_with(q.id, CpuSet::from_iter([0, 11]), urgent));
        let first = pop(&q).unwrap();
        assert!(first.cpuset().contains(11), "urgent preempts interactive");
        q.enqueue(task_with(q.id, CpuSet::from_iter([0, 12]), urgent));
        q.requeue(first);
        // The freshly enqueued urgent task (12) is older in the lane
        // than the requeued one (11); both beat the interactive task.
        assert!(pop(&q).unwrap().cpuset().contains(12));
        assert!(pop(&q).unwrap().cpuset().contains(11));
        assert!(pop(&q).unwrap().cpuset().contains(10));
    }

    #[test]
    fn deadlines_drain_edf_within_a_class() {
        let q = queue();
        let bulk = TaskOptions::oneshot().class(TaskClass::Bulk);
        q.enqueue(task_with(q.id, CpuSet::from_iter([0, 10]), bulk));
        q.enqueue(task_with(
            q.id,
            CpuSet::from_iter([0, 11]),
            bulk.deadline(30),
        ));
        q.enqueue(task_with(
            q.id,
            CpuSet::from_iter([0, 12]),
            bulk.deadline(10),
        ));
        q.enqueue(task_with(
            q.id,
            CpuSet::from_iter([0, 13]),
            bulk.deadline(20),
        ));
        // EDF among deadline tasks, then the FIFO (deadline-less) task.
        for marker in [12, 13, 11, 10] {
            assert!(
                pop(&q).unwrap().cpuset().contains(marker),
                "expected marker {marker}"
            );
        }
        assert!(pop(&q).is_none());
    }

    #[test]
    fn steal_takes_the_tasks_the_pop_policy_would_serve_first() {
        // 2 eligible tasks (quota 1): the thief must get the Urgent one,
        // not the older Interactive one — steals honour class priority.
        let q = queue();
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 3])));
        q.enqueue(task_with(
            q.id,
            CpuSet::from_iter([0, 3]),
            TaskOptions::oneshot().class(TaskClass::Urgent),
        ));
        let mut out = Vec::new();
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 1);
        assert_eq!(out.pop().unwrap().options.class, TaskClass::Urgent);
        assert_eq!(q.len_hint(), 1);
        assert_eq!(pop(&q).unwrap().options.class, TaskClass::Interactive);
    }

    #[test]
    fn steal_span_unions_enqueued_cpusets() {
        let q = queue();
        assert!(!q.steal_span.admits(0), "empty queue admits nobody");
        q.enqueue(task_for(q.id, CpuSet::single(0)));
        assert!(q.steal_span.admits(0));
        assert!(!q.steal_span.admits(3));
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 3])));
        assert!(q.steal_span.admits(3));
        assert!(!q.steal_span.admits(255), "unseen cores stay excluded");
    }

    #[test]
    fn steal_span_decays_when_a_wide_queue_drains_empty() {
        // The span is not a forever-monotone union. Draining a queue whose
        // span grew wider than its own cpuset clears it, so the stale wide
        // bits stop attracting park probes.
        let q = queue();
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 3])));
        assert!(q.steal_span.admits(3));
        assert!(pop(&q).is_some());
        assert!(
            !q.steal_span.admits(3),
            "drained-empty queue must drop the wide span bit"
        );
        assert!(!q.steal_span.admits(0), "the whole span resets");
        // The span rebuilds from the next enqueue.
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 5])));
        assert!(q.steal_span.admits(5));
    }

    #[test]
    fn steal_span_within_own_cpuset_never_decays() {
        // Bits inside the queue's own cpuset can only attract cores whose
        // hierarchy path already includes this queue — clearing them would
        // buy nothing, so the drain-empty path skips the swap entirely.
        let q = queue(); // cpuset {0}
        q.enqueue(task_for(q.id, CpuSet::single(0)));
        assert!(pop(&q).is_some());
        assert!(
            q.steal_span.admits(0),
            "narrow span survives the drain (decay gated on wider-than-cpuset)"
        );
        // A socket overflow has no such cores (its span gates claims):
        // built over the empty set, every bit decays.
        let ovf = TaskQueue::new(QueueId(0), Level::NumaNode, CpuSet::EMPTY);
        ovf.enqueue(task_for(ovf.id, CpuSet::single(0)));
        assert!(pop(&ovf).is_some());
        assert!(!ovf.steal_span.admits(0));
    }

    #[test]
    fn steal_span_decays_after_batch_and_steal_drains_too() {
        let q = queue();
        for _ in 0..3 {
            q.enqueue(task_for(q.id, CpuSet::from_iter([0, 3])));
        }
        let mut out = Vec::new();
        q.dequeue_batch(8, 0, &mut out);
        assert!(!q.steal_span.admits(3), "batch drain decays the span");

        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 3])));
        out.clear();
        assert_eq!(q.try_steal_half(3, usize::MAX, &mut out), 1);
        assert!(!q.steal_span.admits(3), "a steal that empties decays too");
    }

    #[test]
    fn enqueue_reports_post_append_depth() {
        let q = queue();
        assert_eq!(q.enqueue(dummy_task(q.id)), 1);
        assert_eq!(q.enqueue(dummy_task(q.id)), 2);
        pop(&q);
        assert_eq!(q.enqueue(dummy_task(q.id)), 2);
    }

    #[test]
    fn counters() {
        let q = queue();
        q.enqueue(dummy_task(q.id));
        q.enqueue(task_for(q.id, CpuSet::from_iter([0, 3])));
        q.enqueue(task_for(q.id, CpuSet::single(3)));
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
        let q = TaskQueue::new(QueueId(0), Level::Chip, CpuSet::range(0..4));
        let per = if cfg!(miri) { 20 } else { 2_000 };
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for core in 0..3 {
                let (q, start) = (&q, &start);
                s.spawn(move || {
                    start.wait();
                    let mut out = Vec::new();
                    for i in 0..per {
                        q.enqueue(task_for(q.id, CpuSet::range(0..4)));
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
