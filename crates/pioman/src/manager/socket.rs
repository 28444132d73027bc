//! The per-socket overflow tier: [`SocketTier`] (one overflow queue per
//! socket and its [`Span`]), spill, claim and cross-socket overflow steal.

use super::*;

/// Width of a [`Span`] in 64-bit words — one bit per possible CPU,
/// matching [`CpuSet::MAX_CPUS`] so a span can admit any core of the
/// widest supported fabric (the 1024-core quad-socket preset).
const SPAN_WORDS: usize = CpuSet::MAX_CPUS / 64;

/// A decaying union of task cpusets, kept as atomic words so
/// [`admits`](Self::admits) is a single relaxed load: the eligibility gate
/// of overflow claims, cross-socket overflow steals and
/// [`TaskManager::has_work_for`]'s overflow term. Each [`SocketTier`] has
/// one, over the tasks spilled into its overflow.
///
/// A core outside the span can take nothing from the overflow, whatever
/// its depth, so locking it is pointless. The span may over-approximate
/// the *current* backlog — that only costs a wasted lock acquisition,
/// never a lost task (a claim and a steal re-check real task cpusets
/// under the overflow's lock) — and it is not a monotone union: a claim
/// or steal that empties the overflow clears it ([`decay`](Self::decay)).
#[derive(Default)]
pub(super) struct Span([AtomicU64; SPAN_WORDS]);

impl Span {
    /// ORs `set` into the span: one `fetch_or` per non-zero word, even
    /// when the word already holds the bits, so every fold is an RMW that
    /// a racing [`decay`](Self::decay)'s swap is ordered against. A spill
    /// moves a whole batch, so this costs a few RMWs per batch.
    ///
    /// Must be called **after** the tasks it describes are visible to
    /// `decay`'s `still_pending` (after the spill published the
    /// overflow's length), never before: `decay` restores what it cleared
    /// only when it observes pending work, so bits published ahead of
    /// their tasks could be cleared for good. The cost of folding late is
    /// that a claim racing the spill may skip the new tasks, which stay in
    /// the overflow for the next walk. The `fetch_or` is Release, pairing
    /// with `decay`'s Acquire swap.
    pub(super) fn fold(&self, set: &CpuSet) {
        for (word, &bits) in self.0.iter().zip(set.as_words()) {
            if bits != 0 {
                word.fetch_or(bits, Ordering::Release);
            }
        }
    }

    /// `true` if `core`'s bit is set (one relaxed load): some task with
    /// `core` in its cpuset was folded in and the span has not decayed
    /// since.
    pub(super) fn admits(&self, core: usize) -> bool {
        core < CpuSet::MAX_CPUS
            && self.0[core / 64].load(Ordering::Relaxed) & (1u64 << (core % 64)) != 0
    }

    /// Relaxed snapshot of the span as a [`CpuSet`].
    pub(super) fn snapshot(&self) -> CpuSet {
        CpuSet::from_words(core::array::from_fn(|i| self.0[i].load(Ordering::Relaxed)))
    }

    /// Clears the span after a removal that left the overflow empty. The
    /// clear is a `swap(0)` per word, then the `still_pending` re-check of
    /// the length hint ORs every cleared bit back if a task slipped in.
    /// Each word of a racing spill is one of two cases:
    ///
    /// * its `fetch_or` lands after the swap and re-adds its bits;
    /// * its `fetch_or` (Release) landed before the swap (Acquire), which
    ///   synchronizes with it, so the re-check sees its push and restores.
    ///
    /// The restore may bring back a *removed* task's bits too: an
    /// over-approximation costing one wasted lock acquisition.
    ///
    /// `vendor/interleave/tests/queue_span.rs` is the model.
    pub(super) fn decay(&self, still_pending: impl FnOnce() -> bool) {
        let mut cleared = [0u64; SPAN_WORDS];
        for (c, w) in cleared.iter_mut().zip(self.0.iter()) {
            // Acquire pairs with `fold`'s Release fetch_or: capturing a
            // spill's bits makes its push visible to the re-check.
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

/// One socket of the **per-socket overflow tier** (see
/// [`ManagerConfig::spill_threshold`]): the overflow queue deep member
/// queues spill into, its span and its lifetime spill count.
pub(super) struct SocketTier {
    /// Arena index of the topology node this socket stands for (a NUMA
    /// node; a chip or the machine root on trees without that level).
    pub(super) node: u32,
    /// The overflow: the same [`TaskQueue`] every topology node has, built
    /// over the socket's cores, so spilled tasks keep their QoS class lane
    /// across the spill, a spill lands and a claim leaves in one lock
    /// acquisition each, and a remote thief steals half in place. Its
    /// length hint gates claims and steals without the lock. Its hand-out
    /// count (`executed`) is the socket's `claimed`.
    pub(super) overflow: TaskQueue,
    /// The union of the spilled tasks' cpusets, the eligibility half of
    /// the claim and steal gates: folded after a spill lands, decayed
    /// after a claim or steal that leaves the overflow empty. Padded: the
    /// socket's cores read it on every walk while spills OR into it.
    pub(super) span: CachePadded<Span>,
    /// Tasks spilled into this socket's overflow (lifetime counter).
    pub(super) spilled: AtomicU64,
}

impl SocketTier {
    pub(super) fn new(node: u32) -> Self {
        SocketTier {
            node,
            overflow: TaskQueue::new(),
            span: Default::default(),
            spilled: AtomicU64::new(0),
        }
    }

    /// Decays the span after a removal of `taken` tasks, if the overflow
    /// now reads empty.
    fn decay_if_emptied(&self, taken: usize) {
        if taken > 0 && self.overflow.len_hint() == 0 {
            self.span.decay(|| self.overflow.len_hint() != 0);
        }
    }
}

impl TaskManager {
    /// Moves half of `home`'s backlog into socket `s`'s overflow, lowest
    /// class first ([`TaskQueue::spill_lowest`]): one lock acquisition on
    /// the home queue to take the batch, one on the overflow to land it.
    pub(super) fn spill(&self, home: QueueId, s: usize, depth: usize) {
        let quota = depth / 2;
        if quota == 0 {
            return;
        }
        let mut batch = SCRATCH.take();
        batch.clear();
        let taken = self.queues[home.index()].spill_lowest(quota, &mut batch);
        // The union of the moved tasks' sets, from the words each is
        // queued with.
        let mut span = [0; SPAN_WORDS];
        for task in &batch {
            let (first, words) = task.cpuset.words();
            for (s, w) in span[first..].iter_mut().zip(words) {
                *s |= w;
            }
        }
        let sock = &self.sockets[s];
        sock.overflow.requeue_batch(&mut batch);
        // After the spill landed: see `Span::fold`.
        sock.span.fold(&CpuSet::from_words(span));
        sock.spilled.fetch_add(taken as u64, Ordering::Relaxed);
        SCRATCH.set(batch);
    }

    /// Drains up to `max` tasks from `core`'s **own** socket overflow in
    /// pop-policy order (highest class first, FIFO within a class) under
    /// **one** lock acquisition and runs them: the socket rung of the
    /// core → socket → global walk. One pass — the pops are bounded by
    /// the depth at arrival — and a popped task whose cpuset excludes
    /// `core` bounces to its home queue through the ordinary
    /// [`run_task`](Self::run_task) requeue path. `batch` is the caller's
    /// (drained) scratch, `held` the keypoint's. Returns `(bodies run,
    /// tasks taken)`.
    pub(super) fn claim_overflow(
        &self,
        core: usize,
        max: usize,
        batch: &mut Vec<Task>,
        held: &mut impl Hold,
    ) -> (usize, usize) {
        let sock = &self.sockets[self.core_socket[core] as usize];
        let pass = sock.overflow.len_hint().min(max);
        if pass == 0 || !sock.span.admits(core) {
            return (0, 0);
        }
        batch.clear();
        let taken = sock.overflow.dequeue_batch(pass, core, batch);
        sock.decay_if_emptied(taken);
        let mut ran = 0;
        for task in batch.drain(..) {
            ran += usize::from(self.run_task(task, core, held));
        }
        (ran, taken)
    }

    /// Steal-half against a **remote socket's overflow**: the same
    /// in-place [`TaskQueue::try_steal_half`] a member queue gets — half of
    /// the tasks whose cpuset admits `core` (bounded by `max`), in pop
    /// policy order, under one lock acquisition; tasks `core` may not run
    /// stay in the overflow, in order. Gated on the overflow's length hint
    /// and span, so an empty or ineligible overflow costs two relaxed
    /// loads. Returns tasks stolen and executed.
    pub(super) fn steal_overflow(
        &self,
        core: usize,
        s: usize,
        max: usize,
        batch: &mut Vec<Task>,
    ) -> usize {
        let sock = &self.sockets[s];
        if sock.overflow.len_hint() == 0 || !sock.span.admits(core) {
            return 0;
        }
        batch.clear();
        let stolen = sock.overflow.try_steal_half(core, max, batch);
        sock.decay_if_emptied(stolen);
        if stolen > 0 {
            self.run_stolen(core, batch);
        }
        stolen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piom_topology::presets;

    #[test]
    fn span_unions_folded_cpusets() {
        let span = Span::default();
        assert!(!span.admits(0), "an empty span admits nobody");
        span.fold(&CpuSet::single(0));
        assert!(span.admits(0));
        assert!(!span.admits(3));
        span.fold(&CpuSet::from_iter([0, 3, 700]));
        assert!(span.admits(3) && span.admits(700));
        assert!(!span.admits(255), "unseen cores stay excluded");
        assert!(
            !span.admits(CpuSet::MAX_CPUS),
            "no core past the widest set"
        );
        assert_eq!(span.snapshot(), CpuSet::from_iter([0, 3, 700]));
    }

    #[test]
    fn span_decay_clears_the_span_unless_work_slipped_in() {
        let span = Span::default();
        let wide = CpuSet::from_iter([0, 3, 700]);
        span.fold(&wide);
        span.decay(|| true);
        assert_eq!(span.snapshot(), wide, "pending work restores every bit");
        span.decay(|| false);
        assert!(span.snapshot().is_empty(), "the whole span resets");
        // The span rebuilds from the next fold.
        span.fold(&CpuSet::single(5));
        assert!(span.admits(5) && !span.admits(0));
    }

    /// On kwak with a spill threshold of 4, four tasks homed on core 0
    /// spill two into socket 0's overflow. The removal that empties it —
    /// a member core's claim, or a remote thief's second steal — clears
    /// the span; a steal that leaves a task behind does not.
    #[test]
    fn a_claim_or_steal_that_empties_the_overflow_decays_its_span() {
        let runs_per_keypoint: [(usize, &[usize]); 2] = [(1, &[2]), (12, &[1, 1])];
        for (drainer, runs) in runs_per_keypoint {
            let mgr = TaskManager::with_config(
                presets::kwak().into(),
                ManagerConfig {
                    spill_threshold: 4,
                    ..ManagerConfig::default()
                },
            );
            for _ in 0..4 {
                mgr.task(|_| TaskStatus::Done)
                    .cpuset(CpuSet::from_iter([0, 1, 12]))
                    .on_core(0)
                    .spawn();
            }
            let socket = || mgr.stats().sockets[mgr.core_socket[0] as usize].clone();
            assert_eq!(socket().overflow_pending, 2);
            assert_eq!(socket().overflow_span, CpuSet::from_iter([0, 1, 12]));
            for (k, &ran) in runs.iter().enumerate() {
                assert_eq!(mgr.schedule_batch(drainer, usize::MAX), ran);
                let emptied = k + 1 == runs.len();
                assert_eq!(socket().overflow_pending == 0, emptied);
                assert_eq!(socket().overflow_span.is_empty(), emptied, "core {drainer}");
            }
        }
    }
}
