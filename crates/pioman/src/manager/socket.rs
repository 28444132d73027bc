//! The per-socket overflow tier: [`SocketTier`] (one overflow queue per
//! socket), spill, claim and cross-socket overflow steal.

use super::*;

/// One socket of the **per-socket overflow tier** (see
/// [`ManagerConfig::spill_threshold`]): the overflow queue deep member
/// queues spill into, and its lifetime spill count.
pub(super) struct SocketTier {
    /// Arena index of the topology node this socket stands for (a NUMA
    /// node; a chip or the machine root on trees without that level).
    pub(super) node: u32,
    /// Cores the socket spans.
    pub(super) cpuset: CpuSet,
    /// The overflow: the same [`TaskQueue`] every topology node has, so
    /// spilled tasks keep their QoS class and deadline lane across the
    /// spill, a spill lands and a claim leaves in one lock acquisition
    /// each, and a remote thief steals half in place. Its length hint
    /// gates claims, steals and park probes without the lock; its steal
    /// span (the union of the spilled tasks' cpusets, decayed in full
    /// when the overflow drains — the queue is built over an empty own
    /// cpuset) is the eligibility half of those gates. Its hand-out count
    /// (`executed`) is the socket's `claimed`.
    pub(super) overflow: TaskQueue,
    /// Tasks spilled into this socket's overflow (lifetime counter).
    pub(super) spilled: AtomicU64,
}

impl SocketTier {
    pub(super) fn new(node: u32, level: Level, cpuset: CpuSet) -> Self {
        SocketTier {
            node,
            cpuset,
            overflow: TaskQueue::new(QueueId(node), level, CpuSet::EMPTY),
            spilled: AtomicU64::new(0),
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
        let sock = &self.sockets[s];
        sock.overflow.requeue_batch(&mut batch);
        sock.spilled.fetch_add(taken as u64, Ordering::Relaxed);
        SCRATCH.set(batch);
    }

    /// Drains up to `max` tasks from `core`'s **own** socket overflow in
    /// pop-policy order (highest class first, EDF within a class) under
    /// **one** lock acquisition and runs them: the socket rung of the
    /// core → socket → global walk. One pass — the pops are bounded by
    /// the depth at arrival — and a popped task whose cpuset excludes
    /// `core` bounces to its home queue through the ordinary
    /// [`run_task`](Self::run_task) requeue path. `batch` is the caller's
    /// (drained) scratch. Returns `(bodies run, tasks taken)`.
    pub(super) fn claim_overflow(
        &self,
        core: usize,
        max: usize,
        batch: &mut Vec<Task>,
    ) -> (usize, usize) {
        let sock = &self.sockets[self.core_socket[core] as usize];
        let pass = sock.overflow.len_hint().min(max);
        if pass == 0 || !sock.overflow.steal_span.admits(core) {
            return (0, 0);
        }
        batch.clear();
        let taken = sock.overflow.dequeue_batch(pass, core, batch);
        let mut ran = 0;
        for task in batch.drain(..) {
            ran += usize::from(self.run_task(task, core));
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
        if sock.overflow.len_hint() == 0 || !sock.overflow.steal_span.admits(core) {
            return 0;
        }
        batch.clear();
        let stolen = sock.overflow.try_steal_half(core, max, batch);
        if stolen > 0 {
            self.run_stolen(core, batch);
        }
        stolen
    }
}
