//! The per-socket overflow tier: [`SocketTier`] (overflow queue + socket
//! aggregates), spill, claim, cross-socket overflow steal and the socket
//! accounting every enqueue and removal updates.

use super::*;

/// One socket of the **per-socket overflow tier** (see
/// [`ManagerConfig::spill_threshold`]): the overflow queue deep member
/// queues spill into, plus the socket-aggregated signals — pending hint,
/// steal span, parked-worker count — that let park probes, steal-targeted
/// wakes and cross-socket steal gates consult one padded block per socket
/// instead of touching every member core's state.
pub(super) struct SocketTier {
    /// Arena index of the topology node this socket aggregates (a NUMA
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
    /// Tasks pending across the socket's member queues *and* overflow
    /// (racy signed hint — increments and decrements race, so transient
    /// negatives are possible and callers clamp at zero). The O(1) filter
    /// a *remote* core's park probe reads instead of scanning this
    /// socket's member queues.
    pub(super) pending: CachePadded<AtomicI64>,
    /// Union of enqueued task cpusets across member queues and overflow,
    /// decayed when `pending` drains (only bits outside `cpuset` — in-socket
    /// bits attract member cores, whose probes re-check the member
    /// queues): the eligibility half of the remote park-probe filter.
    pub(super) span: CachePadded<Span>,
    /// Parked progression workers among this socket's cores, maintained
    /// alongside the per-core flags: lets a steal-targeted wake skip a
    /// fully-busy socket's whole candidate run in O(1).
    pub(super) parked: AtomicU64,
    /// Tasks spilled into this socket's overflow (lifetime counter).
    pub(super) spilled: AtomicU64,
}

impl SocketTier {
    pub(super) fn new(node: u32, level: Level, cpuset: CpuSet) -> Self {
        SocketTier {
            node,
            cpuset,
            overflow: TaskQueue::new(QueueId(node), level, CpuSet::EMPTY),
            pending: CachePadded::new(AtomicI64::new(0)),
            span: Default::default(),
            parked: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
        }
    }
}

impl TaskManager {
    /// Records `set`'s task landing on `queue` in the queue's socket
    /// aggregates (pending hint + socket span). Queues above every socket
    /// node (the Global Queue) have no socket to account to.
    pub(super) fn note_enqueued(&self, queue: QueueId, set: &TaskSet<CpuSet>) {
        if let Some(s) = self.queue_socket[queue.index()] {
            let sock = &self.sockets[s as usize];
            sock.pending.fetch_add(1, Ordering::Relaxed);
            sock.span.fold(set.words());
        }
    }

    /// Records `n` tasks leaving `queue`; a drain that (by the racy hint)
    /// empties the socket decays its span ([`Span::decay`]).
    pub(super) fn note_removed(&self, queue: QueueId, n: usize) {
        if let Some(s) = self.queue_socket[queue.index()] {
            self.note_removed_socket(s as usize, n);
        }
    }

    /// [`note_removed`](Self::note_removed) when the socket is already
    /// known (overflow pops).
    fn note_removed_socket(&self, s: usize, n: usize) {
        let sock = &self.sockets[s];
        if n > 0 && sock.pending.fetch_sub(n as i64, Ordering::Relaxed) <= n as i64 {
            sock.span
                .decay(&sock.cpuset, || sock.pending.load(Ordering::Relaxed) > 0);
        }
    }

    /// Moves half of `home`'s backlog into socket `s`'s overflow, lowest
    /// class first ([`TaskQueue::spill_lowest`]): one lock acquisition on
    /// the home queue to take the batch, one on the overflow to land it.
    /// Socket pending is unchanged — the tasks stay in the socket — so
    /// only the overflow (depth, span) and the lifetime spill counter move.
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
        let s = self.core_socket[core] as usize;
        let sock = &self.sockets[s];
        let pass = sock.overflow.len_hint().min(max);
        if pass == 0 || !sock.overflow.steal_span.admits(core) {
            return (0, 0);
        }
        batch.clear();
        let taken = sock.overflow.dequeue_batch(pass, core, batch);
        self.note_removed_socket(s, taken);
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
            self.note_removed_socket(s, stolen);
            self.run_stolen(core, batch);
        }
        stolen
    }
}
