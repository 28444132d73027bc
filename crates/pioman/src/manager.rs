//! The task manager: hierarchical queues + Algorithms 1 and 2.

use crate::completion::TaskBody;
use crate::pad::CachePadded;
use crate::queue::{QueueId, TaskQueue};
use crate::stats::{ManagerStats, QueueStats, SocketStats};
use crate::task::{Task, TaskClass, TaskContext, TaskSet, TaskStatus};
use crate::TaskHandle;
use core::cmp::Reverse;
use core::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use parking_lot::Mutex;
use piom_cpuset::CpuSet;
use piom_topology::{Level, NodeId, Topology};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::Thread;

mod held;
mod park;
mod socket;
mod submit;

pub(crate) use held::{HeldLane, Hold};
use socket::SocketTier;
pub(crate) use submit::PendingTask;
pub use submit::SubmitSpec;

/// Smallest per-keypoint budget [`TaskManager::adaptive_budget`] returns:
/// even an apparently-empty hierarchy gets a few slots, because work can
/// land between the depth probe and the drain.
pub const MIN_BATCH: usize = 4;

/// Largest budget [`TaskManager::adaptive_budget`] returns: one keypoint
/// never monopolizes its core beyond this many tasks, however deep the
/// backlog, so shutdown/park checks stay responsive.
pub const MAX_BATCH: usize = 256;

/// The budget [`TaskManager::adaptive_budget`] gives a stealing core whose
/// own path is empty: room for one steal-half batch.
pub const DEFAULT_BATCH: usize = 32;

/// Default [`ManagerConfig::spill_threshold`]. Sized well above
/// [`MAX_BATCH`]: steal-half probes get first crack at an imbalance, and a
/// backlog one keypoint budget can clear never pays the spill round trip,
/// which is slower than a local batched drain. `tests/socket_tier.rs`
/// lowers it to 16 so a 256-task backlog engages the tier.
pub const DEFAULT_SPILL_THRESHOLD: usize = 512;

/// Task-manager construction options.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Locality-aware work stealing: a core whose hierarchy scan
    /// (Algorithm 1) ran nothing takes **half** of the eligible backlog of
    /// the nearest victim that has any (see `steal_batch`). On by default.
    pub steal: bool,
    /// Queue depth, observed at enqueue time, at which a queue below its
    /// socket node spills half its backlog, lowest class first, into the
    /// socket's **overflow tier** (one per NUMA node, else chip). Keypoints
    /// drain the overflow between the socket-node queue and the Global
    /// Queue, and thieves probe a remote socket's overflow before its
    /// queues. Inert on single-socket topologies.
    pub spill_threshold: usize,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            steal: true,
            spill_threshold: DEFAULT_SPILL_THRESHOLD,
        }
    }
}

// Reused per thread so steady-state keypoints never allocate. Taken (not
// borrowed): a task body that re-enters the scheduler simply sees an empty
// scratch instead of a reentrancy panic.
thread_local! {
    static SCRATCH: core::cell::Cell<Vec<Task>> =
        const { core::cell::Cell::new(Vec::new()) };
}

/// Per-core scheduler state, one cache-line-padded block per core: a
/// core's hot-path RMWs stay on a line no other core writes, and the flag
/// other cores read on every submission (`waker_present`) has its own.
#[derive(Debug, Default)]
struct CoreState {
    /// Tasks executed on this core (the paper's distribution
    /// measurements).
    executed: AtomicU64,
    /// Tasks stolen by this core, counted once the batch has run.
    stolen: AtomicU64,
    /// Steal probes by this core (a probe is one empty hierarchy scan).
    steal_attempts: AtomicU64,
    /// Successful steal-half batches (each took ≥ 1 task).
    steal_batches: AtomicU64,
    /// Parks of this core's progression worker.
    parks: AtomicU64,
    /// Runs of the tasks this core's worker holds (see [`HeldLane`]),
    /// counted at hand-out by that worker alone; the snapshot adds them to
    /// this core's own queue's `executed`.
    held_runs: AtomicU64,
    /// Whether a progression worker has claimed this core: lets
    /// [`TaskManager::wake_cores`] skip the waker mutex of a workerless
    /// core with one load, and refuses a second worker. Set *before* the
    /// waker installs and cleared *after* it is removed, so `false` means
    /// no waker; a worker between its claim and its first keypoint scan
    /// sees the task in that scan.
    waker_present: CachePadded<AtomicBool>,
}

/// One socket group in a core's victim scan: the socket id plus its member
/// victim queues as `(queue index, distance)` pairs, kept in
/// [`Topology::steal_order_with_distance`] order.
type SocketVictimGroup = (u32, Vec<(u32, u8)>);

/// The scalable task scheduling system: one queue per topology node,
/// submission by CPU set, execution by upward queue scan.
///
/// See the [crate docs](crate) for an overview and the paper mapping.
pub struct TaskManager {
    topo: Arc<Topology>,
    /// One queue per topology node, indexed by node arena index.
    queues: Vec<TaskQueue>,
    /// Per-core hot counters + waker-presence flag, each core on its own
    /// cache line (see [`CoreState`]).
    cores: Vec<CachePadded<CoreState>>,
    /// Progression workers to unpark when work arrives, one slot per core.
    wakers: Vec<Mutex<Option<Thread>>>,
    /// Per-core victim scan, socket-major: the core's own socket's victim
    /// queues first, then each remote socket's, nearest socket first (ties
    /// by id). Within a socket group the entries keep the
    /// [`Topology::steal_order_with_distance`] order: equal distances form
    /// a *tier*, re-ranked by observed queue depth at probe time.
    steal_order: Vec<Vec<SocketVictimGroup>>,
    /// The socket tiers (one per NUMA node / chip / machine — see
    /// [`SocketTier::node`]), indexed by socket id.
    sockets: Vec<SocketTier>,
    /// Each core's socket id.
    core_socket: Vec<u32>,
    /// Each queue's socket id (`None` only for queues *above* every
    /// socket node — the Global Queue on multi-socket trees).
    queue_socket: Vec<Option<u32>>,
    /// Whether the overflow tier is live: the tree has more than one
    /// socket (single-socket machines have no "whole socket" distinct from
    /// the machine, so the tier would only duplicate the Global Queue).
    socket_overflow_active: bool,
    /// Dependency-waitlist releases: tasks parked by [`SubmitSpec::after`]
    /// that re-entered the queues. Not per core: a release happens at most
    /// once per dependent, off the hot path. Padded away from the words
    /// every keypoint reads.
    released: CachePadded<AtomicU64>,
    config: ManagerConfig,
}

impl TaskManager {
    /// Creates a manager with default configuration.
    pub fn new(topo: Arc<Topology>) -> Arc<Self> {
        Self::with_config(topo, ManagerConfig::default())
    }

    /// Creates a manager with explicit configuration.
    pub fn with_config(topo: Arc<Topology>, config: ManagerConfig) -> Arc<Self> {
        let n_cores = topo.n_cores();
        let queues = (0..topo.n_nodes()).map(|_| TaskQueue::new()).collect();
        let cores = (0..n_cores).map(|_| Default::default()).collect();
        let wakers = (0..n_cores).map(|_| Mutex::new(None)).collect();

        // Socket detection: NUMA nodes are the natural spill/steal
        // aggregation domain; trees without a NUMA level fall back to
        // chips, and flat trees to the machine root (one socket — the
        // overflow tier then stays inert).
        let socket_nodes: Vec<NodeId> = [Level::NumaNode, Level::Chip]
            .into_iter()
            .map(|level| topo.nodes_at_level(level))
            .find(|nodes| !nodes.is_empty())
            .unwrap_or_else(|| vec![topo.root()]);
        let map_queue_sockets = |socket_nodes: &[NodeId]| -> Vec<Option<u32>> {
            let mut direct = vec![None; topo.n_nodes()];
            for (s, id) in socket_nodes.iter().enumerate() {
                direct[id.index()] = Some(s as u32);
            }
            topo.node_ids()
                .map(|id| {
                    let mut cur = Some(id);
                    while let Some(n) = cur {
                        if let Some(s) = direct[n.index()] {
                            return Some(s);
                        }
                        cur = topo.node(n).parent;
                    }
                    None
                })
                .collect()
        };
        let mut queue_socket = map_queue_sockets(&socket_nodes);
        // Irregular trees could leave a core outside every socket node;
        // collapse to the single-root socket rather than schedule blind.
        let covered = (0..n_cores).all(|c| queue_socket[topo.core_node(c).index()].is_some());
        let socket_nodes = if covered {
            socket_nodes
        } else {
            let roots = vec![topo.root()];
            queue_socket = map_queue_sockets(&roots);
            roots
        };
        let sockets: Vec<SocketTier> = socket_nodes
            .iter()
            .map(|id| SocketTier::new(id.index() as u32))
            .collect();
        let socket_overflow_active = sockets.len() > 1;
        let core_socket: Vec<u32> = (0..n_cores)
            .map(|c| queue_socket[topo.core_node(c).index()].expect("core outside every socket"))
            .collect();
        let steal_order: Vec<Vec<SocketVictimGroup>> = (0..n_cores)
            .map(|c| {
                let mut order: Vec<u32> = (0..sockets.len() as u32).collect();
                // Own socket lands first naturally: the core is inside its
                // own socket's span, so its distance is 0.
                order.sort_by_cached_key(|&s| (topo.node_distance(c, socket_nodes[s as usize]), s));
                let mut groups: Vec<SocketVictimGroup> =
                    order.into_iter().map(|s| (s, Vec::new())).collect();
                let slot: std::collections::HashMap<u32, usize> = groups
                    .iter()
                    .enumerate()
                    .map(|(i, &(s, _))| (s, i))
                    .collect();
                for (id, dist) in topo.steal_order_with_distance(c) {
                    // Every victim sits at or below some socket node (only
                    // strict ancestors of the sockets lack one, and those
                    // are on every core's path, hence never victims).
                    let s = queue_socket[id.index()].expect("victim above every socket");
                    groups[slot[&s]]
                        .1
                        .push((id.index() as u32, dist.min(u8::MAX as usize) as u8));
                }
                groups
            })
            .collect();
        Arc::new(TaskManager {
            topo,
            queues,
            cores,
            wakers,
            steal_order,
            sockets,
            core_socket,
            queue_socket,
            socket_overflow_active,
            released: Default::default(),
            config,
        })
    }

    /// The topology the queues are mapped onto.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The paper's **Algorithm 1** (`Task Schedule`), invoked from scheduler
    /// keypoints: starting at `core`'s Per-Core Queue and walking up to the
    /// Global Queue, run every task found, at most one *pass* (the queue's
    /// length at arrival) per queue, so repeat tasks — re-enqueued on
    /// [`TaskStatus::Again`] — cannot livelock the keypoint. A scan that
    /// ran nothing steals (see [`ManagerConfig::steal`]). Returns `true`
    /// if at least one task body was executed.
    pub fn schedule(&self, core: usize) -> bool {
        self.schedule_batch(core, usize::MAX) > 0
    }

    /// [`schedule`](Self::schedule) with a task budget: each queue on
    /// `core`'s path is drained up to `min(pass, budget)` tasks under a
    /// **single** lock acquisition. Returns the number of task bodies
    /// executed (at most `max`).
    ///
    /// ```
    /// use pioman::{TaskManager, TaskStatus};
    /// use piom_cpuset::CpuSet;
    /// use piom_topology::presets;
    ///
    /// let mgr = TaskManager::new(presets::kwak().into());
    /// for _ in 0..8 {
    ///     mgr.task(|_| TaskStatus::Done).cpuset(CpuSet::single(0)).spawn();
    /// }
    /// // One keypoint drains the whole backlog, one lock acquisition for
    /// // all eight tasks; the budget caps how much one keypoint may run.
    /// assert_eq!(mgr.schedule_batch(0, 6), 6);
    /// assert_eq!(mgr.schedule_batch(0, 6), 2);
    /// assert_eq!(mgr.schedule_batch(0, 6), 0);
    /// ```
    pub fn schedule_batch(&self, core: usize, max: usize) -> usize {
        self.keypoint(core, max, &mut ()).0
    }

    /// [`schedule_batch`](Self::schedule_batch), and whether it only put
    /// back tasks `core` may not run, each queue passed whole: it ran none
    /// and took fewer than `max` (a cut pass takes `max`). `held` takes
    /// the repeat tasks that return `Again` and runs its own after the
    /// core queue's pass: a worker's [`HeldLane`], or `()` for none.
    fn keypoint(&self, core: usize, max: usize, held: &mut impl Hold) -> (usize, bool) {
        debug_assert!(core < self.topo.n_cores(), "core id out of range");
        let (mut ran, mut took) = (0, 0);
        let socket_node = self.sockets[self.core_socket[core] as usize].node;
        let mut batch = SCRATCH.take();
        for (rung, node) in self.topo.path_to_root(core).enumerate() {
            if ran >= max {
                break;
            }
            let queue = &self.queues[node.index()];
            // One *pass* (the queue length at arrival) per queue per call,
            // so repetitive polling tasks cannot livelock the keypoint. The
            // core's own pass leaves room for the held tasks run after it,
            // so a flood on the core queue cannot starve them.
            let room = if rung == 0 {
                max - held.len().min(max)
            } else {
                max - ran
            };
            let pass = queue.len_hint().min(room);
            if pass > 0 {
                batch.clear();
                took += queue.dequeue_batch(pass, core, &mut batch);
                for task in batch.drain(..) {
                    ran += usize::from(self.run_task(task, core, held));
                }
            }
            if rung == 0 {
                ran += held.run(self, core, max - ran);
            }
            // The socket rung of the core → socket → global walk: after
            // the socket node's own queue, drain what the socket's deep
            // member queues spilled.
            if self.socket_overflow_active && node.index() as u32 == socket_node && ran < max {
                let (claimed, taken) = self.claim_overflow(core, max - ran, &mut batch, held);
                (ran, took) = (ran + claimed, took + taken);
            }
        }
        batch.clear();
        SCRATCH.set(batch);
        if ran == 0 && self.config.steal {
            ran += self.steal_batch(core, max);
        }
        (ran, ran == 0 && 0 < took && took < max)
    }

    /// The per-keypoint task budget for `core`: the backlog visible on its
    /// drain path — its queues up to the Global Queue plus its socket's
    /// overflow — clamped to [`MIN_BATCH`]`..=`[`MAX_BATCH`]. A keypoint
    /// drains one pass per queue whatever the budget, so a larger one
    /// could only admit later arrivals (`docs/SCHEDULER.md` §4). An empty
    /// path with stealing on gets [`DEFAULT_BATCH`], room for a steal-half
    /// batch that [`MIN_BATCH`] would clamp.
    ///
    /// ```
    /// use pioman::{TaskManager, TaskStatus, DEFAULT_BATCH};
    /// use piom_cpuset::CpuSet;
    /// use piom_topology::presets;
    ///
    /// let mgr = TaskManager::new(presets::kwak().into());
    /// // Empty hierarchy: budget covers a steal-half batch.
    /// assert_eq!(mgr.adaptive_budget(0), DEFAULT_BATCH);
    /// for _ in 0..100 {
    ///     mgr.task(|_| TaskStatus::Done).cpuset(CpuSet::single(0)).spawn();
    /// }
    /// assert_eq!(mgr.adaptive_budget(0), 100); // the budget is the backlog
    /// ```
    pub fn adaptive_budget(&self, core: usize) -> usize {
        debug_assert!(core < self.topo.n_cores(), "core id out of range");
        let mut depth: usize = self
            .topo
            .path_to_root(core)
            .map(|node| self.queues[node.index()].len_hint())
            .sum();
        if self.socket_overflow_active {
            depth += self.sockets[self.core_socket[core] as usize]
                .overflow
                .len_hint();
        }
        match depth {
            0 if self.config.steal => DEFAULT_BATCH,
            _ => depth.clamp(MIN_BATCH, MAX_BATCH),
        }
    }

    /// One steal probe for `core`: visit the victim queues nearest-first
    /// and, at the first victim holding eligible work, take **half of its
    /// eligible backlog** ([`TaskQueue::try_steal_half`], at most `max`)
    /// and run it. Returns the number of tasks stolen and run.
    ///
    /// The scan is socket-major: the thief's own socket first, then each
    /// remote socket's overflow ([`steal_overflow`](Self::steal_overflow))
    /// and member queues. Within a distance tier of
    /// [`Topology::steal_order_with_distance`] the deepest backlog is
    /// probed first, but never past a nearer tier with candidates.
    fn steal_batch(&self, core: usize, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        self.cores[core]
            .steal_attempts
            .fetch_add(1, Ordering::Relaxed);
        let own = self.core_socket[core];
        let mut batch = SCRATCH.take();
        let mut ran = 0;
        'sockets: for (s, order) in &self.steal_order[core] {
            if *s != own && self.socket_overflow_active {
                ran = self.steal_overflow(core, *s as usize, max, &mut batch);
                if ran > 0 {
                    break;
                }
            }
            let mut tier_start = 0;
            while tier_start < order.len() {
                let distance = order[tier_start].1;
                let tier_end = tier_start
                    + order[tier_start..]
                        .iter()
                        .take_while(|&&(_, d)| d == distance)
                        .count();
                // Deepest backlog first within the tier, ties by queue
                // index: each visit picks the greatest (depth, -index) key
                // below the last one visited, so ranking allocates nothing.
                // len_hint is racy, but a misranked probe only costs one
                // extra empty visit, and the keys strictly fall, so the
                // tier's scan ends.
                let tier = &order[tier_start..tier_end];
                let key = |&(qi, _): &(u32, u8)| (self.queues[qi as usize].len_hint(), Reverse(qi));
                let mut last = None;
                while let Some(next) = tier
                    .iter()
                    .map(key)
                    .filter(|k| k.0 > 0 && last.is_none_or(|last| *k < last))
                    .max()
                {
                    last = Some(next);
                    let queue = &self.queues[next.1 .0 as usize];
                    batch.clear();
                    let stolen = queue.try_steal_half(core, max, &mut batch);
                    if stolen > 0 {
                        self.run_stolen(core, &mut batch);
                        ran = stolen;
                        break 'sockets;
                    }
                }
                tier_start = tier_end;
            }
        }
        batch.clear();
        SCRATCH.set(batch);
        ran
    }

    /// Runs and counts one steal-half batch. `try_steal_half` only yields
    /// tasks whose cpuset admits `core`, so none of them requeues.
    fn run_stolen(&self, core: usize, batch: &mut Vec<Task>) {
        let state = &self.cores[core];
        state.steal_batches.fetch_add(1, Ordering::Relaxed);
        let n = batch.len() as u64;
        for task in batch.drain(..) {
            // A task only the thief may run is homed on the thief's own
            // queue, which no steal visits: there is nothing to hold.
            self.run_task(task, core, &mut ());
        }
        state.stolen.fetch_add(n, Ordering::Relaxed);
    }

    /// Executes `task` on `core` if allowed; requeues it on its home queue
    /// otherwise (the queue it was drawn from, or — for an overflow claim —
    /// the one it spilled out of). A repeat task that returns `Again` goes
    /// to `held`, or home if `held` hands it back. Returns `true` if the
    /// body ran.
    fn run_task(&self, mut task: Task, core: usize, held: &mut impl Hold) -> bool {
        let queue = &self.queues[task.home.index()];
        if !task.cpuset.contains(core) {
            // The queue's span covers the task's cpuset, but this particular
            // core was excluded by the submitter. Put it back for a sibling.
            queue.requeue(task);
            return false;
        }
        let ctx = TaskContext {
            core,
            manager: self,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| task.body.run(&ctx)));
        // Release: `stats` reads this before the queue lengths (see there).
        self.cores[core].executed.fetch_add(1, Ordering::Release);
        if task.repeat && matches!(outcome, Ok(TaskStatus::Again)) {
            if let Some(task) = held.hold(task, core) {
                queue.requeue(task);
            }
            return true;
        }
        // A one-shot task returning `Again` is treated as `Done`; a panicked
        // one still releases its dependents.
        let dependents = task.body.finish(outcome.err());
        // Empty unless somebody registered on the completion: the common
        // task ends with the one `fetch_add` inside `finish`.
        if !dependents.is_empty() {
            self.release_waiters(dependents);
        }
        true
    }

    /// Total tasks currently enqueued anywhere — queues and socket
    /// overflows (racy hint).
    pub fn pending_tasks(&self) -> usize {
        self.queues.iter().map(|q| q.len_hint()).sum::<usize>()
            + self
                .sockets
                .iter()
                .map(|s| s.overflow.len_hint())
                .sum::<usize>()
    }

    /// `true` if some queue visible from `core` — its hierarchy path or
    /// its socket's overflow — holds work (racy hint).
    pub fn has_work_for(&self, core: usize) -> bool {
        if self
            .topo
            .path_to_root(core)
            .any(|node| self.queues[node.index()].len_hint() > 0)
        {
            return true;
        }
        let sock = &self.sockets[self.core_socket[core] as usize];
        sock.overflow.len_hint() > 0 && sock.span.admits(core)
    }

    /// Maps every core's padded state block to one snapshot value.
    fn per_core<T>(&self, f: impl Fn(&CoreState) -> T) -> Vec<T> {
        self.cores.iter().map(|c| f(c)).collect()
    }

    /// Snapshot of per-queue and per-core counters.
    ///
    /// Read order: the run counters first, then each queue's `pending`
    /// before its `submitted`, so a one-shot task never counts as both
    /// run and pending, nor as pending but not yet submitted
    /// (`docs/SCHEDULER.md` §6).
    pub fn stats(&self) -> ManagerStats {
        // Acquire pairs with the Release bump in `run_task`: every run
        // read here has its dequeue visible to the `pending` reads below.
        let executed_by_core = self.per_core(|c| c.executed.load(Ordering::Acquire));
        let mut queues: Vec<QueueStats> = self
            .queues
            .iter()
            .map(|q| {
                let pending = q.pending();
                let (lock_acquisitions, lock_contended) = q.lock_stats();
                QueueStats {
                    submitted: q.submitted(),
                    executed: q.executed(),
                    pending,
                    lock_acquisitions,
                    lock_contended,
                }
            })
            .collect();
        // A held task's runs count on its home queue, the core's own.
        for (core, state) in self.cores.iter().enumerate() {
            let own = self.topo.core_node(core).index();
            queues[own].executed += state.held_runs.load(Ordering::Relaxed);
        }
        ManagerStats {
            queues,
            executed_by_core,
            stolen_by_core: self.per_core(|c| c.stolen.load(Ordering::Relaxed)),
            steal_attempts_by_core: self.per_core(|c| c.steal_attempts.load(Ordering::Relaxed)),
            stolen_batch_by_core: self.per_core(|c| c.steal_batches.load(Ordering::Relaxed)),
            park_probe_misses: self.per_core(|c| c.parks.load(Ordering::Relaxed)),
            sockets: self
                .sockets
                .iter()
                .map(|s| {
                    let (overflow_lock_acquisitions, overflow_lock_contended) =
                        s.overflow.lock_stats();
                    SocketStats {
                        overflow_pending: s.overflow.len_hint(),
                        overflow_span: s.span.snapshot(),
                        overflow_lock_acquisitions,
                        overflow_lock_contended,
                        spilled: s.spilled.load(Ordering::Relaxed),
                        claimed: s.overflow.executed(),
                    }
                })
                .collect(),
            waitlist_released: self.released.load(Ordering::Relaxed),
        }
    }
}

impl core::fmt::Debug for TaskManager {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TaskManager")
            .field("topology", &self.topo.name())
            .field("queues", &self.queues.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piom_topology::presets;
    use std::sync::atomic::AtomicUsize;

    pub(super) fn kwak_mgr() -> Arc<TaskManager> {
        TaskManager::new(presets::kwak().into())
    }

    #[test]
    fn oneshot_runs_once_on_allowed_core() {
        let mgr = kwak_mgr();
        let ran_on = Arc::new(AtomicUsize::new(usize::MAX));
        let r = ran_on.clone();
        let h = mgr
            .task(move |ctx| {
                r.store(ctx.core, Ordering::SeqCst);
                TaskStatus::Done
            })
            .cpuset(CpuSet::single(3))
            .spawn();
        assert!(!mgr.schedule(2), "core 2 sees nothing in its path");
        assert!(!h.is_complete());
        assert!(mgr.schedule(3));
        assert!(h.is_complete());
        assert_eq!(ran_on.load(Ordering::SeqCst), 3);
        assert!(!mgr.schedule(3), "nothing left");
    }

    #[test]
    fn numa_level_task_runs_on_any_node_core() {
        let mgr = kwak_mgr();
        let h = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::range(4..8))
            .spawn();
        // Core 9 is on NUMA #2: its path does not include NUMA #1's queue.
        assert!(!mgr.schedule(9));
        assert!(mgr.schedule(6));
        assert!(h.is_complete());
    }

    #[test]
    fn strict_cpuset_is_honoured_within_shared_queue() {
        let mgr = kwak_mgr();
        // Cores {4, 6}: smallest covering queue is NUMA #1 (cores 4-7),
        // but core 5 must NOT run the task.
        let h = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::from_iter([4, 6]))
            .spawn();
        assert!(!mgr.schedule(5), "excluded core skips the task");
        assert!(!h.is_complete());
        assert_eq!(mgr.pending_tasks(), 1, "task was requeued, not lost");
        assert!(mgr.schedule(6));
        assert!(h.is_complete());
        // The bounce counts once, on the NUMA #1 queue core 6 ran it from.
        let stats = mgr.stats();
        let numa = mgr.topology().path_to_root(6).nth(1).expect("NUMA node");
        assert_eq!(stats.queues[numa.index()].executed, 1);
        assert_eq!(stats.queues.iter().map(|q| q.executed).sum::<u64>(), 1);
    }

    #[test]
    fn repeat_task_reenqueues_until_done() {
        let mgr = kwak_mgr();
        let mut polls_left = 3;
        let h = mgr
            .task(move |_| {
                polls_left -= 1;
                if polls_left == 0 {
                    TaskStatus::Done
                } else {
                    TaskStatus::Again
                }
            })
            .cpuset(CpuSet::single(0))
            .repeat()
            .spawn();
        assert!(mgr.schedule(0));
        assert!(!h.is_complete(), "first poll fails, task requeued");
        assert!(mgr.schedule(0));
        assert!(!h.is_complete());
        assert!(mgr.schedule(0));
        assert!(h.is_complete(), "third poll succeeds");
        assert_eq!(
            mgr.stats().queues[mgr.topology().core_node(0).index()].executed,
            3
        );
    }

    #[test]
    fn oneshot_returning_again_completes() {
        let mgr = kwak_mgr();
        let h = mgr
            .task(|_| TaskStatus::Again)
            .cpuset(CpuSet::single(0))
            .spawn();
        mgr.schedule(0);
        assert!(h.is_complete());
    }

    #[test]
    fn panicking_task_reports_error_and_scheduler_survives() {
        let mgr = kwak_mgr();
        let h = mgr
            .task(|_| panic!("injected failure"))
            .cpuset(CpuSet::single(0))
            .spawn();
        let h2 = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(0))
            .spawn();
        mgr.schedule(0);
        let err = h.wait().unwrap_err();
        assert!(err.message.contains("injected failure"));
        assert_eq!(h2.wait(), Ok(()), "subsequent task unaffected");
    }

    #[test]
    fn global_submission_visible_from_every_core() {
        let mgr = kwak_mgr();
        for core in [0, 7, 15] {
            let h = mgr.task(|_| TaskStatus::Done).spawn();
            assert!(mgr.schedule(core));
            assert!(h.is_complete());
        }
    }

    #[test]
    fn per_core_queue_priority_over_global() {
        // Algorithm 1 processes local tasks before upper queues.
        let mgr = kwak_mgr();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o1 = order.clone();
        mgr.task(move |_| {
            o1.lock().push("global");
            TaskStatus::Done
        })
        .spawn();
        let o2 = order.clone();
        mgr.task(move |_| {
            o2.lock().push("local");
            TaskStatus::Done
        })
        .cpuset(CpuSet::single(2))
        .spawn();
        mgr.schedule(2);
        assert_eq!(*order.lock(), vec!["local", "global"]);
    }

    #[test]
    fn budget_of_one_runs_exactly_one() {
        let mgr = kwak_mgr();
        let h1 = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(0))
            .spawn();
        let h2 = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(0))
            .spawn();
        assert_eq!(mgr.schedule_batch(0, 1), 1);
        assert!(h1.is_complete());
        assert!(!h2.is_complete());
        assert_eq!(mgr.schedule_batch(0, 1), 1);
        assert!(h2.is_complete());
        assert_eq!(mgr.schedule_batch(0, 1), 0);
    }

    #[test]
    fn tasks_can_submit_tasks() {
        let mgr = kwak_mgr();
        let h = mgr
            .task(|ctx| {
                // A request submission that must be polled afterwards
                // submits a polling task (paper §IV-B).
                ctx.manager
                    .task(|_| TaskStatus::Done)
                    .cpuset(CpuSet::single(0))
                    .spawn();
                TaskStatus::Done
            })
            .cpuset(CpuSet::single(0))
            .spawn();
        mgr.schedule(0);
        assert!(h.is_complete());
        assert_eq!(mgr.pending_tasks(), 1);
        mgr.schedule(0);
        assert_eq!(mgr.pending_tasks(), 0);
    }

    #[test]
    fn wait_active_self_progresses() {
        let mgr = kwak_mgr();
        let h = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(4))
            .spawn();
        h.wait_active(&mgr, 4).unwrap();
        assert!(h.is_complete());
    }

    #[test]
    fn urgent_task_preempts_queue_order() {
        // Preemptive tasks (§VI): submitted last, executed first.
        let mgr = kwak_mgr();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let o = order.clone();
            mgr.task(move |_| {
                o.lock().push(format!("normal{i}"));
                TaskStatus::Done
            })
            .cpuset(CpuSet::single(0))
            .spawn();
        }
        let o = order.clone();
        mgr.task(move |_| {
            o.lock().push("urgent".to_owned());
            TaskStatus::Done
        })
        .cpuset(CpuSet::single(0))
        .class(TaskClass::Urgent)
        .spawn();
        mgr.schedule(0);
        assert_eq!(
            *order.lock(),
            vec!["urgent", "normal0", "normal1", "normal2"]
        );
    }

    #[test]
    fn urgent_repeat_requeues_at_tail() {
        // An urgent polling task re-enqueues at its *class lane's* tail:
        // it still outranks lower classes on the next pop, but within the
        // Urgent lane it queues behind other urgent work instead of
        // jumping the front and starving same-class peers.
        let mgr = kwak_mgr();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = order.clone();
        let mut polls = 0;
        mgr.task(move |_| {
            polls += 1;
            o.lock().push("urgent-poll");
            if polls == 2 {
                TaskStatus::Done
            } else {
                TaskStatus::Again
            }
        })
        .cpuset(CpuSet::single(0))
        .repeat()
        .class(TaskClass::Urgent)
        .spawn();
        let o = order.clone();
        mgr.task(move |_| {
            o.lock().push("normal");
            TaskStatus::Done
        })
        .cpuset(CpuSet::single(0))
        .spawn();
        // One pass runs each pending task once (the requeued poll waits for
        // the next keypoint).
        mgr.schedule(0);
        assert_eq!(*order.lock(), vec!["urgent-poll", "normal"]);
        mgr.schedule(0);
        assert_eq!(*order.lock(), vec!["urgent-poll", "normal", "urgent-poll"]);
    }

    fn no_steal_mgr() -> Arc<TaskManager> {
        TaskManager::with_config(
            presets::kwak().into(),
            ManagerConfig {
                steal: false,
                ..ManagerConfig::default()
            },
        )
    }

    #[test]
    fn schedule_batch_respects_budget_and_drains_in_one_lock() {
        let mgr = kwak_mgr();
        for _ in 0..10 {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::single(0))
                .spawn();
        }
        let locks_before =
            mgr.stats().queues[mgr.topology().core_node(0).index()].lock_acquisitions;
        assert_eq!(mgr.schedule_batch(0, 4), 4);
        let q = &mgr.stats().queues[mgr.topology().core_node(0).index()];
        assert_eq!(q.pending, 6);
        assert_eq!(
            q.lock_acquisitions - locks_before,
            1,
            "one batch, one lock acquisition"
        );
        assert_eq!(mgr.schedule_batch(0, usize::MAX), 6);
    }

    #[test]
    fn schedule_batch_scans_whole_hierarchy_within_budget() {
        let mgr = kwak_mgr();
        let local = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(2))
            .spawn();
        let global = mgr.task(|_| TaskStatus::Done).spawn();
        assert_eq!(mgr.schedule_batch(2, 8), 2);
        assert!(local.is_complete());
        assert!(global.is_complete());
    }

    #[test]
    fn empty_scan_takes_no_lock_on_any_queue_or_overflow() {
        // Algorithm 2 at manager level: a keypoint over an empty machine —
        // path walk, overflow claim rung and steal probe included — reads
        // unlocked length hints only.
        let mgr = kwak_mgr();
        for _ in 0..3 {
            assert!(!mgr.schedule(7));
        }
        let stats = mgr.stats();
        for (i, q) in stats.queues.iter().enumerate() {
            assert_eq!(q.lock_acquisitions, 0, "queue {i} was locked");
        }
        for (i, s) in stats.sockets.iter().enumerate() {
            assert_eq!(s.overflow_lock_acquisitions, 0, "socket {i}");
        }
    }

    #[test]
    fn quiet_ramps_never_contend_and_a_four_thread_burst_runs_exactly_once() {
        // A long single-threaded history on core 0, then 4 real threads
        // fighting over the Global Queue (on every core's path).
        const RAMP: usize = 256;
        let mgr = kwak_mgr();
        let quiet_drain = || {
            for _ in 0..RAMP {
                mgr.task(|_| TaskStatus::Done)
                    .cpuset(CpuSet::single(0))
                    .spawn();
            }
            let mut ran = 0;
            loop {
                let budget = mgr.adaptive_budget(0);
                match mgr.schedule_batch(0, budget) {
                    0 => break,
                    n => ran += n,
                }
            }
            assert_eq!(ran, RAMP, "adaptive budgets must drain the whole ramp");
        };
        for _ in 0..24 {
            quiet_drain();
        }
        let stats = mgr.stats();
        let path_contended: u64 = mgr
            .topology()
            .path_to_root(0)
            .map(|node| stats.queues[node.index()].lock_contended)
            .sum();
        assert_eq!(path_contended, 0, "a single thread cannot contend");

        // Four threads each enqueue a backlog on the Global Queue, then
        // drain it in whole-queue batches: long lock holds for the
        // stragglers' enqueues to run into. A barrier lines the threads up.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for core in 0..4 {
                let (mgr, start) = (&mgr, &start);
                s.spawn(move || {
                    start.wait();
                    let handles: Vec<_> = (0..256)
                        .map(|_| mgr.task(|_| TaskStatus::Done).spawn())
                        .collect();
                    while handles.iter().any(|h| !h.is_complete()) {
                        mgr.schedule(core);
                    }
                });
            }
        });
        let stats = mgr.stats();
        assert_eq!(stats.total_submitted(), (24 * RAMP + 4 * 256) as u64);
        assert_eq!(stats.total_executed(), stats.total_submitted());
        // The holder-written hand-out counts lose nothing under 4 threads,
        // and agree with the per-core run counts.
        let by_queue: u64 = stats.queues.iter().map(|q| q.executed).sum();
        assert_eq!(by_queue, stats.total_executed());
    }

    #[test]
    fn snapshot_never_counts_a_task_twice() {
        // One thread spawns one-shot tasks for core 1 and drains them
        // while this one snapshots: a task run between two of the
        // snapshot's reads counts as run or as pending, never both.
        const SNAPSHOTS: usize = 20_000;
        let mgr = kwak_mgr();
        let stop = AtomicBool::new(false);
        let over = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..8 {
                        mgr.task(|_| TaskStatus::Done)
                            .cpuset(CpuSet::single(1))
                            .spawn();
                    }
                    mgr.schedule_batch(1, 8);
                }
            });
            let over = (0..SNAPSHOTS)
                .filter(|_| {
                    let stats = mgr.stats();
                    let pending: usize = stats.queues.iter().map(|q| q.pending).sum();
                    stats.total_executed() + pending as u64 > stats.total_submitted()
                })
                .count();
            stop.store(true, Ordering::Relaxed);
            over
        });
        assert_eq!(
            over, 0,
            "{over} of {SNAPSHOTS} snapshots counted a task twice"
        );
    }

    #[test]
    fn budget_is_the_visible_backlog_and_one_keypoint_drains_it() {
        // Path depths split across core 0's per-core queue, its NUMA-level
        // queue and — threshold lowered so the per-core queue spills — its
        // own socket's overflow. Stealing is off so nothing but the path
        // feeds the keypoint.
        for depth in [0usize, 1, 4, 5, 100, 256, 300] {
            let mgr = TaskManager::with_config(
                presets::kwak().into(),
                ManagerConfig {
                    steal: false,
                    spill_threshold: 32,
                },
            );
            for i in 0..depth {
                let numa = CpuSet::range(0..4);
                let spec = mgr.task(|_| TaskStatus::Done).cpuset(numa);
                if i % 2 == 0 { spec.on_core(0) } else { spec }.spawn();
            }
            let stats = mgr.stats();
            let numa_queue = mgr
                .topology()
                .path_to_root(0)
                .nth(1)
                .expect("kwak has NUMA nodes");
            assert_eq!(stats.queues[numa_queue.index()].pending, depth / 2);
            assert_eq!(stats.total_spilled() > 0, depth >= 100, "depth {depth}");
            assert_eq!(mgr.pending_tasks(), depth);

            let budget = mgr.adaptive_budget(0);
            assert_eq!(budget, depth.clamp(MIN_BATCH, MAX_BATCH), "depth {depth}");
            assert_eq!(
                mgr.schedule_batch(0, budget),
                depth.min(MAX_BATCH),
                "one keypoint at the budget drains the visible backlog (depth {depth})"
            );
        }
        // With stealing on, the empty path gets room for a steal-half batch.
        assert_eq!(kwak_mgr().adaptive_budget(0), DEFAULT_BATCH);
    }

    #[test]
    fn starved_core_completes_backlog_via_steal_half() {
        // The satellite scenario: every task is homed on core 1's queue but
        // cores {0, 1} may run them. Core 1 never schedules (it is "busy
        // computing"); core 0's keypoints must finish everything by
        // stealing. Deterministic: single-threaded, driven by hand.
        //
        // With steal-half, each probe takes half the remaining eligible
        // backlog: 16 tasks drain in 8+4+2+1+1 over exactly 5 probes —
        // the geometric drain that replaces 16 one-task probes.
        let mgr = kwak_mgr();
        let handles: Vec<_> = (0..16)
            .map(|_| {
                mgr.task(|_| TaskStatus::Done)
                    .cpuset(CpuSet::from_iter([0, 1]))
                    .on_core(1)
                    .spawn()
            })
            .collect();
        let mut rounds = 0;
        while handles.iter().any(|h| !h.is_complete()) {
            assert!(mgr.schedule(0), "steal round {rounds} found nothing");
            rounds += 1;
        }
        assert_eq!(rounds, 5, "steal-half drains 16 tasks in 5 probes");
        assert!(!mgr.schedule(0), "backlog fully drained");
        let stats = mgr.stats();
        assert_eq!(stats.stolen_by_core[0], 16);
        assert_eq!(stats.executed_by_core[0], 16);
        assert_eq!(stats.executed_by_core[1], 0, "the home core never ran");
        assert_eq!(stats.stolen_batch_by_core[0], 5);
        assert!(stats.steal_attempts_by_core[0] >= 5);
        assert_eq!(stats.total_stolen(), 16);
        assert_eq!(stats.total_steal_batches(), 5);
    }

    #[test]
    fn adaptive_budget_covers_steal_half_when_local_path_is_empty() {
        // An idle worker's budget must not clamp a stolen half-backlog to
        // the MIN_BATCH floor: with stealing on, the empty-path budget is
        // DEFAULT_BATCH, so one adaptive keypoint takes the full half.
        let mgr = kwak_mgr();
        for _ in 0..64 {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::from_iter([0, 1]))
                .on_core(1)
                .spawn();
        }
        assert_eq!(mgr.adaptive_budget(0), DEFAULT_BATCH);
        let budget = mgr.adaptive_budget(0);
        assert_eq!(
            mgr.schedule_batch(0, budget),
            32,
            "one adaptive keypoint steals the whole half-backlog"
        );
        // Without stealing there is nothing an empty-path keypoint could
        // run; the floor is enough to cover submission races.
        let no_steal = no_steal_mgr();
        assert_eq!(no_steal.adaptive_budget(0), MIN_BATCH);
    }

    #[test]
    fn budget_of_one_steals_at_most_one_task() {
        let mgr = kwak_mgr();
        for _ in 0..8 {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::from_iter([0, 1]))
                .on_core(1)
                .spawn();
        }
        assert_eq!(mgr.schedule_batch(0, 1), 1);
        let stats = mgr.stats();
        assert_eq!(stats.stolen_by_core[0], 1, "budget 1 caps the half quota");
        assert_eq!(mgr.pending_tasks(), 7);
    }

    #[test]
    fn steal_prefers_deeper_backlog_within_a_tier() {
        // Victims at the same locality distance from the thief (core 4):
        // cores 5, 6 and 7 are all SameNuma siblings. Core 6's queue is
        // deepest, so the probe must start there, not at core 5 (the
        // lowest-id hot-but-shallower victim).
        let mgr = kwak_mgr();
        let shallow = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::from_iter([4, 5]))
            .on_core(5)
            .spawn();
        let deep: Vec<_> = (0..6)
            .map(|_| {
                mgr.task(|_| TaskStatus::Done)
                    .cpuset(CpuSet::from_iter([4, 6]))
                    .on_core(6)
                    .spawn()
            })
            .collect();
        assert!(mgr.schedule(4));
        // Steal-half of core 6's backlog: 3 of its 6 tasks ran, core 5's
        // single task untouched.
        assert_eq!(deep.iter().filter(|h| h.is_complete()).count(), 3);
        assert!(!shallow.is_complete());
    }

    #[test]
    fn steal_passes_over_a_deeper_victim_it_may_not_steal_from() {
        // Cores 5 and 6 are core 4's SameNuma siblings. Core 6's deeper
        // backlog is ranked first but holds nothing core 4 may run; the
        // probe goes on to core 5's, the next rank in the tier.
        let mgr = kwak_mgr();
        for _ in 0..6 {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::single(6))
                .spawn();
        }
        let shallow = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::from_iter([4, 5]))
            .on_core(5)
            .spawn();
        assert_eq!(mgr.schedule_batch(4, usize::MAX), 1);
        assert!(shallow.is_complete());
        let deep = mgr.topology().core_node(6).index();
        assert_eq!(mgr.stats().queues[deep].lock_acquisitions, 6 + 1);
        assert_eq!(mgr.pending_tasks(), 6);
    }

    #[test]
    fn steal_never_takes_a_task_whose_cpuset_excludes_the_thief() {
        // The other satellite scenario: core 2 is idle, core 3's queue is
        // loaded, but every task's cpuset is {3} — nothing may move.
        let mgr = kwak_mgr();
        for _ in 0..4 {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::single(3))
                .spawn();
        }
        for _ in 0..10 {
            assert!(!mgr.schedule(2), "core 2 must not run core-3-only work");
        }
        let stats = mgr.stats();
        assert_eq!(stats.stolen_by_core[2], 0);
        assert!(stats.steal_attempts_by_core[2] >= 10, "probes were made");
        assert_eq!(mgr.pending_tasks(), 4, "no task lost or displaced");
        assert_eq!(mgr.schedule_batch(3, usize::MAX), 4);
    }

    #[test]
    fn steal_prefers_the_nearest_sibling() {
        let mgr = kwak_mgr();
        // Two stealable tasks: one homed on core 5 (same NUMA node as the
        // thief, core 4), one homed on core 12 (across the interconnect).
        let near = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::from_iter([4, 5]))
            .on_core(5)
            .spawn();
        let far = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::from_iter([4, 12]))
            .on_core(12)
            .spawn();
        assert!(mgr.schedule(4));
        assert!(near.is_complete(), "nearest victim first");
        assert!(!far.is_complete());
        assert!(mgr.schedule(4));
        assert!(far.is_complete());
    }

    #[test]
    fn stealing_disabled_leaves_foreign_backlogs_alone() {
        let mgr = no_steal_mgr();
        let h = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::from_iter([0, 1]))
            .on_core(1)
            .spawn();
        assert!(!mgr.schedule(0), "steal disabled: core 0 spins");
        assert!(!h.is_complete());
        let stats = mgr.stats();
        assert_eq!(stats.stolen_by_core[0], 0);
        assert_eq!(stats.steal_attempts_by_core[0], 0);
        assert!(mgr.schedule(1), "home core drains its own queue");
        assert!(h.is_complete());
    }

    #[test]
    fn stolen_repeat_task_requeues_on_its_home_queue() {
        let mgr = kwak_mgr();
        let mut polls = 0;
        let h = mgr
            .task(move |_| {
                polls += 1;
                if polls == 2 {
                    TaskStatus::Done
                } else {
                    TaskStatus::Again
                }
            })
            .cpuset(CpuSet::from_iter([0, 1]))
            .on_core(1)
            .repeat()
            .spawn();
        assert!(mgr.schedule(0), "first poll runs stolen on core 0");
        assert!(!h.is_complete());
        // The re-enqueue went back to core 1's queue, not the thief's.
        let home_q = mgr.topology().core_node(1).index();
        assert_eq!(mgr.stats().queues[home_q].pending, 1);
        assert!(mgr.schedule(1), "home core finishes it locally");
        assert!(h.is_complete());
    }

    #[test]
    fn executed_by_core_distribution() {
        let mgr = kwak_mgr();
        for _ in 0..10 {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::single(3))
                .spawn();
        }
        mgr.schedule(3);
        let stats = mgr.stats();
        assert_eq!(stats.executed_by_core[3], 10);
        assert_eq!(stats.executed_by_core.iter().sum::<u64>(), 10);
    }

    #[test]
    fn a_stolen_task_counts_once_on_the_thief_after_it_ran() {
        let mgr = kwak_mgr();
        let seen = Arc::new(Mutex::new(None));
        let probe = seen.clone();
        mgr.task(move |ctx| {
            // What a snapshot taken inside the body sees.
            *probe.lock() = Some(ctx.manager.stats().stolen_by_core[0]);
            TaskStatus::Done
        })
        .cpuset(CpuSet::from_iter([0, 1]))
        .on_core(1)
        .spawn();
        assert!(mgr.schedule(0), "core 0 steals core 1's task");
        assert_eq!(*seen.lock(), Some(0), "counted only once the batch ran");
        let stats = mgr.stats();
        assert_eq!(stats.stolen_by_core[0], 1);
        assert_eq!(stats.executed_by_core[0], 1);
        assert_eq!(stats.stolen_batch_by_core[0], 1);
        assert_eq!(stats.total_stolen(), 1);
        assert_eq!(stats.total_executed(), 1);
    }
}
