//! Counter snapshots exposed by [`TaskManager::stats`](crate::TaskManager::stats).
//!
//! Every field here is defined, with its invariants, in the scheduler
//! contract page (`docs/SCHEDULER.md`, "Counter glossary").

use crate::queue::QueueId;
use piom_cpuset::CpuSet;
use piom_topology::Level;

/// Counters of one hierarchical queue.
#[derive(Debug, Clone)]
pub struct QueueStats {
    /// Queue id (the topology node index).
    pub id: QueueId,
    /// Topology level of the owning node.
    pub level: Level,
    /// Cores this queue serves.
    pub cpuset: CpuSet,
    /// The queue's *steal span*: the union of the cpusets of the tasks
    /// enqueued here. This is the filter the park probe
    /// ([`park_probe`](crate::TaskManager::park_probe)) consults; it may over-approximate the currently-enqueued tasks (stale bits
    /// cost a wasted probe, never a misplaced task), but *decays*: a
    /// dequeue that leaves the queue empty clears bits wider than the
    /// queue's own cpuset, so stale wide spans stop attracting probes.
    pub steal_span: CpuSet,
    /// Tasks submitted directly to this queue.
    pub submitted: u64,
    /// Tasks this queue handed to a core allowed to run them, counted
    /// under its lock at hand-out (repeat runs count each time). Exact
    /// once the keypoints that took them have returned.
    pub executed: u64,
    /// Tasks currently enqueued (racy snapshot).
    pub pending: usize,
    /// Spinlock acquisitions.
    pub lock_acquisitions: u64,
    /// Acquisitions that found the lock held (contention indicator).
    pub lock_contended: u64,
}

/// Counters of one socket of the per-socket overflow tier
/// ([`ManagerConfig::spill_threshold`](crate::ManagerConfig)).
#[derive(Debug, Clone)]
pub struct SocketStats {
    /// Arena index of the topology node this socket stands for (a NUMA
    /// node, or a chip / the machine root on shallower trees).
    pub node: usize,
    /// Cores the socket spans.
    pub cpuset: CpuSet,
    /// Tasks currently in the socket's overflow queue (racy snapshot).
    pub overflow_pending: usize,
    /// Union of the cpusets of tasks spilled into the overflow (decays
    /// when the overflow drains) — the gate on claims and cross-socket
    /// overflow steals.
    pub overflow_span: CpuSet,
    /// Acquisitions of the overflow queue's spinlock: one per spill batch,
    /// one per claim keypoint, one per cross-socket overflow steal.
    pub overflow_lock_acquisitions: u64,
    /// Overflow-lock acquisitions that found the lock held.
    pub overflow_lock_contended: u64,
    /// Tasks ever spilled from a deep member queue into the overflow.
    pub spilled: u64,
    /// Tasks ever claimed out of the overflow and run (member-core claims
    /// and remote-socket overflow steals both count): the overflow
    /// queue's own hand-out count, the overflow's `executed`.
    pub claimed: u64,
}

/// Snapshot of every manager counter.
#[derive(Debug, Clone)]
pub struct ManagerStats {
    /// Per-queue counters, indexed like the topology arena.
    pub queues: Vec<QueueStats>,
    /// Task executions per core — the paper reports this distribution for
    /// the per-chip and global-queue experiments (§V-A).
    pub executed_by_core: Vec<u64>,
    /// Tasks each core stole from a queue outside its own hierarchy path
    /// (and then executed). Always zero with stealing disabled.
    pub stolen_by_core: Vec<u64>,
    /// Steal probes per core: hierarchy scans that ran dry and went looking
    /// at victim queues, successful or not. The ratio of steals to attempts
    /// measures how often idleness found displaceable work.
    pub steal_attempts_by_core: Vec<u64>,
    /// Successful steal-half batches per thief core (each batch moved at
    /// least one task). `stolen_by_core / stolen_batch_by_core` is the mean
    /// batch size — how much each probe's victim-scan premium was amortized
    /// over; 1.0 means stealing degenerated to the old one-task-per-probe
    /// behaviour.
    pub stolen_batch_by_core: Vec<u64>,
    /// Pre-park steal probes per core that *hit* — found a victim queue
    /// with backlog whose steal span admits the prober — sending the
    /// worker back to another keypoint instead of parking. With stealing
    /// disabled this is always zero
    /// ([`park_probe`](crate::TaskManager::park_probe)).
    pub park_probe_hits: Vec<u64>,
    /// Pre-park steal probes per core that found nothing stealable, so
    /// the worker parked. `hits / (hits + misses)` is how often the probe
    /// saved a park/unpark round-trip (plus up to a park-timeout of
    /// latency) per idle episode.
    pub park_probe_misses: Vec<u64>,
    /// Containers consulted by pre-park probes, per core: a probe that
    /// misses everywhere polls every socket overflow (when the tier is
    /// active) and every queue off the core's hierarchy path.
    pub park_probe_polls: Vec<u64>,
    /// Per-socket overflow-tier counters, indexed by socket id (empty
    /// only on managers built before any topology — never in practice;
    /// single-socket machines still report their one inert socket).
    pub sockets: Vec<SocketStats>,
    /// Invocations of the idle hook.
    pub hook_idle: u64,
    /// Invocations of the context-switch hook.
    pub hook_context_switch: u64,
    /// Invocations of the timer hook.
    pub hook_timer: u64,
    /// Task executions per QoS class, indexed by
    /// [`TaskClass::index`](crate::TaskClass::index) (repeat runs count
    /// each time). Sums to `total_executed()`.
    pub executed_by_class: [u64; crate::task::CLASS_COUNT],
    /// Tasks stolen (and run by the thief) per QoS class. Sums to
    /// `total_stolen()`.
    pub stolen_by_class: [u64; crate::task::CLASS_COUNT],
    /// Dependency-waitlist releases per QoS class: tasks submitted with
    /// [`SubmitSpec::after`](crate::SubmitSpec::after) that re-entered the
    /// queues because their last predecessor completed (or panicked).
    pub waitlist_released_by_class: [u64; crate::task::CLASS_COUNT],
    /// Submit→execute latency distribution across all task runs: the
    /// merge of `latency_by_class`, present only when the manager was
    /// built with [`ManagerConfig::latency_histogram`](crate::ManagerConfig)
    /// set. Nanoseconds from `spawn` (or a repeat task's re-enqueue, or a
    /// waitlist release) to the moment a core committed to running the
    /// body.
    pub latency: Option<crate::hist::HistSnapshot>,
    /// Per-class submit→execute latency distributions, indexed by
    /// [`TaskClass::index`](crate::TaskClass::index); armed together with
    /// `latency`. Each run records into its class's histogram only.
    pub latency_by_class: Option<Vec<crate::hist::HistSnapshot>>,
}

impl ManagerStats {
    /// Total task runs: the sum of `executed_by_class`.
    pub fn total_executed(&self) -> u64 {
        self.executed_by_class.iter().sum()
    }

    /// Total submissions across all queues.
    pub fn total_submitted(&self) -> u64 {
        self.queues.iter().map(|q| q.submitted).sum()
    }

    /// Total tasks stolen across all cores.
    pub fn total_stolen(&self) -> u64 {
        self.stolen_by_core.iter().sum()
    }

    /// Total successful steal-half batches across all cores.
    pub fn total_steal_batches(&self) -> u64 {
        self.stolen_batch_by_core.iter().sum()
    }

    /// Total pre-park probes that found stealable backlog, across cores.
    pub fn total_park_probe_hits(&self) -> u64 {
        self.park_probe_hits.iter().sum()
    }

    /// Total pre-park probes that found nothing, across cores.
    pub fn total_park_probe_misses(&self) -> u64 {
        self.park_probe_misses.iter().sum()
    }

    /// Total dependency-waitlist releases, across classes.
    pub fn total_waitlist_released(&self) -> u64 {
        self.waitlist_released_by_class.iter().sum()
    }

    /// Total tasks spilled into socket overflows, across sockets.
    pub fn total_spilled(&self) -> u64 {
        self.sockets.iter().map(|s| s.spilled).sum()
    }

    /// Total tasks claimed out of socket overflows, across sockets.
    pub fn total_claimed(&self) -> u64 {
        self.sockets.iter().map(|s| s.claimed).sum()
    }

    /// Total containers consulted by pre-park probes, across cores.
    pub fn total_park_probe_polls(&self) -> u64 {
        self.park_probe_polls.iter().sum()
    }

    /// Share of task executions done by each core, as fractions of 1.
    /// Empty if nothing ran. Mirrors the paper's observation that "each of
    /// them executes roughly 25% of the submitted tasks" for a 4-core
    /// per-chip queue.
    pub fn execution_shares(&self) -> Vec<f64> {
        let total: u64 = self.executed_by_core.iter().sum();
        if total == 0 {
            return vec![0.0; self.executed_by_core.len()];
        }
        self.executed_by_core
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(executed_by_core: Vec<u64>) -> ManagerStats {
        let n = executed_by_core.len();
        ManagerStats {
            queues: vec![],
            executed_by_core,
            stolen_by_core: vec![0; n],
            steal_attempts_by_core: vec![0; n],
            stolen_batch_by_core: vec![0; n],
            park_probe_hits: vec![0; n],
            park_probe_misses: vec![0; n],
            park_probe_polls: vec![0; n],
            sockets: vec![],
            hook_idle: 0,
            hook_context_switch: 0,
            hook_timer: 0,
            executed_by_class: [0; crate::task::CLASS_COUNT],
            stolen_by_class: [0; crate::task::CLASS_COUNT],
            waitlist_released_by_class: [0; crate::task::CLASS_COUNT],
            latency: None,
            latency_by_class: None,
        }
    }

    #[test]
    fn shares_sum_to_one() {
        let s = mk(vec![25, 25, 25, 25]);
        let shares = s.execution_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(shares.iter().all(|&x| (x - 0.25).abs() < 1e-12));
    }

    #[test]
    fn shares_empty_when_nothing_ran() {
        let s = mk(vec![0, 0]);
        assert_eq!(s.execution_shares(), vec![0.0, 0.0]);
    }
}
