//! Counter snapshots exposed by [`TaskManager::stats`](crate::TaskManager::stats).
//!
//! Every field here is defined, with its invariants, in the scheduler
//! contract page (`docs/SCHEDULER.md`, "Counter glossary").

use piom_cpuset::CpuSet;

/// Counters of one hierarchical queue; the topology node it belongs to is
/// its index in [`ManagerStats::queues`].
#[derive(Debug, Clone)]
pub struct QueueStats {
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
/// ([`ManagerConfig::spill_threshold`](crate::ManagerConfig)). Socket `i`
/// is the topology's `i`-th NUMA node (chip, on trees without NUMA nodes;
/// the machine root, on flat trees and on trees where some core lies
/// under no such node).
#[derive(Debug, Clone)]
pub struct SocketStats {
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
    /// Parks of each core's [`Progression`](crate::Progression) worker:
    /// one per `park_timeout` call, after a keypoint (its steal scan
    /// included) ran nothing and the own-path re-check found nothing. The
    /// name is kept from the deleted pre-park probe, whose misses were the
    /// parks.
    pub park_probe_misses: Vec<u64>,
    /// Per-socket overflow-tier counters, indexed by socket id (empty
    /// only on managers built before any topology — never in practice;
    /// single-socket machines still report their one inert socket).
    pub sockets: Vec<SocketStats>,
    /// Dependency-waitlist releases: tasks submitted with
    /// [`SubmitSpec::after`](crate::SubmitSpec::after) that re-entered the
    /// queues because their last predecessor completed (or panicked).
    pub waitlist_released: u64,
}

impl ManagerStats {
    /// Total task runs (repeat runs count each time), across cores.
    pub fn total_executed(&self) -> u64 {
        self.executed_by_core.iter().sum()
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

    /// Total worker parks, across cores.
    pub fn total_park_probe_misses(&self) -> u64 {
        self.park_probe_misses.iter().sum()
    }

    /// Total dependency-waitlist releases.
    pub fn total_waitlist_released(&self) -> u64 {
        self.waitlist_released
    }

    /// Total tasks spilled into socket overflows, across sockets.
    pub fn total_spilled(&self) -> u64 {
        self.sockets.iter().map(|s| s.spilled).sum()
    }

    /// Total tasks claimed out of socket overflows, across sockets.
    pub fn total_claimed(&self) -> u64 {
        self.sockets.iter().map(|s| s.claimed).sum()
    }
}
