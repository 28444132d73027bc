//! PIOMan: a scalable, generic task scheduling system for communication
//! libraries.
//!
//! This crate is a faithful real-thread implementation of the system
//! described by Trahay & Denis, *"A scalable and generic task scheduling
//! system for communication libraries"*, IEEE Cluster 2009. A communication
//! library (or any I/O runtime) delegates its internal chores — polling a
//! network, submitting a packet, running a rendezvous handshake — to a
//! [`TaskManager`]:
//!
//! * a **task** is a function plus a [`CpuSet`] restricting which cores may
//!   run it, and an optional *repeat* behaviour for chores that must run
//!   until they succeed (network polling) — see [`SubmitSpec::cpuset`],
//!   [`SubmitSpec::repeat`] and [`TaskStatus`];
//! * tasks are stored in **hierarchical queues** mapped onto the machine
//!   topology (per-core → per-cache → per-chip → per-NUMA → global), so
//!   locality is preserved and lock contention stays between neighbouring
//!   cores (paper §III-A, Fig. 2);
//! * every queue — the per-node ones and the per-socket overflow — is the
//!   paper's list behind a spinlock ([`spinlock::SpinLock`]), dequeued with
//!   **Algorithm 2**: test emptiness without the lock, lock only when the
//!   queue looks non-empty, re-check under the lock;
//! * execution follows **Algorithm 1**: a core scans from its own per-core
//!   queue up to the global queue, running everything it may;
//! * the thread scheduler calls the task manager at **keypoints** — CPU
//!   idleness, context switches, timer interrupts — so communication makes
//!   progress inside scheduling holes and overlaps with computation. On OS
//!   threads there is one keypoint, the idle loop of a [`Progression`]
//!   worker (one per core); any thread may also run one by hand with
//!   [`TaskManager::schedule`];
//! * beyond the paper, the scan is **batched** — a keypoint that finds a
//!   backlog drains a whole pass under one lock acquisition
//!   ([`TaskManager::schedule_batch`]), with the per-keypoint budget sized
//!   to the backlog visible on the core's path
//!   ([`TaskManager::adaptive_budget`]) — and idle
//!   cores **steal half** of the nearest eligible backlog by topological
//!   distance instead of spinning, honoring each task's `CpuSet`
//!   ([`ManagerConfig::steal`], [`SubmitSpec::on_core`]); a worker parks
//!   once a keypoint, steal scan included, ran nothing, and a submission
//!   wakes exactly the workers whose cores its task may run on;
//! * every submission goes through one **builder**
//!   ([`TaskManager::task`] → [`SubmitSpec::spawn`]) carrying the task's
//!   **QoS class** ([`TaskClass`]: per-queue lanes served in strict
//!   priority order with a bounded anti-starvation bypass, submission
//!   order within a class) and **dependencies** ([`SubmitSpec::after`])
//!   parking the task on a waitlist until its predecessors complete. A
//!   handle exists only once its task is spawned, so the dependency graph
//!   is acyclic by construction. The QoS-tier contract lives in
//!   `docs/SCHEDULER.md` ("QoS tiers").
//!
//! The authoritative description of the submit → batch → steal →
//! park/wake lifecycle — state diagram, invariants, and a glossary of
//! every [`ManagerStats`] counter — is the **scheduler contract** page,
//! `docs/SCHEDULER.md` at the repository root (design rationale in
//! `DESIGN.md` §5–6).
//!
//! # Quick start
//!
//! ```
//! use pioman::{TaskClass, TaskManager, TaskStatus};
//! use piom_cpuset::CpuSet;
//! use piom_topology::presets;
//!
//! let mgr = TaskManager::new(presets::kwak().into());
//! // Submit a one-shot task runnable by any core of NUMA node #1.
//! let handle = mgr
//!     .task(|_ctx| TaskStatus::Done)
//!     .cpuset(CpuSet::range(4..8))
//!     .spawn();
//! // An urgent follow-up that runs only after the first completes.
//! let after = mgr
//!     .task(|_ctx| TaskStatus::Done)
//!     .cpuset(CpuSet::range(4..8))
//!     .class(TaskClass::Urgent)
//!     .after(&handle)
//!     .spawn();
//! // Cores execute tasks when the scheduler reaches a keypoint; here we
//! // drive core 5 by hand.
//! mgr.schedule(5);
//! assert!(handle.is_complete());
//! mgr.schedule(5);
//! assert!(after.is_complete());
//! ```

#![warn(missing_docs)]

pub mod spinlock;

mod completion;
mod manager;
mod pad;
mod pool;
mod progression;
mod queue;
mod stats;
mod sync;
mod task;

pub use completion::{TaskError, TaskHandle};
pub use manager::{
    ManagerConfig, SubmitSpec, TaskManager, DEFAULT_BATCH, DEFAULT_SPILL_THRESHOLD, MAX_BATCH,
    MIN_BATCH,
};
pub use progression::{Progression, ProgressionConfig};
pub use queue::BACKGROUND_BYPASS_LIMIT;
pub use stats::{ManagerStats, QueueStats, SocketStats};
pub use task::{TaskClass, TaskContext, TaskStatus, CLASS_COUNT};

// Re-export foundation types so downstream users need only this crate.
pub use piom_cpuset::CpuSet;
pub use piom_topology::{presets, Level, Topology};
