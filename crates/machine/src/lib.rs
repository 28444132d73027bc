//! Simulated multicore NUMA machine.
//!
//! The paper evaluates PIOMan on two real machines — `borderline` (4-socket
//! dual-core Opteron) and `kwak` (4-socket quad-core Opteron, 4 NUMA nodes)
//! — that this environment does not have. Per the substitution policy in
//! `DESIGN.md`, this crate models the *mechanisms the paper attributes its
//! numbers to*, on top of the [`piom_des`] kernel:
//!
//! * [`CostModel`] — cache-line transfer latencies by topological distance,
//!   base task cost, spinner interference and poll pressure; presets
//!   calibrated per machine, and the costs every machine shares (lock
//!   round, poll phase, context switch, timer tick) as [`cost`]'s constants;
//! * [`SimSpinLock`] — a discrete-event spinlock whose arbitration exhibits
//!   the two phenomena driving Tables I–II: handoff cost scales with the
//!   topological distance between consecutive owners, and waiters close to
//!   the releasing core win the next acquisition (the NUMA-unfair handoff
//!   the paper uses to explain the skewed task distribution, §V-A);
//! * [`simsched`] — the §V-A microbenchmark that regenerates Tables I and
//!   II: one queue's submit / herd / check-then-lock round priced on the
//!   simulated machine. The queue is `pioman`'s: a real `TaskManager`
//!   places each round's task, and its `has_work_for` and `schedule` are
//!   the herd's emptiness test and the winner's dequeue; the DES decides
//!   only when a core sees the write and who wins the lock;
//! * [`threads`] — a simulated thread scheduler (run queues, context
//!   switches, timer ticks, idle detection) with PIOMan keypoint hooks: the
//!   MARCEL substitute used by the latency/overlap experiments. There the
//!   hook runs `pioman`'s own Algorithm 1 on each node's task manager,
//!   whose Global Queue holds the engine's poll as a repeat task; the
//!   simulator charges nothing for that `pioman` work yet.
//!
//! # Quick start
//!
//! Regenerate one Table I cell: the mean cost of submitting from core 0
//! and executing through a given queue, on the simulated `borderline`
//! machine (costs grow with the queue's topological span):
//!
//! ```
//! use piom_machine::{simsched, CostModel};
//! use piom_topology::presets;
//!
//! let topo = presets::borderline();
//! let cost = CostModel::borderline();
//! let per_core = simsched::microbench(&topo, &cost, topo.core_node(0), 50, 42);
//! let global = simsched::microbench(&topo, &cost, topo.root(), 50, 42);
//! assert!(per_core.mean_ns() < global.mean_ns());
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod simsched;
pub mod spinlock_model;
pub mod threads;

pub use cost::CostModel;
pub use spinlock_model::SimSpinLock;
