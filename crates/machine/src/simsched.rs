//! The paper's §V-A microbenchmark on the simulated machine.
//!
//! "We measure the time spent to create an empty task (with no
//! computation), to schedule it, and to notice its completion. [...] In all
//! cases, the task is submitted by core #0."
//!
//! The queue is `pioman`'s: each run builds a [`TaskManager`] over the
//! machine. One round of the benchmark, in simulated time:
//!
//! 1. core #0 takes the target queue's lock and spawns a one-shot task
//!    with that node's cpuset, which `pioman` places in that queue;
//! 2. every core allowed to serve that queue notices the non-empty state
//!    after the cache line reaches it (`transfer`) plus where it happens to
//!    be in its poll loop (`poll_phase`) — polling is event-driven here:
//!    instead of simulating every idle poll tick, the model computes when a
//!    poll would first observe the write;
//! 3. the cores that saw work ([`TaskManager::has_work_for`], or a stale
//!    view of it) race for the lock; the winner re-checks under it and
//!    runs the task ([`TaskManager::schedule`]); losers acquire in turn,
//!    find the queue empty, and release — their drain is what delays the
//!    *next* round's submission, which is exactly how the contention
//!    overhead of the paper's per-chip and global rows arises;
//! 4. core #0 notices completion; the round time is recorded as
//!    `base_local_ns` (the fixed local machinery) plus everything the DES
//!    accumulated on top.
//!
//! The DES prices only what `pioman` cannot know: when a write becomes
//! visible to a core, and who wins the [`SimSpinLock`] standing for the
//! queue lock. [`microbench`] runs one queue; [`bench_table`] sweeps every
//! row of Table I / Table II for a machine.

use crate::cost::{CostModel, SELF_EXECUTION_OVERHEAD};
use crate::spinlock_model::{MachineCtx, SimSpinLock};
use piom_cpuset::CpuSet;
use piom_des::stats::OnlineStats;
use piom_des::{Sim, SimTime};
use piom_topology::{Level, NodeId, Topology};
use pioman::{ManagerStats, TaskManager, TaskStatus};
use std::cell::RefCell;
use std::ops::Deref;
use std::rc::Rc;
use std::sync::Arc;

/// Cost of a queue push/pop while holding the lock (list manipulation).
const QUEUE_OP_NS: u64 = 30;
/// Cost of the under-lock emptiness re-check when a loser finds nothing.
const RECHECK_NS: u64 = 10;
/// Idle gap between rounds (the benchmark loop's own bookkeeping).
const ROUND_GAP_NS: u64 = 150;

/// Outcome of one microbenchmark run. It derefs to `pioman`'s counters,
/// whose `executed_by_core` is the distribution the paper reports for
/// shared queues.
#[derive(Debug, Clone)]
pub struct MicrobenchResult {
    /// Round-trip statistics (create → schedule → completion noticed), ns.
    pub stats: OnlineStats,
    /// The task manager's counters at the end of the run.
    pub sched: ManagerStats,
    /// [`SimSpinLock`] grants during the run: `pioman`'s two acquisitions
    /// a round plus the herd's stale-view re-checks.
    pub lock_acquisitions: u64,
    /// Lock requests that found it held.
    pub lock_contended: u64,
}

impl MicrobenchResult {
    /// Mean round-trip in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        self.stats.mean()
    }
}

impl Deref for MicrobenchResult {
    type Target = ManagerStats;

    fn deref(&self) -> &ManagerStats {
        &self.sched
    }
}

struct Bench {
    ctx: Rc<MachineCtx>,
    lock: SimSpinLock,
    mgr: Arc<TaskManager>,
    /// The target queue's cores: the task's cpuset and the pollers.
    cpuset: CpuSet,
    /// When and by whom the queue was last emptied (stale-view window).
    last_clear: (SimTime, usize),
    round_start: SimTime,
    rounds_done: u64,
    iters: u64,
    done: bool,
    /// Cores with an acquire in flight: a spinning core is one spinner, no
    /// matter how many times its poll loop has seen the non-empty state.
    attempting: Vec<bool>,
    stats: OnlineStats,
}

type Shared = Rc<RefCell<Bench>>;

fn start_round(sim: &mut Sim, b: &Shared) {
    let create = {
        let mut bench = b.borrow_mut();
        if bench.rounds_done >= bench.iters {
            bench.done = true;
            return;
        }
        bench.round_start = sim.now();
        // Task creation + local bookkeeping happens on core #0 *in
        // simulated time*, so a previous round's herd drain overlaps it —
        // exactly why per-chip queues stay cheap while the global queue's
        // long drain still delays the next submission.
        SimTime::from_ns(bench.ctx.cost.base_local_ns)
    };
    let b1 = b.clone();
    sim.schedule(create, move |sim| submit_task(sim, &b1));
}

fn submit_task(sim: &mut Sim, b: &Shared) {
    let (lock, ctx, cpuset) = {
        let bench = b.borrow();
        (bench.lock.clone(), bench.ctx.clone(), bench.cpuset)
    };
    // Submission: core #0 takes the queue lock and enqueues. Writing into a
    // *shared* queue polled by S other cores pays steady-state invalidation
    // traffic; a dedicated per-core queue has a single consumer and none.
    let others = if cpuset.count() > 1 {
        cpuset.iter().filter(|&p| p != 0).count() as u64
    } else {
        0
    };
    let pressure = SimTime::from_ns(ctx.cost.poll_pressure_ns * others);
    let b2 = b.clone();
    lock.clone().acquire(sim, 0, move |sim| {
        let b3 = b2.clone();
        sim.schedule(SimTime::from_ns(QUEUE_OP_NS) + pressure, move |sim| {
            b3.borrow()
                .mgr
                .task(|_| TaskStatus::Done)
                .cpuset(cpuset)
                .spawn();
            lock.release(sim, 0);
            // Event-driven polling: each allowed core first observes the
            // write once the line reaches it, somewhere in its poll loop.
            for p in cpuset.iter() {
                let delay = ctx.transfer(0, p) + ctx.poll_phase();
                let b4 = b3.clone();
                sim.schedule(delay, move |sim| poller_notice(sim, &b4, p));
            }
        });
    });
}

fn poller_notice(sim: &mut Sim, b: &Shared, core: usize) {
    let lock = {
        let mut bench = b.borrow_mut();
        if bench.done || bench.attempting[core] {
            // A core spins in place: a second sighting of "non-empty" does
            // not create a second competing acquire.
            return;
        }
        // The core sees "non-empty" unless the clearing write has already
        // propagated to it (stale-view window keeps the herd honest).
        let (t_clear, clearer) = bench.last_clear;
        let visible =
            bench.mgr.has_work_for(core) || sim.now() < t_clear + bench.ctx.transfer(clearer, core);
        if !visible {
            return; // Algorithm 2: empty queues are never locked.
        }
        bench.attempting[core] = true;
        bench.lock.clone()
    };
    let b2 = b.clone();
    lock.acquire(sim, core, move |sim| lock_granted(sim, &b2, core));
}

fn lock_granted(sim: &mut Sim, b: &Shared, core: usize) {
    let has_task = b.borrow().mgr.has_work_for(core);
    let b2 = b.clone();
    if has_task {
        // Dequeue under the lock, then execute and complete the round.
        sim.schedule(SimTime::from_ns(QUEUE_OP_NS), move |sim| {
            let lock = {
                let mut bench = b2.borrow_mut();
                assert!(bench.mgr.schedule(core), "core {core} found no task");
                bench.last_clear = (sim.now(), core);
                bench.attempting[core] = false;
                bench.lock.clone()
            };
            lock.release(sim, core);
            let exec = if core == 0 {
                SELF_EXECUTION_OVERHEAD
            } else {
                SimTime::ZERO
            };
            let b3 = b2.clone();
            sim.schedule(exec, move |sim| complete_round(sim, &b3));
        });
    } else {
        // Loser of the herd: re-check found nothing; release and go back
        // to (event-driven) polling.
        sim.schedule(SimTime::from_ns(RECHECK_NS), move |sim| {
            let lock = {
                let mut bench = b2.borrow_mut();
                bench.attempting[core] = false;
                bench.lock.clone()
            };
            lock.release(sim, core);
        });
    }
}

fn complete_round(sim: &mut Sim, b: &Shared) {
    {
        let mut bench = b.borrow_mut();
        // base_local already elapsed at the start of the round.
        let elapsed = sim.now() - bench.round_start;
        bench.stats.push_time(elapsed);
        bench.rounds_done += 1;
    }
    let b2 = b.clone();
    sim.schedule(SimTime::from_ns(ROUND_GAP_NS), move |sim| {
        start_round(sim, &b2)
    });
}

/// Runs the §V-A microbenchmark against the queue of topology node
/// `target`: `iters` rounds of submit-by-core-0 / execute-by-herd, through
/// a fresh [`TaskManager`] over `topo`.
///
/// # Panics
///
/// Panics if `target` is out of range for `topo`.
pub fn microbench(
    topo: &Topology,
    cost: &CostModel,
    target: NodeId,
    iters: u64,
    seed: u64,
) -> MicrobenchResult {
    let cpuset = topo.node(target).cpuset;
    let ctx = MachineCtx::new(topo.clone(), cost.clone(), seed);
    let lock = SimSpinLock::new(ctx.clone(), 0);
    let mgr = TaskManager::new(Arc::new(topo.clone()));
    let bench: Shared = Rc::new(RefCell::new(Bench {
        ctx,
        lock: lock.clone(),
        mgr: mgr.clone(),
        cpuset,
        last_clear: (SimTime::ZERO, 0),
        round_start: SimTime::ZERO,
        rounds_done: 0,
        iters,
        done: false,
        attempting: vec![false; topo.n_cores()],
        stats: OnlineStats::new(),
    }));
    let mut sim = Sim::new();
    let b = bench.clone();
    sim.schedule(SimTime::ZERO, move |sim| start_round(sim, &b));
    sim.run();
    let bench = Rc::try_unwrap(bench)
        .ok()
        .expect("all events drained")
        .into_inner();
    MicrobenchResult {
        stats: bench.stats,
        sched: mgr.stats(),
        lock_acquisitions: lock.acquisitions(),
        lock_contended: lock.contended(),
    }
}

/// One row group of Table I / Table II: results for every queue of a level.
#[derive(Debug, Clone)]
pub struct LevelRow {
    /// The level being measured.
    pub level: Level,
    /// `(node, result)` for each queue at that level, in ordinal order.
    pub entries: Vec<(NodeId, MicrobenchResult)>,
}

/// Runs the microbenchmark for every queue at every level of the machine —
/// everything needed to print Table I or Table II.
pub fn bench_table(topo: &Topology, cost: &CostModel, iters: u64, seed: u64) -> Vec<LevelRow> {
    let mut rows = Vec::new();
    // Innermost (per-core) first, then intermediate levels, then global, to
    // match the tables' layout.
    let mut levels: Vec<Level> = Level::ALL
        .iter()
        .copied()
        .filter(|l| !topo.nodes_at_level(*l).is_empty())
        .collect();
    levels.reverse(); // Core first, Machine last
    for level in levels {
        let entries = topo
            .nodes_at_level(level)
            .into_iter()
            .enumerate()
            .map(|(i, node)| {
                let r = microbench(topo, cost, node, iters, seed ^ (i as u64) << 8);
                (node, r)
            })
            .collect();
        rows.push(LevelRow { level, entries });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use piom_topology::presets;

    const ITERS: u64 = 300;

    fn run(topo: &Topology, cost: &CostModel, node: NodeId) -> MicrobenchResult {
        microbench(topo, cost, node, ITERS, 42)
    }

    #[test]
    fn local_per_core_is_near_base() {
        let topo = presets::kwak();
        let cost = CostModel::kwak();
        let r = run(&topo, &cost, topo.core_node(0));
        let mean = r.mean_ns();
        assert!(
            (cost.base_local_ns as f64..cost.base_local_ns as f64 + 200.0).contains(&mean),
            "local mean {mean} not near base"
        );
        assert_eq!(r.executed_by_core[0], ITERS);
    }

    #[test]
    fn remote_per_core_pays_one_cross_numa_transfer() {
        let topo = presets::kwak();
        let cost = CostModel::kwak();
        let local = run(&topo, &cost, topo.core_node(1)).mean_ns();
        let remote = run(&topo, &cost, topo.core_node(12)).mean_ns();
        let overhead = remote - local;
        assert!(
            (700.0..1600.0).contains(&overhead),
            "cross-NUMA per-core overhead {overhead} out of range"
        );
    }

    #[test]
    fn hierarchy_ordering_holds() {
        // The paper's central scalability claim: per-core < per-chip < global.
        let topo = presets::kwak();
        let cost = CostModel::kwak();
        let per_core = run(&topo, &cost, topo.core_node(0)).mean_ns();
        let numa0 = topo.nodes_at_level(Level::NumaNode)[0];
        let per_chip = run(&topo, &cost, numa0).mean_ns();
        let global = run(&topo, &cost, topo.root()).mean_ns();
        assert!(per_core < per_chip, "{per_core} !< {per_chip}");
        assert!(per_chip < global, "{per_chip} !< {global}");
        assert!(
            global > 4.0 * per_chip,
            "global queue should be far worse: chip {per_chip}, global {global}"
        );
    }

    #[test]
    fn global_grows_with_core_count() {
        // 16-core kwak's global queue is much worse than 8-core borderline's.
        let kwak = presets::kwak();
        let borderline = presets::borderline();
        let g16 = run(&kwak, &CostModel::kwak(), kwak.root()).mean_ns();
        let g8 = run(&borderline, &CostModel::borderline(), borderline.root()).mean_ns();
        assert!(
            g16 > 1.8 * g8,
            "global overhead must grow with cores: 8-core {g8}, 16-core {g16}"
        );
    }

    #[test]
    fn shared_queue_distributes_work_within_level() {
        let topo = presets::kwak();
        let cost = CostModel::kwak();
        let numa1 = topo.nodes_at_level(Level::NumaNode)[1];
        let r = run(&topo, &cost, numa1);
        let total: u64 = r.executed_by_core.iter().sum();
        assert_eq!(total, ITERS);
        // All executions on cores 4..8, each taking a nontrivial share
        // ("each of them executes roughly 25% of the submitted tasks").
        for core in 4..8 {
            let share = r.executed_by_core[core] as f64 / total as f64;
            assert!(share > 0.05, "core {core} starved: {share}");
        }
        for core in (0..4).chain(8..16) {
            assert_eq!(r.executed_by_core[core], 0, "foreign core executed");
        }
    }

    #[test]
    fn global_queue_is_numa_skewed() {
        // The unfair handoff concentrates work in few NUMA nodes (§V-A:
        // "most of the tasks are executed by cores located on NUMA node 2").
        let topo = presets::kwak();
        let r = run(&topo, &CostModel::kwak(), topo.root());
        let per_node: Vec<u64> = (0..4)
            .map(|n| r.executed_by_core[n * 4..(n + 1) * 4].iter().sum())
            .collect();
        let max = *per_node.iter().max().unwrap() as f64;
        let total: u64 = per_node.iter().sum();
        assert_eq!(total, ITERS);
        assert!(
            max / total as f64 > 0.5,
            "expected a dominant NUMA node, got {per_node:?}"
        );
    }

    #[test]
    fn contention_counters_reflect_the_herd() {
        let topo = presets::kwak();
        let cost = CostModel::kwak();
        let lone = run(&topo, &cost, topo.core_node(3));
        let global = run(&topo, &cost, topo.root());
        assert_eq!(lone.lock_contended, 0, "single poller never contends");
        assert!(
            global.lock_contended > ITERS,
            "global herd contends every round"
        );
    }

    #[test]
    fn pioman_keeps_the_books_on_every_queue() {
        // Every round is one spawn and one hand-out through `pioman`: two
        // acquisitions of the target queue's lock, none of any other. The
        // simulated lock also grants the herd's stale-view re-checks,
        // which `pioman` never sees, so it counts more on shared queues.
        for (topo, cost) in [
            (presets::kwak(), CostModel::kwak()),
            (presets::borderline(), CostModel::borderline()),
        ] {
            for node in topo.node_ids() {
                let r = run(&topo, &cost, node);
                assert_eq!(r.total_executed(), ITERS);
                assert_eq!(r.total_stolen(), 0);
                for (i, q) in r.queues.iter().enumerate() {
                    let want = if i == node.index() { 2 * ITERS } else { 0 };
                    assert_eq!(q.lock_acquisitions, want, "queue {i}, target {node:?}");
                }
                if topo.node(node).cpuset.count() > 1 {
                    assert!(r.lock_acquisitions > 2 * ITERS, "{node:?}");
                } else {
                    assert_eq!(r.lock_acquisitions, 2 * ITERS, "{node:?}");
                }
            }
        }
    }

    #[test]
    fn bench_table_covers_all_levels() {
        let topo = presets::borderline();
        let rows = bench_table(&topo, &CostModel::borderline(), 50, 1);
        let levels: Vec<Level> = rows.iter().map(|r| r.level).collect();
        assert_eq!(levels, vec![Level::Core, Level::Chip, Level::Machine]);
        assert_eq!(rows[0].entries.len(), 8);
        assert_eq!(rows[1].entries.len(), 4);
        assert_eq!(rows[2].entries.len(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = presets::kwak();
        let cost = CostModel::kwak();
        let a = microbench(&topo, &cost, topo.root(), 100, 9).mean_ns();
        let b = microbench(&topo, &cost, topo.root(), 100, 9).mean_ns();
        assert_eq!(a, b);
    }
}
