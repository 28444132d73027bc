//! Discrete-event model of a spinlock on a NUMA machine.
//!
//! The paper attributes its Table I–II contention numbers to two spinlock
//! behaviours on NUMA hardware (§V-A):
//!
//! 1. **Handoff cost grows with distance**: passing the lock's cache line to
//!    the next owner costs an inter-core / inter-NUMA transfer.
//! 2. **NUMA-unfair arbitration**: "when the spinlock is released, the cores
//!    located on the same NUMA node notice it quickly while other cores have
//!    to wait the notification to their NUMA node" — so nearby waiters win,
//!    task execution skews toward one node, and each extra spinner's cache
//!    traffic ("interference") stretches every handoff.
//!
//! [`SimSpinLock`] reproduces both: the winner of a release is the waiter
//! with the smallest jittered transfer distance from the releasing core, and
//! each remaining active spinner adds `spin_interference_ns` to the handoff.

use crate::cost::{CostModel, JITTER, LOCK_BASE, POLL_PHASE_SPAN};
use piom_des::rng::SplitMix64;
use piom_des::{Sim, SimTime};
use piom_topology::Topology;
use std::cell::RefCell;
use std::rc::Rc;

/// Shared simulation context: one machine's topology, costs and RNG.
pub struct MachineCtx {
    /// The machine's topology.
    pub topo: Topology,
    /// The machine's latency parameters.
    pub cost: CostModel,
    /// Deterministic RNG for jitter.
    pub rng: RefCell<SplitMix64>,
}

impl MachineCtx {
    /// Creates a context with a deterministic seed.
    pub fn new(topo: Topology, cost: CostModel, seed: u64) -> Rc<Self> {
        Rc::new(MachineCtx {
            topo,
            cost,
            rng: RefCell::new(SplitMix64::new(seed)),
        })
    }

    /// Jittered cache-line transfer latency between two cores.
    pub fn transfer(&self, from: usize, to: usize) -> SimTime {
        let base = self.cost.transfer(&self.topo, from, to);
        let j = self.rng.borrow_mut().jitter(JITTER);
        base.scale(j)
    }

    /// Uniform delay in `[0, POLL_PHASE_SPAN)`: where in its poll loop a
    /// core happens to be when an event becomes visible.
    pub fn poll_phase(&self) -> SimTime {
        let span = POLL_PHASE_SPAN.as_ns();
        SimTime::from_ns(self.rng.borrow_mut().next_below(span))
    }
}

struct Waiter {
    core: usize,
    arrived: SimTime,
    cont: Box<dyn FnOnce(&mut Sim)>,
}

struct LockState {
    held: bool,
    /// Core that last owned the lock (the cache line's current home).
    last_owner: usize,
    waiters: Vec<Waiter>,
    acquisitions: u64,
    contended: u64,
}

/// A spinlock in simulated time. Clone-able handle (shared state).
///
/// The API is continuation-passing: `acquire` runs the supplied closure at
/// the simulated instant the lock is granted; the closure (or a follow-up
/// event) must call `release`.
#[derive(Clone)]
pub struct SimSpinLock {
    ctx: Rc<MachineCtx>,
    st: Rc<RefCell<LockState>>,
}

impl SimSpinLock {
    /// A fresh, unlocked lock whose cache line starts on `home_core`.
    pub fn new(ctx: Rc<MachineCtx>, home_core: usize) -> Self {
        SimSpinLock {
            ctx,
            st: Rc::new(RefCell::new(LockState {
                held: false,
                last_owner: home_core,
                waiters: Vec::new(),
                acquisitions: 0,
                contended: 0,
            })),
        }
    }

    /// Requests the lock for `core`; `cont` runs when it is granted.
    ///
    /// An immediate grant pays [`LOCK_BASE`] alone: the CAS overlaps with
    /// the line movement of the emptiness check that led here.
    pub fn acquire<F: FnOnce(&mut Sim) + 'static>(&self, sim: &mut Sim, core: usize, cont: F) {
        let mut st = self.st.borrow_mut();
        if !st.held {
            st.held = true;
            st.acquisitions += 1;
            // The grant costs nothing of the transfer, but its jitter draw
            // stays: every later draw of the seeded stream (and so Tables
            // I-II) depends on it.
            self.ctx.rng.borrow_mut().jitter(JITTER);
            st.last_owner = core;
            drop(st);
            sim.schedule(LOCK_BASE, cont);
        } else {
            st.contended += 1;
            st.waiters.push(Waiter {
                core,
                arrived: sim.now(),
                cont: Box::new(cont),
            });
        }
    }

    /// Releases the lock held by `core`.
    ///
    /// If spinners are waiting, the next owner is chosen by smallest
    /// jittered transfer distance from `core` (NUMA-unfair handoff), and the
    /// grant is delayed by the transfer plus `spin_interference_ns` per
    /// remaining spinner (their cache traffic steals line ownership).
    pub fn release(&self, sim: &mut Sim, core: usize) {
        let mut st = self.st.borrow_mut();
        debug_assert!(st.held, "release of an unheld SimSpinLock");
        debug_assert_eq!(st.last_owner, core, "release by non-owner");
        if st.waiters.is_empty() {
            st.held = false;
            return;
        }
        // NUMA-biased winner: nearest waiter (jittered), FIFO on ties.
        let winner_idx = (0..st.waiters.len())
            .min_by_key(|&i| {
                let w = &st.waiters[i];
                (self.ctx.transfer(core, w.core).as_ns(), w.arrived)
            })
            .expect("nonempty");
        let winner = st.waiters.swap_remove(winner_idx);
        let spinners = st.waiters.len() as u64;
        st.acquisitions += 1;
        st.last_owner = winner.core;
        let delay = LOCK_BASE
            + self.ctx.transfer(core, winner.core)
            + SimTime::from_ns(self.ctx.cost.spin_interference_ns * spinners);
        drop(st);
        sim.schedule(delay, winner.cont);
    }

    /// Total grants so far.
    pub fn acquisitions(&self) -> u64 {
        self.st.borrow().acquisitions
    }

    /// Requests that found the lock held.
    pub fn contended(&self) -> u64 {
        self.st.borrow().contended
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piom_topology::presets;
    use std::cell::Cell;

    fn ctx() -> Rc<MachineCtx> {
        MachineCtx::new(presets::kwak(), CostModel::kwak(), 1)
    }

    #[test]
    fn uncontended_acquire_release() {
        let ctx = ctx();
        let lock = SimSpinLock::new(ctx, 0);
        let mut sim = Sim::new();
        let granted = Rc::new(Cell::new(false));
        let g = granted.clone();
        let l2 = lock.clone();
        lock.acquire(&mut sim, 0, move |sim| {
            g.set(true);
            l2.release(sim, 0);
        });
        sim.run();
        assert!(granted.get());
        assert_eq!(lock.acquisitions(), 1);
        assert_eq!(lock.contended(), 0);
    }

    #[test]
    fn contended_remote_handoff_costs_a_transfer() {
        // Uncontended grants pay LOCK_BASE regardless of distance (the CAS
        // overlaps the line movement of the preceding check); a *handoff*
        // to a cross-NUMA waiter pays the full transfer.
        let ctx = ctx();
        let lock = SimSpinLock::new(ctx.clone(), 0);
        let mut sim = Sim::new();
        let uncontended_at = Rc::new(Cell::new(SimTime::ZERO));
        let handoff_span = Rc::new(Cell::new(SimTime::ZERO));
        let u = uncontended_at.clone();
        let h = handoff_span.clone();
        let l = lock.clone();
        lock.acquire(&mut sim, 12, move |sim| {
            u.set(sim.now()); // uncontended remote grant
            let release_at = sim.now() + SimTime::from_ns(20);
            let lw = l.clone();
            // Core 0 waits; handoff 12 -> 0 is cross-NUMA.
            l.acquire(sim, 0, move |sim| {
                h.set(sim.now() - release_at);
                lw.release(sim, 0);
            });
            let lr = l.clone();
            sim.schedule(SimTime::from_ns(20), move |sim| lr.release(sim, 12));
        });
        sim.run();
        assert!(
            uncontended_at.get().as_ns() < 100,
            "uncontended remote grant should be cheap: {}",
            uncontended_at.get()
        );
        assert!(
            handoff_span.get().as_ns() > 900,
            "contended cross-NUMA handoff should pay a transfer: {}",
            handoff_span.get()
        );
    }

    #[test]
    fn nearby_waiter_wins_handoff() {
        let ctx = ctx();
        let lock = SimSpinLock::new(ctx, 0);
        let mut sim = Sim::new();
        let order: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        // Core 0 takes the lock, then cores 12 (far) and 1 (near) wait.
        let l = lock.clone();
        let o = order.clone();
        lock.acquire(&mut sim, 0, move |sim| {
            let lw = l.clone();
            let ow = o.clone();
            // Waiters arrive while held; far one arrives first.
            l.acquire(sim, 12, {
                let lw = lw.clone();
                let ow = ow.clone();
                move |sim| {
                    ow.borrow_mut().push(12);
                    lw.release(sim, 12);
                }
            });
            l.acquire(sim, 1, {
                let lw = lw.clone();
                let ow = ow.clone();
                move |sim| {
                    ow.borrow_mut().push(1);
                    lw.release(sim, 1);
                }
            });
            let lr = l.clone();
            sim.schedule(SimTime::from_ns(50), move |sim| lr.release(sim, 0));
        });
        sim.run();
        assert_eq!(
            *order.borrow(),
            vec![1, 12],
            "NUMA-near waiter preempts FIFO"
        );
        assert_eq!(lock.contended(), 2);
        assert_eq!(lock.acquisitions(), 3);
    }

    #[test]
    fn interference_stretches_handoffs() {
        // Grant time to the winner grows with the number of other spinners.
        let durations: Vec<u64> = [0usize, 6]
            .iter()
            .map(|&extra_spinners| {
                let ctx = MachineCtx::new(presets::kwak(), CostModel::kwak(), 7);
                let lock = SimSpinLock::new(ctx, 0);
                let mut sim = Sim::new();
                let winner_at = Rc::new(Cell::new(SimTime::ZERO));
                let l = lock.clone();
                let w = winner_at.clone();
                lock.acquire(&mut sim, 0, move |sim| {
                    // One measured waiter (core 1) + extra spinners.
                    let lw = l.clone();
                    let ww = w.clone();
                    l.acquire(sim, 1, move |sim| {
                        ww.set(sim.now());
                        lw.release(sim, 1);
                    });
                    for s in 0..extra_spinners {
                        let core = 4 + s; // other NUMA node
                        let lw = l.clone();
                        l.acquire(sim, core, move |sim| lw.release(sim, core));
                    }
                    let lr = l.clone();
                    sim.schedule(SimTime::from_ns(10), move |sim| lr.release(sim, 0));
                });
                sim.run();
                winner_at.get().as_ns()
            })
            .collect();
        assert!(
            durations[1] > durations[0] + 5 * CostModel::kwak().spin_interference_ns,
            "6 spinners should add >=6x interference: {durations:?}"
        );
    }

    #[test]
    fn handoff_locality_tally() {
        let ctx = ctx();
        let lock = SimSpinLock::new(ctx, 0);
        let mut sim = Sim::new();
        let l = lock.clone();
        lock.acquire(&mut sim, 0, move |sim| l.release(sim, 0));
        let l = lock.clone();
        sim.schedule(SimTime::from_us(1), move |sim| {
            let lr = l.clone();
            l.acquire(sim, 13, move |sim| lr.release(sim, 13));
        });
        sim.run();
        // A self-grant on core 0, then a cross-NUMA grant to core 13: both
        // find the lock free.
        assert_eq!(lock.acquisitions(), 2);
        assert_eq!(lock.contended(), 0);
    }
}
