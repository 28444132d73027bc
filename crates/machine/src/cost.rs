//! Cost model: how long memory-system operations take on a simulated machine.
//!
//! All costs are in nanoseconds of simulated time. The presets are
//! calibrated so the §V-A microbenchmark lands in the ranges the paper
//! reports (see `EXPERIMENTS.md` for paper-vs-measured); the *structure* —
//! which operations pay which distance — is what carries the result, not
//! the constants.

use piom_des::SimTime;
use piom_topology::Topology;

/// Extra cost when the submitting core also executes the task (the paper
/// measured ~25 ns on core #0, §V-A).
pub const SELF_EXECUTION_OVERHEAD: SimTime = SimTime::from_ns(25);
/// Uncontended lock acquire/release round.
pub const LOCK_BASE: SimTime = SimTime::from_ns(15);
/// Span of [`MachineCtx::poll_phase`](crate::spinlock_model::MachineCtx::poll_phase):
/// an event becomes visible to a polling core a uniform delay in
/// `[0, POLL_PHASE_SPAN)` after it reaches the core's cache.
pub const POLL_PHASE_SPAN: SimTime = SimTime::from_ns(40);
/// Cost of a context switch (thread-scheduler model).
pub const CONTEXT_SWITCH: SimTime = SimTime::from_ns(1_500);
/// Timer interrupt period (thread-scheduler model): a Linux-ish 10 ms tick.
pub const TIMER_SLICE: SimTime = SimTime::from_ms(10);
/// Multiplicative jitter spread applied to transfers.
pub const JITTER: f64 = 0.04;

/// Latency parameters of a simulated machine's memory system: what the
/// presets calibrate per machine. Costs that are the same on every machine
/// are the module's constants.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Cache-line transfer latency indexed by [`piom_topology::Locality`]
    /// discriminant (self, shared cache, same chip, same NUMA node, cross
    /// NUMA).
    pub transfer_ns: [u64; 5],
    /// Fixed cost of creating + locally scheduling + completing an empty
    /// task (the paper's ~700 ns reference, §V-A).
    pub base_local_ns: u64,
    /// Time a spinning waiter "steals" from the handoff (cache-line
    /// interference per additional active spinner).
    pub spin_interference_ns: u64,
    /// Cost added to an enqueue for each *other* core continuously polling
    /// the same queue: their shared copies of the queue's cache lines must
    /// be invalidated and re-fetched on every write (steady-state MESI
    /// traffic on a shared queue).
    pub poll_pressure_ns: u64,
}

impl CostModel {
    /// Model for `borderline`: 4-socket dual-core, no L3, single memory
    /// domain per socket. Inter-chip traffic is cheap HyperTransport
    /// (~100 ns observed overhead in Table I).
    pub fn borderline() -> Self {
        CostModel {
            //            self, cache, chip, numa, xnuma
            transfer_ns: [0, 40, 55, 95, 950],
            base_local_ns: 640,
            spin_interference_ns: 110,
            poll_pressure_ns: 250,
        }
    }

    /// Model for `kwak`: 4 NUMA nodes, shared L3 per socket. Cross-NUMA
    /// transfers cost ~1 µs (Table II's remote per-core overhead).
    pub fn kwak() -> Self {
        CostModel {
            transfer_ns: [0, 45, 60, 80, 1_030],
            base_local_ns: 590,
            spin_interference_ns: 130,
            poll_pressure_ns: 230,
        }
    }

    /// A neutral model for generic scaling studies.
    pub fn generic() -> Self {
        CostModel {
            transfer_ns: [0, 40, 80, 120, 800],
            base_local_ns: 700,
            spin_interference_ns: 100,
            poll_pressure_ns: 220,
        }
    }

    /// Cache-line transfer latency between two cores of `topo`.
    pub fn transfer(&self, topo: &Topology, from: usize, to: usize) -> SimTime {
        SimTime::from_ns(self.transfer_ns[topo.locality(from, to).distance()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piom_topology::{presets, Locality};

    #[test]
    fn transfer_monotone_in_distance() {
        for model in [
            CostModel::borderline(),
            CostModel::kwak(),
            CostModel::generic(),
        ] {
            for w in model.transfer_ns.windows(2) {
                assert!(w[0] <= w[1], "transfer cost must grow with distance");
            }
        }
    }

    #[test]
    fn kwak_cross_numa_is_expensive() {
        let m = CostModel::kwak();
        let t = presets::kwak();
        let local = m.transfer(&t, 0, 1);
        let remote = m.transfer(&t, 0, 12);
        assert!(remote.as_ns() > 10 * local.as_ns());
        assert_eq!(m.transfer(&t, 3, 3), SimTime::ZERO);
    }

    #[test]
    fn borderline_interchip_is_cheap() {
        let m = CostModel::borderline();
        let t = presets::borderline();
        // Inter-chip on borderline stays within one memory domain: ~100 ns.
        let cross = m.transfer(&t, 0, 5);
        assert!(cross.as_ns() < 200, "got {cross}");
    }

    #[test]
    fn locality_indexing_matches_enum() {
        let m = CostModel::generic();
        let t = presets::kwak();
        assert_eq!(t.locality(0, 0), Locality::SelfCore);
        assert_eq!(m.transfer(&t, 0, 0), SimTime::ZERO);
        assert_eq!(t.locality(0, 12), Locality::CrossNuma);
        assert_eq!(m.transfer(&t, 0, 12).as_ns(), m.transfer_ns[4]);
    }
}
