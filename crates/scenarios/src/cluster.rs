//! The scenario builder: wires a [`Sim`] kernel, a [`Network`] fabric, and
//! per-node [`Server`] models into one harness the workloads share.
//!
//! The network crate models NIC engines and wire time but deliberately
//! delivers into a bare rx handler — *server-side* queueing (the thing
//! incast collapse and retry storms are made of) is the consumer's job.
//! [`Server`] supplies it: a single-threaded service loop whose per-request
//! CPU cost comes from the machine crate's calibrated [`CostModel`]
//! (`base_local_ns` is the paper's ~700 ns task-handling floor), extended
//! with a per-byte term and deterministic jitter. Requests serialize FIFO
//! behind `busy_until`, which is exactly what turns synchronized arrivals
//! into a latency tail.

use piom_des::rng::SplitMix64;
use piom_des::{Sim, SimTime};
use piom_machine::CostModel;
use piom_net::{Message, NetParams, Network, RxHandler};
use std::cell::RefCell;
use std::rc::Rc;

/// Service-time parameters of one simulated server process.
#[derive(Debug, Clone, Copy)]
pub struct ServerCosts {
    /// Fixed per-request CPU cost, ns.
    pub base_ns: u64,
    /// Per-payload-byte CPU cost, picoseconds.
    pub per_byte_ps: u64,
    /// Multiplicative service jitter spread (0 = none).
    pub jitter: f64,
}

impl ServerCosts {
    /// Costs derived from the machine crate's generic [`CostModel`]: the
    /// request-handling floor is the model's task cost
    /// (`base_local_ns` + self-execution overhead), payload touching runs
    /// at ~2 GB/s, and the service jitter is the model's memory jitter
    /// widened to process scale.
    pub fn from_machine() -> Self {
        let m = CostModel::generic();
        ServerCosts {
            base_ns: m.base_local_ns + m.self_execution_overhead_ns,
            per_byte_ps: 500,
            jitter: m.jitter * 3.0,
        }
    }

    /// Service time for one request of `size` bytes, jittered by `rng`.
    pub fn service_time(&self, size: usize, rng: &mut SplitMix64) -> SimTime {
        let ns = self.base_ns + (size as u64 * self.per_byte_ps) / 1_000;
        SimTime::from_ns(ns).scale(rng.jitter(self.jitter))
    }
}

struct ServerState {
    busy_until: SimTime,
    served: u64,
}

/// A single-threaded server process: each request occupies its CPU for a
/// service time, FIFO behind whatever is already queued. Completion is a
/// simulated event at `max(now, busy_until) + service`.
#[derive(Clone)]
pub struct Server {
    costs: ServerCosts,
    st: Rc<RefCell<ServerState>>,
}

impl Server {
    /// An idle server with the given cost model.
    pub fn new(costs: ServerCosts) -> Self {
        Server {
            costs,
            st: Rc::new(RefCell::new(ServerState {
                busy_until: SimTime::ZERO,
                served: 0,
            })),
        }
    }

    /// Requests fully served so far.
    pub fn served(&self) -> u64 {
        self.st.borrow().served
    }

    /// Simulated time at which the current queue drains.
    pub fn busy_until(&self) -> SimTime {
        self.st.borrow().busy_until
    }

    /// Accepts one request of `size` bytes at the current simulated time;
    /// `done` runs when the server finishes it (after queueing + service).
    /// `service` is drawn by the caller so scenarios control jitter
    /// streams; use [`ServerCosts::service_time`] for the standard draw.
    pub fn serve<F: FnOnce(&mut Sim) + 'static>(&self, sim: &mut Sim, service: SimTime, done: F) {
        let completion = {
            let mut st = self.st.borrow_mut();
            let start = st.busy_until.max(sim.now());
            st.busy_until = start + service;
            st.busy_until
        };
        let st = self.st.clone();
        sim.schedule_abs(completion, move |sim| {
            st.borrow_mut().served += 1;
            done(sim);
        });
    }

    /// Convenience: serve with the standard jittered cost draw.
    pub fn serve_sized<F: FnOnce(&mut Sim) + 'static>(
        &self,
        sim: &mut Sim,
        size: usize,
        rng: &mut SplitMix64,
        done: F,
    ) {
        let service = self.costs.service_time(size, rng);
        self.serve(sim, service, done);
    }
}

/// The assembled testbed every workload starts from: the DES kernel, an
/// `n_nodes × n_rails` fabric, one [`Server`] per node, and the scenario's
/// own seeded RNG stream.
pub struct Cluster {
    /// The event kernel.
    pub sim: Sim,
    /// The simulated fabric.
    pub net: Rc<Network>,
    /// One server process per node (`servers[node]`).
    pub servers: Vec<Server>,
    /// The scenario's deterministic jitter stream.
    pub rng: SplitMix64,
}

impl Cluster {
    /// Builds a cluster of `n_nodes` InfiniBand-class nodes with `n_rails`
    /// rails each, servers costed from the machine model, and an RNG
    /// seeded from `(scenario name, run seed)` so scenarios draw
    /// independent streams.
    pub fn build(name: &str, n_nodes: usize, n_rails: usize, seed: u64) -> Self {
        Cluster::build_with(name, n_nodes, n_rails, seed, NetParams::infiniband())
    }

    /// [`Cluster::build`] with an explicit fabric parameter set.
    pub fn build_with(
        name: &str,
        n_nodes: usize,
        n_rails: usize,
        seed: u64,
        params: NetParams,
    ) -> Self {
        Cluster {
            sim: Sim::new(),
            net: Network::new(n_nodes, n_rails, params),
            servers: (0..n_nodes)
                .map(|_| Server::new(ServerCosts::from_machine()))
                .collect(),
            rng: SplitMix64::new(crate::scenario_seed(name, seed)),
        }
    }

    /// Installs `h` as the rx handler on every rail of `node`.
    pub fn on_receive(&self, node: usize, h: RxHandler) {
        for rail in 0..self.net.n_rails() {
            self.net.nic(node, rail).set_rx_handler(h.clone());
        }
    }
}

/// Nanoseconds elapsed since the send stamp of `msg`: a sender stamps its
/// `sim.now()` in nanoseconds into the tag, which the network leaves opaque.
pub fn stamped_latency(sim: &Sim, msg: &Message) -> u64 {
    sim.now().as_ns().saturating_sub(msg.tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn server_serializes_simultaneous_arrivals() {
        let mut sim = Sim::new();
        let server = Server::new(ServerCosts {
            base_ns: 100,
            per_byte_ps: 0,
            jitter: 0.0,
        });
        let done: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let d = done.clone();
            server.serve(&mut sim, SimTime::from_ns(100), move |sim| {
                d.borrow_mut().push(sim.now().as_ns());
            });
        }
        sim.run();
        // Three requests arriving at t=0 complete at 100, 200, 300: the
        // queueing delay *is* the tail the fan-in scenarios measure.
        assert_eq!(*done.borrow(), vec![100, 200, 300]);
        assert_eq!(server.served(), 3);
    }

    #[test]
    fn server_idles_between_spaced_arrivals() {
        let mut sim = Sim::new();
        let server = Server::new(ServerCosts {
            base_ns: 10,
            per_byte_ps: 0,
            jitter: 0.0,
        });
        let s2 = server.clone();
        sim.schedule(SimTime::from_ns(1_000), move |sim| {
            s2.serve(sim, SimTime::from_ns(10), |_| {});
        });
        sim.run();
        // The queue restarts from the arrival time, not from busy_until.
        assert_eq!(server.busy_until(), SimTime::from_ns(1_010));
    }

    #[test]
    fn machine_costs_are_positive_and_jittered() {
        let costs = ServerCosts::from_machine();
        assert!(costs.base_ns >= 700, "machine task floor expected");
        let mut rng = SplitMix64::new(1);
        let a = costs.service_time(4096, &mut rng);
        let b = costs.service_time(4096, &mut rng);
        assert!(a > SimTime::ZERO && b > SimTime::ZERO);
        assert_ne!(a, b, "jitter must draw from the stream");
    }

    #[test]
    fn stamped_send_measures_end_to_end() {
        let mut c = Cluster::build("test_stamp", 2, 1, 7);
        let seen = Rc::new(Cell::new(0u64));
        let s = seen.clone();
        c.on_receive(
            1,
            Rc::new(move |sim: &mut Sim, msg: Message| {
                s.set(stamped_latency(sim, &msg));
            }),
        );
        let msg = Message {
            src: 0,
            dst: 1,
            rail: 0,
            tag: c.sim.now().as_ns(),
            size: 1024,
            data: None,
        };
        c.net.send(&mut c.sim, msg);
        c.sim.run();
        let p = NetParams::infiniband();
        let expected = (p.occupancy() + p.byte_time(1024) + p.latency()).as_ns();
        assert_eq!(seen.get(), expected);
    }
}
