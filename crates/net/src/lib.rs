//! Simulated high-performance cluster network.
//!
//! The paper's experiments ran on InfiniBand ConnectX and Myri-10G NICs.
//! This crate substitutes a discrete-event model of that class of fabric:
//!
//! * [`NetParams`] — per-message latency, per-byte bandwidth, NIC occupancy
//!   (the per-packet engine busy time that message aggregation amortizes),
//!   and RDMA costs; presets for IB/Myri-10G/TCP-class links;
//! * [`Network`] — `n` nodes × `r` rails; each (node, rail) pair owns a
//!   [`Nic`] with a serializing send engine and an rx-handler callback;
//! * packet delivery into the receiving node's engine after
//!   `occupancy + size·per_byte + latency`;
//! * [`Network::rdma_read`] — one-sided transfer that completes without any
//!   remote CPU involvement, the mechanism MVAPICH/OpenMPI-class rendezvous
//!   uses to overlap on the sender side (paper §II-B, \[10\]).
//!
//! Payload bytes are optional ([`Message::data`]): protocol experiments care
//! about sizes and timing; correctness tests and the zero-copy message path
//! attach a real [`Rope`] (a chain of shared `Bytes` segments) and check
//! end-to-end integrity without the model ever flattening it.
//!
//! # Quick start
//!
//! ```
//! use piom_des::Sim;
//! use piom_net::{Message, NetParams, Network};
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let net = Network::new(2, 1, NetParams::infiniband());
//! let delivered = Rc::new(Cell::new(0u32));
//! let d = delivered.clone();
//! net.nic(1, 0).set_rx_handler(Rc::new(move |_sim, msg: Message| {
//!     assert_eq!(msg.size, 1024);
//!     d.set(d.get() + 1);
//! }));
//!
//! let mut sim = Sim::new();
//! net.send(
//!     &mut sim,
//!     Message { src: 0, dst: 1, rail: 0, tag: 7, size: 1024, data: None },
//! );
//! sim.run();
//! assert_eq!(delivered.get(), 1);
//! assert_eq!(net.nic(0, 0).tx_count(), 1);
//! ```

#![warn(missing_docs)]

use bytes::Rope;
use piom_des::{Handler, Sim, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

mod params;
pub use params::NetParams;

/// A message (or protocol control packet) in flight.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Rail the message was sent on.
    pub rail: usize,
    /// Protocol tag (opaque to the network).
    pub tag: u64,
    /// Payload size in bytes (drives the bandwidth term).
    pub size: usize,
    /// Optional real frame bytes (header + payload segments). The network
    /// never reads or flattens this; timing is driven by `size` alone.
    pub data: Option<Rope>,
}

/// Handler invoked on the receiving side when a message arrives.
pub type RxHandler = Rc<dyn Fn(&mut Sim, Message)>;

struct NicState {
    /// Send engine busy until this time.
    busy_until: SimTime,
    /// A packet is streaming: its transmit-done event is pending, and that
    /// event, not a send, starts the next packet.
    streaming: bool,
    /// Packets queued behind the engine.
    backlog: VecDeque<Message>,
    /// Sum of `size` over the backlog (occupancy accounting for striping).
    backlog_bytes: usize,
    /// Sum of `occupancy + byte_time(size)` over the backlog, kept per
    /// packet (`byte_time` rounds per packet): what [`Network::rail_eta`]
    /// adds to `busy_until`.
    backlog_time: SimTime,
    /// Packets past the backlog that have not arrived yet, oldest first:
    /// those on the wire and, last while `streaming`, the one streaming.
    /// They leave the engine and arrive in this order.
    in_flight: VecDeque<Message>,
    /// Messages fully transmitted.
    tx_count: u64,
    /// Bytes fully transmitted.
    tx_bytes: u64,
    rx_handler: Option<RxHandler>,
    rx_count: u64,
}

type NicCell = Rc<RefCell<NicState>>;

/// One simulated network interface (a (node, rail) endpoint).
#[derive(Clone)]
pub struct Nic {
    engine: Rc<Engine>,
}

/// A NIC's send engine, and the standing handler of its transmit-done
/// events: one per NIC, built with the network, scheduled once per packet.
struct Engine {
    st: NicCell,
    params: NetParams,
    /// The handler of this NIC's packets' arrivals.
    wire: Rc<Wire>,
}

/// The standing handler of the arrivals of one NIC's packets: each event
/// delivers the oldest packet in flight to its destination on the rail.
struct Wire {
    st: NicCell,
    /// The rail's NICs, by node.
    rail: Rc<[NicCell]>,
}

impl Nic {
    fn st(&self) -> std::cell::Ref<'_, NicState> {
        self.engine.st.borrow()
    }

    /// Installs the receive handler (the communication engine's entry).
    pub fn set_rx_handler(&self, h: RxHandler) {
        self.engine.st.borrow_mut().rx_handler = Some(h);
    }

    /// Messages transmitted so far.
    pub fn tx_count(&self) -> u64 {
        self.st().tx_count
    }

    /// Bytes transmitted so far.
    pub fn tx_bytes(&self) -> u64 {
        self.st().tx_bytes
    }

    /// Messages received so far.
    pub fn rx_count(&self) -> u64 {
        self.st().rx_count
    }

    /// Send-engine backlog length (racy diagnostic).
    pub fn backlog_len(&self) -> usize {
        self.st().backlog.len()
    }

    /// Bytes queued behind the engine (sum of backlog `size`s).
    pub fn queued_bytes(&self) -> usize {
        self.st().backlog_bytes
    }

    /// Simulated time at which the send engine frees up.
    pub fn busy_until(&self) -> SimTime {
        self.st().busy_until
    }
}

impl Engine {
    /// Time one packet of `size` bytes occupies the engine.
    fn tx_time(&self, size: usize) -> SimTime {
        self.params.occupancy() + self.params.byte_time(size)
    }

    /// Starts streaming the backlog's head, or marks the engine idle when
    /// the backlog is empty.
    fn start_next(self: &Rc<Self>, st: &mut NicState, sim: &mut Sim) {
        let Some(msg) = st.backlog.pop_front() else {
            st.streaming = false;
            return;
        };
        let tx = self.tx_time(msg.size);
        st.backlog_bytes -= msg.size;
        st.backlog_time -= tx;
        st.busy_until = sim.now() + tx;
        st.streaming = true;
        st.in_flight.push_back(msg);
        sim.schedule_shared(tx, self.clone());
    }
}

impl Handler for Engine {
    /// The streaming packet has left the engine: it flies to its
    /// destination, and the next backlog entry starts streaming.
    fn fire(self: Rc<Self>, sim: &mut Sim) {
        let mut st = self.st.borrow_mut();
        let size = st.in_flight.back().expect("a packet is streaming").size;
        st.tx_count += 1;
        st.tx_bytes += size as u64;
        sim.schedule_shared(self.params.latency(), self.wire.clone());
        self.start_next(&mut st, sim);
    }
}

impl Handler for Wire {
    fn fire(self: Rc<Self>, sim: &mut Sim) {
        let msg = self.st.borrow_mut().in_flight.pop_front();
        let msg = msg.expect("a packet is on the wire");
        let handler = {
            let mut st = self.rail[msg.dst].borrow_mut();
            st.rx_count += 1;
            st.rx_handler.clone()
        };
        match handler {
            Some(h) => h(sim, msg),
            None => panic!(
                "message delivered to node {} rail {} with no rx handler",
                msg.dst, msg.rail
            ),
        }
    }
}

/// A cluster: `n_nodes` nodes, each with `n_rails` NICs, full crossbar.
pub struct Network {
    params: NetParams,
    /// `nics[node][rail]`.
    nics: Vec<Vec<Nic>>,
}

impl Network {
    /// Builds the fabric.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes == 0` or `n_rails == 0`.
    pub fn new(n_nodes: usize, n_rails: usize, params: NetParams) -> Rc<Self> {
        assert!(n_nodes > 0 && n_rails > 0, "empty network");
        let rails: Vec<Rc<[NicCell]>> = (0..n_rails)
            .map(|_| {
                (0..n_nodes)
                    .map(|_| {
                        Rc::new(RefCell::new(NicState {
                            busy_until: SimTime::ZERO,
                            streaming: false,
                            backlog: VecDeque::new(),
                            backlog_bytes: 0,
                            backlog_time: SimTime::ZERO,
                            in_flight: VecDeque::new(),
                            tx_count: 0,
                            tx_bytes: 0,
                            rx_handler: None,
                            rx_count: 0,
                        }))
                    })
                    .collect()
            })
            .collect();
        let nic = |node: usize, rail: &Rc<[NicCell]>| {
            let st = rail[node].clone();
            let wire = Rc::new(Wire {
                st: st.clone(),
                rail: rail.clone(),
            });
            let params = params.clone();
            Nic {
                engine: Rc::new(Engine { st, params, wire }),
            }
        };
        let nics = (0..n_nodes)
            .map(|node| rails.iter().map(|rail| nic(node, rail)).collect())
            .collect();
        Rc::new(Network { params, nics })
    }

    /// Link/NIC parameters.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nics.len()
    }

    /// Number of rails.
    pub fn n_rails(&self) -> usize {
        self.nics[0].len()
    }

    /// The NIC of `(node, rail)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn nic(&self, node: usize, rail: usize) -> &Nic {
        &self.nics[node][rail]
    }

    /// Submits `msg` to the source NIC's send engine. The engine transmits
    /// packets in FIFO order, one at a time, each occupying it for
    /// `occupancy + size * per_byte`; the packet then arrives at the
    /// destination after the wire latency and is handed to the rx handler.
    ///
    /// # Panics
    ///
    /// Panics if src/dst/rail are out of range or `src == dst`.
    pub fn send(self: &Rc<Self>, sim: &mut Sim, msg: Message) {
        assert!(msg.src != msg.dst, "loopback not modelled");
        assert!(msg.src < self.n_nodes() && msg.dst < self.n_nodes());
        assert!(msg.rail < self.n_rails());
        let engine = &self.nics[msg.src][msg.rail].engine;
        let mut st = engine.st.borrow_mut();
        st.backlog_bytes += msg.size;
        st.backlog_time += engine.tx_time(msg.size);
        st.backlog.push_back(msg);
        // Engine idle => kick it; otherwise the pending transmit-done event
        // starts the next packet. `busy_until <= now` is not idle: at that
        // very instant the transmit-done event may still be pending, and
        // it would start a second packet beside this one.
        if !st.streaming {
            engine.start_next(&mut st, sim);
        }
    }

    /// Exact drain time of `(node, rail)`'s send engine: the instant at
    /// which every packet currently submitted (streaming + backlog) has
    /// left the NIC. Because the engine is strictly FIFO, this is
    /// `max(busy_until, now) + Σ (occupancy + size·per_byte)` over the
    /// backlog — the quantity a striping scheduler balances across rails,
    /// and the time at which a packet submitted *now* would start
    /// streaming. The sum is kept as the backlog changes, so this is O(1).
    ///
    /// # Panics
    ///
    /// Panics if `node`/`rail` are out of range.
    pub fn rail_eta(&self, now: SimTime, node: usize, rail: usize) -> SimTime {
        let st = self.nics[node][rail].st();
        st.busy_until.max(now) + st.backlog_time
    }

    /// One-sided RDMA read: `reader` pulls `size` bytes from `target`
    /// without involving the target's CPU. `on_complete` runs on the reader
    /// side when the data has landed.
    ///
    /// Cost: request descriptor flight (`latency + rdma_setup`) + data
    /// streamed back (`size * per_byte + latency`).
    pub fn rdma_read<F: FnOnce(&mut Sim) + 'static>(
        self: &Rc<Self>,
        sim: &mut Sim,
        reader: usize,
        target: usize,
        rail: usize,
        size: usize,
        on_complete: F,
    ) {
        assert!(reader != target, "rdma loopback not modelled");
        assert!(reader < self.n_nodes() && target < self.n_nodes());
        assert!(rail < self.n_rails());
        let total = self.params.rdma_setup()
            + self.params.latency() // read request reaches the target NIC
            + self.params.byte_time(size) // data streams back
            + self.params.latency(); // last byte's wire flight
        sim.schedule(total, on_complete);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn net() -> (Rc<Network>, Sim) {
        (Network::new(2, 2, NetParams::infiniband()), Sim::new())
    }

    fn collect_arrivals(
        net: &Rc<Network>,
        node: usize,
        rail: usize,
    ) -> Rc<RefCell<Vec<(SimTime, Message)>>> {
        let log: Rc<RefCell<Vec<(SimTime, Message)>>> = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        net.nic(node, rail).set_rx_handler(Rc::new(move |sim, msg| {
            l.borrow_mut().push((sim.now(), msg));
        }));
        log
    }

    #[test]
    fn small_message_arrives_after_latency_plus_occupancy() {
        let (net, mut sim) = net();
        let log = collect_arrivals(&net, 1, 0);
        net.send(
            &mut sim,
            Message {
                src: 0,
                dst: 1,
                rail: 0,
                tag: 7,
                size: 4,
                data: None,
            },
        );
        sim.run();
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        let p = &net.params();
        let expected = p.occupancy() + p.byte_time(4) + p.latency();
        assert_eq!(log[0].0, expected);
        assert_eq!(log[0].1.tag, 7);
    }

    #[test]
    fn large_message_time_is_bandwidth_dominated() {
        let (net, mut sim) = net();
        let log = collect_arrivals(&net, 1, 0);
        let size = 1 << 20; // 1 MB
        net.send(
            &mut sim,
            Message {
                src: 0,
                dst: 1,
                rail: 0,
                tag: 0,
                size,
                data: None,
            },
        );
        sim.run();
        let arrival = log.borrow()[0].0;
        let bw_term = net.params().byte_time(size);
        assert!(
            arrival.as_ns() > bw_term.as_ns(),
            "arrival precedes bandwidth term"
        );
        assert!(
            (arrival - net.params().latency() - net.params().occupancy()) == bw_term,
            "decomposition broken"
        );
        // 1 MB at ~1.2 GB/s is on the order of a millisecond.
        assert!(arrival > SimTime::from_us(500) && arrival < SimTime::from_ms(2));
    }

    #[test]
    fn nic_engine_serializes_sends_fifo() {
        let (net, mut sim) = net();
        let log = collect_arrivals(&net, 1, 0);
        for tag in 0..5 {
            net.send(
                &mut sim,
                Message {
                    src: 0,
                    dst: 1,
                    rail: 0,
                    tag,
                    size: 1024,
                    data: None,
                },
            );
        }
        sim.run();
        let log = log.borrow();
        assert_eq!(log.len(), 5);
        let tags: Vec<u64> = log.iter().map(|(_, m)| m.tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4], "FIFO violated");
        // Arrivals spaced by at least the per-packet engine time.
        let step = net.params().occupancy() + net.params().byte_time(1024);
        for w in log.windows(2) {
            assert_eq!(w[1].0 - w[0].0, step);
        }
        assert_eq!(net.nic(0, 0).tx_count(), 5);
        assert_eq!(net.nic(1, 0).rx_count(), 5);
    }

    #[test]
    fn a_send_at_the_instant_a_packet_finishes_waits_for_the_engine() {
        // An event scheduled before A, at A's transmit-done instant, sends
        // B and C: it runs before A's transmit-done event. The engine is
        // still A's until that event has run, so B must not start
        // streaming beside it, and C must stream after B, not beside it.
        let (net, mut sim) = net();
        let log = collect_arrivals(&net, 1, 0);
        let p = net.params().clone();
        let size = 1000;
        let packet = move |tag| Message {
            src: 0,
            dst: 1,
            rail: 0,
            tag,
            size,
            data: None,
        };
        let tx = p.occupancy() + p.byte_time(size);
        let n2 = net.clone();
        sim.schedule_abs(tx, move |sim| {
            n2.send(sim, packet(1));
            n2.send(sim, packet(2));
        });
        net.send(&mut sim, packet(0));
        sim.run();
        let arrivals: Vec<(u64, SimTime)> = log.borrow().iter().map(|(t, m)| (m.tag, *t)).collect();
        let at = |k: u64| tx * (k + 1) + p.latency();
        assert_eq!(arrivals, vec![(0, at(0)), (1, at(1)), (2, at(2))]);
        assert_eq!(net.nic(0, 0).tx_count(), 3);
    }

    #[test]
    fn rails_transmit_in_parallel() {
        let (net, mut sim) = net();
        let log0 = collect_arrivals(&net, 1, 0);
        let log1 = collect_arrivals(&net, 1, 1);
        let size = 1 << 20;
        for rail in 0..2 {
            net.send(
                &mut sim,
                Message {
                    src: 0,
                    dst: 1,
                    rail,
                    tag: rail as u64,
                    size,
                    data: None,
                },
            );
        }
        sim.run();
        let a0 = log0.borrow()[0].0;
        let a1 = log1.borrow()[0].0;
        assert_eq!(a0, a1, "two rails should stream simultaneously");
    }

    #[test]
    fn payload_bytes_survive_transit() {
        let (net, mut sim) = net();
        let log = collect_arrivals(&net, 1, 0);
        let mut payload = Rope::from(bytes::Bytes::from(vec![0xAB; 200]));
        payload.push(bytes::Bytes::from(vec![0xCD; 56]));
        net.send(
            &mut sim,
            Message {
                src: 0,
                dst: 1,
                rail: 0,
                tag: 1,
                size: 256,
                data: Some(payload.clone()),
            },
        );
        sim.run();
        let arrived = log.borrow()[0].1.data.clone().unwrap();
        assert_eq!(arrived, payload);
        assert_eq!(arrived.n_segments(), 2, "transit must not flatten the rope");
    }

    #[test]
    fn rail_eta_tracks_backlog_and_drains_exactly() {
        let (net, mut sim) = net();
        net.nic(1, 0).set_rx_handler(Rc::new(|_, _| {}));
        let p = net.params().clone();
        assert_eq!(net.rail_eta(sim.now(), 0, 0), SimTime::ZERO, "idle rail");

        for _ in 0..3 {
            net.send(
                &mut sim,
                Message {
                    src: 0,
                    dst: 1,
                    rail: 0,
                    tag: 0,
                    size: 1024,
                    data: None,
                },
            );
        }
        // One packet is streaming (covered by busy_until), two are queued.
        let expected = (p.occupancy() + p.byte_time(1024)) * 3;
        let eta = net.rail_eta(sim.now(), 0, 0);
        assert_eq!(eta, expected);
        assert_eq!(net.nic(0, 0).backlog_len(), 2);
        assert_eq!(net.nic(0, 0).queued_bytes(), 2048);

        // At the predicted eta, the engine is exactly free again.
        let seen = Rc::new(Cell::new(SimTime::ZERO));
        let s = seen.clone();
        let n2 = net.clone();
        sim.schedule_abs(eta, move |sim| {
            s.set(n2.rail_eta(sim.now(), 0, 0));
        });
        sim.run();
        assert_eq!(seen.get(), eta, "engine idle again at its own eta");
        assert_eq!(net.nic(0, 0).queued_bytes(), 0);
    }

    #[test]
    fn packets_in_flight_arrive_after_the_network_is_dropped() {
        // The pending transmit-done and arrival events own what they need,
        // as pending closures do: the last `Rc<Network>` may go first.
        let (net, mut sim) = net();
        let log = collect_arrivals(&net, 1, 1);
        for tag in 0..3 {
            net.send(
                &mut sim,
                Message {
                    src: 0,
                    dst: 1,
                    rail: 1,
                    tag,
                    size: 64,
                    data: None,
                },
            );
        }
        drop(net);
        sim.run();
        let tags: Vec<u64> = log.borrow().iter().map(|(_, m)| m.tag).collect();
        assert_eq!(tags, vec![0, 1, 2]);
    }

    #[test]
    fn rdma_read_cost_model() {
        let (net, mut sim) = net();
        let done_at = Rc::new(Cell::new(SimTime::ZERO));
        let d = done_at.clone();
        let size = 32 * 1024;
        net.rdma_read(&mut sim, 1, 0, 0, size, move |sim| d.set(sim.now()));
        sim.run();
        let p = NetParams::infiniband();
        let expected = p.rdma_setup() + p.latency() * 2 + p.byte_time(size);
        assert_eq!(done_at.get(), expected);
    }

    #[test]
    fn bidirectional_traffic_no_interference() {
        let (net, mut sim) = net();
        let log_at_1 = collect_arrivals(&net, 1, 0);
        let log_at_0 = collect_arrivals(&net, 0, 0);
        net.send(
            &mut sim,
            Message {
                src: 0,
                dst: 1,
                rail: 0,
                tag: 1,
                size: 4,
                data: None,
            },
        );
        net.send(
            &mut sim,
            Message {
                src: 1,
                dst: 0,
                rail: 0,
                tag: 2,
                size: 4,
                data: None,
            },
        );
        sim.run();
        assert_eq!(log_at_1.borrow().len(), 1);
        assert_eq!(log_at_0.borrow().len(), 1);
        // Full duplex: both arrive at the same instant.
        assert_eq!(log_at_1.borrow()[0].0, log_at_0.borrow()[0].0);
    }

    #[test]
    #[should_panic(expected = "no rx handler")]
    fn delivery_without_handler_panics() {
        let (net, mut sim) = net();
        net.send(
            &mut sim,
            Message {
                src: 0,
                dst: 1,
                rail: 0,
                tag: 0,
                size: 4,
                data: None,
            },
        );
        sim.run();
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_send_panics() {
        let (net, mut sim) = net();
        net.send(
            &mut sim,
            Message {
                src: 0,
                dst: 0,
                rail: 0,
                tag: 0,
                size: 4,
                data: None,
            },
        );
    }
}
