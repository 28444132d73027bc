//! NewMadeleine-style communication engine on the simulated network.
//!
//! NEWMADELEINE "aims at applying dynamic scheduling optimizations on
//! multiple communication flows such as reordering, aggregation, multirail
//! distribution" (paper §IV-B). This crate reproduces that engine on top of
//! [`piom_net`]:
//!
//! * **eager protocol** for small messages, with an optional *optimization
//!   layer* that packs several pending messages to the same destination
//!   into one NIC packet and spreads packets across rails (Fig. 1);
//! * **rendezvous protocol** for large messages, in two flavours:
//!   two-sided RTS/CTS/DATA (what NewMadeleine's progression engine
//!   drives in the background) and RDMA-read RTS/FIN (the
//!   MVAPICH/OpenMPI-class protocol of \[10\], where the receiver pulls the
//!   data and the sender only learns of completion from the FIN);
//! * **poll-driven progress**: incoming packets sit in the NIC receive
//!   queue until someone calls [`CommEngine::poll`]. *Who* polls and *when*
//!   is the whole subject of the paper — PIOMan polls from scheduler
//!   keypoints (idle cores), MPICH-class libraries poll only inside MPI
//!   calls. The engine takes no position; the `madmpi` crate wires both.
//!
//! Requests are [`ReqHandle`]s: completion is observable by flag or by
//! registered callback (used to notify simulated condition variables).
//!
//! # Zero-copy data path
//!
//! Every send carries its payload: the [`Bytes`] handed to
//! [`CommEngine::isend_bytes`] travel as shared segments chained into a
//! [`Rope`] — never memcpy'd by the engine:
//!
//! * eager frames chain `header + payload` segments;
//! * aggregates chain one segment per packed message (no flattening);
//! * rendezvous chunks are [`Bytes::slice`] windows over the source
//!   buffer; the receiver reassembles them by chaining the arrived chunk
//!   ropes back together in offset order.
//!
//! There is one pack path and it copies no payload byte. The regression
//! tests in `tests/zero_copy.rs` pin this by buffer identity: every segment
//! of a received payload lies inside the sender's source allocation, on the
//! eager, aggregated, striped-rendezvous and RDMA paths.
//!
//! # Pipelined progression
//!
//! Each destination is one *flow*: a bounded in-flight window
//! ([`EngineConfig::pipeline_window`]) of eager packets submitted to the
//! NICs, and the queue of messages pooled behind it while it is full
//! (that queueing *is* the aggregation opportunity of Fig. 1). A flush
//! looks at the flows' heads only — the flow with a free slot and the
//! oldest pooled message leaves first, one packet cut off its front — so
//! a submission into a full window costs a push, not a walk of everything
//! pooled. A drain timer armed at each packet's exact
//! [`rails::RailView::rail_eta`] re-flushes the moment a slot frees —
//! pack(n+1) overlaps send(n) without waiting for the next poll. After
//! the CTS, a rendezvous payload streams as the DATA chunks
//! [`rails::stripe_plan`] cuts: one below [`EngineConfig::stripe_threshold`]
//! or on one rail, else several water-filled across the rails.
//!
//! # Core and drivers
//!
//! The protocol is one state machine, [`protocol::Core`]: plain data
//! (matching queues, per-destination flows, rendezvous tables, statistics) with
//! no simulator, sharing or callback in it. Its entry points take `now`
//! and a [`protocol::Fabric`] — the rail state [`rails`] reads plus three
//! effects (`transmit`, `arm_timer`, `complete`) that the fabric must
//! apply synchronously and in call order, because the next rail choice and
//! every drain-timer instant are read back from the rail state right after
//! a `transmit`. An RDMA pull is a timer too: the RTS carried the exposed
//! buffer, so the read only takes [`rails::RailView::pull_cost`].
//!
//! A driver supplies everything else: how the core is shared, what a
//! request handle is (the core stores it opaquely and returns it in
//! `complete`), and when completion callbacks run. [`CommEngine`] is the
//! discrete-event driver: one `Rc<RefCell<Core>>`, the simulated
//! [`Network`] as fabric, [`ReqHandle`]s as handles, callbacks run after
//! the core call has returned so they may re-enter the engine.
//! [`loopback::Loopback`] is the in-memory one, where the caller delivers
//! each frame, fires each timer and decides who polls.
//!
//! [`Bytes`]: bytes::Bytes
//! [`Rope`]: bytes::Rope
//! [`Bytes::slice`]: bytes::Bytes::slice

#![warn(missing_docs)]

use bytes::{Bytes, Rope};
use piom_des::{Sim, SimTime};
use piom_net::{Message, Network};
use std::cell::RefCell;
use std::rc::Rc;

pub mod loopback;
pub mod protocol;
pub mod rails;
pub mod wire;
use protocol::{Core, Fabric, Outgoing, Tables, Timer};
use rails::{NodeRails, RailView};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Messages up to this size go eager; larger ones use rendezvous.
    pub eager_threshold: usize,
    /// Use the RDMA-read rendezvous (baseline MPI style) instead of the
    /// two-sided RTS/CTS/DATA rendezvous.
    pub rdma_rendezvous: bool,
    /// Enable the optimization layer: pack pending eager messages for the
    /// same destination into aggregate packets (Fig. 1).
    pub aggregation: bool,
    /// Maximum aggregate packet payload.
    pub max_packet: usize,
    /// Eager packets allowed in flight per destination before the
    /// optimization layer holds further packing. `1` is stop-and-wait
    /// (the MPICH-class baseline); larger windows let pack(n+1) overlap
    /// send(n) and keep several rails streaming.
    pub pipeline_window: usize,
    /// Largest DATA chunk of a striped rendezvous (at least one chunk per
    /// rail); an unstriped payload is one chunk, whatever its size.
    pub rndv_chunk: usize,
    /// Rendezvous payloads at or above this size are striped across rails
    /// by [`rails::stripe_plan`]; smaller ones (all, at `usize::MAX`) go as
    /// one chunk on the least-loaded rail. See [`rails::stripe_crossover`]
    /// for the math behind the default.
    pub stripe_threshold: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            eager_threshold: 16 * 1024,
            rdma_rendezvous: false,
            aggregation: true,
            max_packet: 64 * 1024,
            pipeline_window: 2,
            rndv_chunk: 256 * 1024,
            stripe_threshold: 32 * 1024,
        }
    }
}

impl EngineConfig {
    /// NewMadeleine-style configuration (two-sided rendezvous, aggregation,
    /// multirail, pipelined window).
    pub fn newmadeleine() -> Self {
        Self::default()
    }

    /// Baseline MPI-class configuration: RDMA-read rendezvous (never
    /// striped), no aggregation, stop-and-wait submission.
    pub fn baseline_mpi() -> Self {
        EngineConfig {
            rdma_rendezvous: true,
            aggregation: false,
            pipeline_window: 1,
            ..Self::default()
        }
    }
}

/// Completion callback attached to a request.
type ReqCallback = Box<dyn FnOnce(&mut Sim)>;

/// Observable state of a send/recv request.
#[derive(Default)]
struct ReqState {
    complete: bool,
    completed_at: Option<SimTime>,
    callbacks: Vec<ReqCallback>,
    payload: Option<Rope>,
}

/// Handle to an asynchronous operation (the `MPI_Request` analogue).
#[derive(Clone, Default)]
pub struct ReqHandle {
    st: Rc<RefCell<ReqState>>,
}

impl ReqHandle {
    /// `true` once the operation finished.
    pub fn is_complete(&self) -> bool {
        self.st.borrow().complete
    }

    /// Simulated completion instant, if complete.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.st.borrow().completed_at
    }

    /// A completed receive's payload, sharing the sender's buffers
    /// (zero-copy). `None` on a send and before completion.
    pub fn payload(&self) -> Option<Rope> {
        self.st.borrow().payload.clone()
    }

    /// Registers a callback run at completion (immediately if already done).
    ///
    /// A callback may call back into the engine that completed the request
    /// (post a receive, send, poll): the engine runs callbacks only after
    /// its own state is released.
    pub fn on_complete<F: FnOnce(&mut Sim) + 'static>(&self, sim: &mut Sim, f: F) {
        let already = self.st.borrow().complete;
        if already {
            f(sim);
        } else {
            self.st.borrow_mut().callbacks.push(Box::new(f));
        }
    }
}

/// Aggregate engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Wire packets submitted to NICs.
    pub packets_sent: u64,
    /// Eager messages carried inside aggregates.
    pub aggregated_messages: u64,
    /// Aggregate packets among `packets_sent`.
    pub aggregate_packets: u64,
    /// Rendezvous transfers started as sender.
    pub rendezvous_started: u64,
    /// Packets processed by [`CommEngine::poll`].
    pub packets_processed: u64,
    /// Poll invocations that found nothing to do.
    pub empty_polls: u64,
    /// Always 0: nothing in the engine writes it, because no path copies
    /// payload bytes. It stays only because the repo benchmark reads it;
    /// zero-copy is pinned by buffer identity in `tests/zero_copy.rs`.
    pub payload_bytes_copied: u64,
    /// Packets dropped because the wire header did not parse, or because
    /// an eager or aggregate body was not exactly as long as its header
    /// announced. A corrupt packet degrades the link, it must not kill the
    /// process.
    pub undecodable_packets: u64,
    /// Well-formed control packets dropped as stale: a second copy of a
    /// live RTS, CTS/FIN for unknown or already-resolved requests, DATA
    /// for unknown transfers, duplicate or out-of-range DATA chunks.
    pub stale_control_packets: u64,
    /// Times the flush loop held packing because every pooled
    /// destination's in-flight window was full (the pooling that creates
    /// aggregation opportunities).
    pub pipeline_stalls: u64,
    /// Rendezvous DATA chunks streamed as sender.
    pub data_chunks_sent: u64,
}

/// One node's communication engine: the DES driver of a [`Core`].
///
/// Clones, the NIC rx handlers and the scheduled timer events all share
/// the one core cell.
#[derive(Clone)]
pub struct CommEngine {
    node: usize,
    net: Rc<Network>,
    core: Rc<RefCell<Core<ReqHandle>>>,
}

/// [`Fabric`] over the simulator for the length of one core call.
struct Io<'a> {
    sim: &'a mut Sim,
    engine: &'a CommEngine,
    rails: NodeRails<'a>,
    /// Callbacks of the requests this call finished; they run once the
    /// core is released.
    due: Vec<ReqCallback>,
}

impl RailView for Io<'_> {
    fn n_rails(&self) -> usize {
        self.rails.n_rails()
    }
    fn rail_eta(&self, rail: usize, now: u64) -> u64 {
        self.rails.rail_eta(rail, now)
    }
    fn tx_cost(&self, len: usize) -> u64 {
        self.rails.tx_cost(len)
    }
    fn pull_cost(&self, size: usize) -> u64 {
        self.rails.pull_cost(size)
    }
}

impl Fabric<ReqHandle> for Io<'_> {
    fn transmit(&mut self, dst: usize, rail: usize, size: usize, frame: Rope) {
        let msg = Message {
            src: self.engine.node,
            dst,
            rail,
            tag: 0,
            size,
            data: Some(frame),
        };
        self.engine.net.send(self.sim, msg);
    }

    fn arm_timer(&mut self, at: u64, what: Timer<ReqHandle>) {
        let engine = self.engine.clone();
        self.sim.schedule_abs(SimTime::from_ns(at), move |sim| {
            engine.drive(sim, |core, now, io| core.on_timer(now, io, what));
        });
    }

    fn complete(&mut self, req: ReqHandle, payload: Option<Rope>) {
        let mut st = req.st.borrow_mut();
        debug_assert!(!st.complete, "the core completes a request once");
        st.complete = true;
        st.completed_at = Some(self.sim.now());
        st.payload = payload;
        self.due.append(&mut st.callbacks);
    }
}

impl CommEngine {
    /// Creates the engine for `node` and installs its NIC receive handlers
    /// (arrivals are buffered until [`poll`](Self::poll)).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.pipeline_window == 0` (nothing could ever transmit).
    pub fn new(node: usize, net: Rc<Network>, cfg: EngineConfig) -> Self {
        let core = Rc::new(RefCell::new(Core::new(cfg)));
        for rail in 0..net.n_rails() {
            let core = core.clone();
            net.nic(node, rail)
                .set_rx_handler(Rc::new(move |_sim, msg| {
                    let frame = msg.data.unwrap_or_default();
                    core.borrow_mut().on_frame(msg.src, frame);
                }));
        }
        CommEngine { node, net, core }
    }

    /// Runs one core call with the simulator as its fabric, then — with
    /// the core released, so that a callback may re-enter this engine —
    /// the callbacks of the requests the call finished, in order.
    fn drive<T>(
        &self,
        sim: &mut Sim,
        call: impl FnOnce(&mut Core<ReqHandle>, u64, &mut Io) -> T,
    ) -> T {
        let now = sim.now().as_ns();
        let (net, node) = (&*self.net, self.node);
        let mut io = Io {
            sim,
            engine: self,
            rails: NodeRails { net, node },
            due: Vec::new(),
        };
        let out = call(&mut self.core.borrow_mut(), now, &mut io);
        let Io { sim, due, .. } = io;
        for cb in due {
            cb(sim);
        }
        out
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        self.core.borrow().stats()
    }

    /// Sizes of the core's matching and rendezvous tables.
    pub fn tables(&self) -> Tables {
        self.core.borrow().tables()
    }

    /// Arrived-but-unprocessed packet count (what polling would find).
    pub fn rx_backlog(&self) -> usize {
        self.core.borrow().rx_backlog()
    }

    /// Non-blocking send of `data` tagged `app_tag` to `dst`; the
    /// receiver's handle exposes the bytes via [`ReqHandle::payload`].
    ///
    /// Small messages go through the eager path (pooled in their
    /// destination's flow while its window is full); large ones start a
    /// rendezvous. The engine only ever slices and chains `data` —
    /// zero-copy on every path (eager, aggregated, rendezvous, striped).
    /// The returned handle completes when the payload has left this node
    /// (eager / two-sided) or when the receiver's FIN is processed
    /// (RDMA-read rendezvous).
    pub fn isend_bytes(&self, sim: &mut Sim, dst: usize, app_tag: u64, data: Bytes) -> ReqHandle {
        let req = ReqHandle::default();
        let msg = Outgoing { dst, app_tag, data };
        self.drive(sim, |core, now, io| core.isend(now, io, msg, req.clone()));
        req
    }

    /// Non-blocking receive matching `(src, app_tag)`.
    pub fn irecv(&self, sim: &mut Sim, src: usize, app_tag: u64) -> ReqHandle {
        let req = ReqHandle::default();
        self.drive(sim, |core, now, io| {
            core.irecv(now, io, src, app_tag, req.clone())
        });
        req
    }

    /// Makes progress: processes every packet in the NIC receive queues and
    /// flushes the eager flows. Returns `true` if any packet was processed.
    ///
    /// This is the entry point a PIOMan polling task (or an MPI wait loop)
    /// calls repeatedly.
    pub fn poll(&self, sim: &mut Sim) -> bool {
        self.drive(sim, |core, now, io| core.poll(now, io))
    }
}

#[cfg(test)]
mod tests;
