//! The protocol state machine as plain data (no simulator, no sharing).
//!
//! [`Core`] owns one node's matching queues, per-destination eager flows
//! (pooled messages + pipeline window) and rendezvous tables. Every entry
//! point is given `now` in nanoseconds and a [`Fabric`]: the rail state
//! the scheduler reads plus the three effects the protocol produces. The
//! core never calls back into its caller, so a driver decides alone how it
//! is shared and what a request handle `R` is; the core only stores `R`
//! and hands it back in [`Fabric::complete`].

use crate::rails::{self, RailView};
use crate::wire::{EagerPart, Wire};
use crate::{EngineConfig, EngineStats};
use bytes::{Buf, Bytes, Rope};
use std::collections::VecDeque;

/// Names one pending RDMA pull: `(sender node, sender's request id)`.
pub type PullId = (usize, u32);

/// What an armed timer means when it fires (see [`Core::on_timer`]).
pub enum Timer<R> {
    /// An eager packet to `dst` left the NIC: a window slot is free.
    WindowDrained {
        /// Destination whose in-flight window shrinks.
        dst: usize,
    },
    /// The last DATA chunk of a two-sided send left the NIC.
    SendDrained {
        /// The send request to complete.
        req: R,
    },
    /// The one-sided read of an RDMA rendezvous has landed: the receive
    /// completes and the sender gets its FIN.
    PullLanded {
        /// The pull, as its RTS named it.
        id: PullId,
    },
}

/// The one seam between the protocol and whatever moves its bytes.
///
/// Effects must be applied **synchronously and in call order**: the core
/// picks the rail for packet *n+1* from [`RailView::rail_eta`] as it reads
/// *after* packet *n* was transmitted, and arms each drain timer at the
/// eta it reads right after its own `transmit`. Only what `complete`
/// triggers outside the core (callbacks, wake-ups) may wait until the
/// core call has returned.
pub trait Fabric<R>: RailView {
    /// Submits `frame` to `rail` towards `dst`; `size` is the byte count
    /// the wire is charged for.
    fn transmit(&mut self, dst: usize, rail: usize, size: usize, frame: Rope);
    /// Asks for [`Core::on_timer`]`(what)` at instant `at`.
    fn arm_timer(&mut self, at: u64, what: Timer<R>);
    /// `req` is finished; a receive carries the peer's payload, a send
    /// `None`.
    fn complete(&mut self, req: R, payload: Option<Rope>);
}

/// Sizes of one core's matching and rendezvous tables (a diagnostic
/// snapshot, see [`Core::tables`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tables {
    /// Eager messages and RTSs that arrived before a matching receive.
    pub unexpected: usize,
    /// Storage of the sender's rendezvous table, in entries: the most
    /// rendezvous outstanding at once, not how many ever ran.
    pub send_rndv_slots: usize,
    /// Receiver-side rendezvous in progress: two-sided transfers awaiting
    /// DATA plus RDMA reads in flight.
    pub recv_rndv: usize,
}

/// One message handed to [`Core::isend`].
pub struct Outgoing {
    /// Destination node.
    pub dst: usize,
    /// Application tag the receiver matches on.
    pub app_tag: u64,
    /// The payload; the core only slices and chains it (zero-copy).
    pub data: Bytes,
}

struct PostedRecv<R> {
    src: usize,
    app_tag: u64,
    req: R,
}

enum SendRndv {
    /// Two-sided: holding the message until the CTS.
    AwaitCts(Outgoing),
    /// RDMA-read: waiting for the FIN.
    AwaitFin,
}

/// The sender's live rendezvous, indexed by the id it put in the RTS.
///
/// An id is `slot << GEN_BITS | generation`: the slot finds the entry
/// without hashing, and the generation, bumped each time a slot is handed
/// out, tells a live id from a retired one whose slot has since been
/// reused. A freed slot is reused before the table grows, so its storage is
/// bounded by the rendezvous outstanding at once, not by how many ever ran.
struct SendTable<R> {
    slots: Vec<SendSlot<R>>,
    /// Free slots, most recently freed last.
    free: Vec<u32>,
}

struct SendSlot<R> {
    /// The last id handed out for this slot.
    id: u32,
    /// `Some` while that id's rendezvous is outstanding.
    live: Option<(R, SendRndv)>,
}

const GEN_BITS: u32 = 16;
const GEN_MASK: u32 = (1 << GEN_BITS) - 1;

impl<R> SendTable<R> {
    fn new() -> Self {
        SendTable {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores a new rendezvous and returns its wire id.
    ///
    /// # Panics
    ///
    /// Panics when `2^16` rendezvous are outstanding at once (no slot left
    /// for the id).
    fn insert(&mut self, entry: (R, SendRndv)) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = self.slots.len() as u32;
            assert!(
                slot >> (32 - GEN_BITS) == 0,
                "too many rendezvous outstanding"
            );
            self.slots.push(SendSlot {
                id: slot << GEN_BITS,
                live: None,
            });
            slot
        });
        let s = &mut self.slots[slot as usize];
        s.id = slot << GEN_BITS | (s.id.wrapping_add(1) & GEN_MASK);
        s.live = Some(entry);
        s.id
    }

    /// The live rendezvous `id` names, if any.
    fn get(&self, id: u32) -> Option<&(R, SendRndv)> {
        let s = self.slots.get((id >> GEN_BITS) as usize)?;
        s.live.as_ref().filter(|_| s.id == id)
    }

    /// Retires `id` and returns its rendezvous, if it was live.
    fn remove(&mut self, id: u32) -> Option<(R, SendRndv)> {
        self.get(id)?;
        let slot = id >> GEN_BITS;
        self.free.push(slot);
        self.slots[slot as usize].live.take()
    }

    /// Slots allocated so far (live or free).
    fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// The fields of a decoded RTS that drive the receiver's accept path.
struct RtsFrame {
    sender_req: u32,
    app_tag: u64,
    size: u64,
    rdma: bool,
}

struct RecvRndv<R> {
    /// `(sender node, sender's request id)`.
    key: PullId,
    /// The receive's tag, to re-post it if the transfer falls through.
    app_tag: u64,
    req: R,
    /// Full payload size announced by the RTS.
    expected: u64,
    /// Chunk count, learned from the first DATA header (`of`); the sender
    /// decides the chunking, so the receiver must not guess it.
    total: Option<u32>,
    /// Arrived chunks, any order: `(index, payload)`.
    chunks: Vec<(u32, Rope)>,
}

/// An RDMA read in flight (receiver side).
struct RdmaPull<R> {
    key: PullId,
    req: R,
    rail: usize,
    /// The exposed source buffer the RTS carried a reference to.
    payload: Rope,
}

/// Unexpected-message record (arrived before a matching recv was posted).
struct Unexpected {
    src: usize,
    app_tag: u64,
    /// `Some` for a parked RTS, `None` for an eager message.
    rts: Option<RtsFrame>,
    /// Eager: the message. RDMA RTS: the exposed source buffer the
    /// receiver will pull.
    payload: Rope,
}

/// One destination's eager traffic in the optimization layer.
#[derive(Default)]
struct Flow {
    /// Eager/aggregate packets currently in flight (bounded by
    /// `cfg.pipeline_window`).
    inflight: usize,
    /// Messages pooled while the window is full, oldest first.
    pool: VecDeque<Outgoing>,
}

/// One node's protocol state.
pub struct Core<R> {
    cfg: EngineConfig,
    /// Arrived, waiting for a poll to be processed (the NIC rx queue).
    rx_pending: VecDeque<(usize, Rope)>,
    /// Posted receives, oldest first; matching takes the oldest match,
    /// which is usually near the front.
    posted: VecDeque<PostedRecv<R>>,
    unexpected: Vec<Unexpected>,
    /// Eager flows, indexed by destination node (ids are small and dense).
    flows: Vec<Flow>,
    /// Messages pooled over all flows.
    pooled: usize,
    /// The messages of the eager packet being built; empty between
    /// flushes, kept for its capacity.
    batch: Vec<Outgoing>,
    send_rndv: SendTable<R>,
    /// Receiver-side rendezvous awaiting DATA, and RDMA reads in flight.
    /// An entry exists only for an RTS that matched a receive this node
    /// posted, so a peer cannot grow these lists: they stay as short as
    /// the posted receives and are scanned by `(src, req)`, as the
    /// unexpected queue is.
    recv_rndv: Vec<RecvRndv<R>>,
    rdma_pulls: Vec<RdmaPull<R>>,
    stats: EngineStats,
}

impl<R> Core<R> {
    /// Creates one node's empty protocol state.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.pipeline_window == 0` (nothing could ever transmit).
    pub fn new(cfg: EngineConfig) -> Self {
        assert!(cfg.pipeline_window > 0, "pipeline_window must be >= 1");
        Core {
            cfg,
            rx_pending: VecDeque::new(),
            posted: VecDeque::new(),
            unexpected: Vec::new(),
            flows: Vec::new(),
            pooled: 0,
            batch: Vec::new(),
            send_rndv: SendTable::new(),
            recv_rndv: Vec::new(),
            rdma_pulls: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Sizes of the matching and rendezvous tables.
    pub fn tables(&self) -> Tables {
        Tables {
            unexpected: self.unexpected.len(),
            send_rndv_slots: self.send_rndv.capacity(),
            recv_rndv: self.recv_rndv.len() + self.rdma_pulls.len(),
        }
    }

    /// Arrived-but-unprocessed frame count (what [`poll`](Self::poll)
    /// would find).
    pub fn rx_backlog(&self) -> usize {
        self.rx_pending.len()
    }

    /// Queues a frame that arrived from `src` until the next
    /// [`poll`](Self::poll).
    pub fn on_frame(&mut self, src: usize, frame: Rope) {
        self.rx_pending.push_back((src, frame));
    }

    /// Starts sending `msg`; `req` completes when the payload has left
    /// this node (eager / two-sided) or when the receiver's FIN is
    /// processed (RDMA-read rendezvous).
    pub fn isend(&mut self, now: u64, fab: &mut impl Fabric<R>, msg: Outgoing, req: R) {
        if msg.data.len() <= self.cfg.eager_threshold {
            if msg.dst >= self.flows.len() {
                self.flows.resize_with(msg.dst + 1, Flow::default);
            }
            self.flows[msg.dst].pool.push_back(msg);
            self.pooled += 1;
            // Submission flushes immediately; poll() and window-drain
            // timers also flush, which is what batches flows when the
            // NICs are saturated.
            self.flush_sends(now, fab);
            // Eager sends complete at submission (buffered semantics).
            fab.complete(req, None);
            return;
        }
        self.stats.rendezvous_started += 1;
        let rdma = self.cfg.rdma_rendezvous;
        let (dst, app_tag, size) = (msg.dst, msg.app_tag, msg.data.len() as u64);
        // RDMA flavour: the RTS carries a reference to the exposed source
        // buffer (modelling memory registration — the descriptor rides the
        // control packet, the bytes move in the receiver's pull);
        // two-sided keeps the buffer until CTS and streams it as DATA
        // chunks.
        let (state, rts_payload) = if rdma {
            (SendRndv::AwaitFin, Rope::from(msg.data))
        } else {
            (SendRndv::AwaitCts(msg), Rope::new())
        };
        let id = self.send_rndv.insert((req, state));
        let rts = Wire::Rts {
            req: id,
            app_tag,
            size,
            rdma,
        };
        let rail = rails::pick_rail_in(fab, now);
        self.send_frame(fab, dst, rail, rts, rts_payload);
    }

    /// Posts a receive matching `(src, app_tag)`.
    pub fn irecv(&mut self, now: u64, fab: &mut impl Fabric<R>, src: usize, app_tag: u64, req: R) {
        // Check the unexpected queue first.
        let pos = self
            .unexpected
            .iter()
            .position(|u| u.src == src && u.app_tag == app_tag);
        match pos.map(|i| self.unexpected.remove(i)) {
            Some(Unexpected {
                rts: Some(rts),
                payload,
                ..
            }) => self.accept_rts(now, fab, src, rts, req, payload),
            Some(u) => fab.complete(req, Some(u.payload)),
            None => self.posted.push_back(PostedRecv { src, app_tag, req }),
        }
    }

    /// Makes progress: processes every queued frame and flushes the eager
    /// flows. Returns `true` if any frame was processed.
    pub fn poll(&mut self, now: u64, fab: &mut impl Fabric<R>) -> bool {
        let mut did = false;
        while let Some((src, frame)) = self.rx_pending.pop_front() {
            did = true;
            self.stats.packets_processed += 1;
            self.process(now, fab, src, frame);
        }
        self.flush_sends(now, fab);
        if !did {
            self.stats.empty_polls += 1;
        }
        did
    }

    /// A timer armed through [`Fabric::arm_timer`] fired.
    pub fn on_timer(&mut self, now: u64, fab: &mut impl Fabric<R>, what: Timer<R>) {
        match what {
            Timer::WindowDrained { dst } => {
                self.flows[dst].inflight -= 1;
                self.flush_sends(now, fab);
            }
            Timer::SendDrained { req } => fab.complete(req, None),
            Timer::PullLanded { id } => {
                let at = self.rdma_pulls.iter().position(|p| p.key == id);
                let pull = self.rdma_pulls.swap_remove(at.expect("pull tracked"));
                fab.complete(pull.req, Some(pull.payload));
                let (src, sender_req) = id;
                self.send_wire(fab, src, pull.rail, Wire::Fin { req: sender_req });
            }
        }
    }

    fn take_posted(&mut self, src: usize, app_tag: u64) -> Option<R> {
        let pos = self
            .posted
            .iter()
            .position(|r| r.src == src && r.app_tag == app_tag)?;
        self.posted.remove(pos).map(|r| r.req)
    }

    fn process(&mut self, now: u64, fab: &mut impl Fabric<R>, src: usize, mut frame: Rope) {
        // The frame is a rope: header segment(s) up front, payload behind.
        // Decoding consumes exactly the header and leaves the payload in
        // place — no flattening, no copy.
        // A corrupt packet — an unreadable header, or a body its header
        // does not admit (truncated, padded, or where none belongs) —
        // degrades the link; it must not kill the process.
        let wire = Wire::decode(&mut frame).filter(|w| w.admits_body(frame.remaining()));
        let Some(wire) = wire else {
            self.stats.undecodable_packets += 1;
            return;
        };
        match wire {
            Wire::Eager { app_tag, .. } => self.deliver_eager(fab, src, app_tag, frame),
            Wire::EagerAggregate { parts } => {
                for p in parts {
                    let payload = frame.split_to(p.size as usize);
                    self.deliver_eager(fab, src, p.app_tag, payload);
                }
            }
            Wire::Rts {
                req,
                app_tag,
                size,
                rdma,
            } => {
                // Check before matching: a second copy of a live RTS must
                // not consume another posted receive nor overwrite the
                // first one's rendezvous state.
                let key = (src, req);
                let parked = |u: &Unexpected| {
                    u.src == src && u.rts.as_ref().is_some_and(|r| r.sender_req == req)
                };
                if self.recv_rndv.iter().any(|r| r.key == key)
                    || self.rdma_pulls.iter().any(|p| p.key == key)
                    || self.unexpected.iter().any(parked)
                {
                    self.stats.stale_control_packets += 1;
                    return;
                }
                let rts = RtsFrame {
                    sender_req: req,
                    app_tag,
                    size,
                    rdma,
                };
                match self.take_posted(src, app_tag) {
                    Some(recv) => self.accept_rts(now, fab, src, rts, recv, frame),
                    None => self.unexpected.push(Unexpected {
                        src,
                        app_tag,
                        rts: Some(rts),
                        payload: frame,
                    }),
                }
            }
            Wire::Cts { req } => {
                // Check-then-remove: a stale or duplicate CTS must not
                // destroy live rendezvous state.
                if !matches!(self.send_rndv.get(req), Some((_, SendRndv::AwaitCts(_)))) {
                    self.stats.stale_control_packets += 1;
                    return;
                }
                if let Some((handle, SendRndv::AwaitCts(msg))) = self.send_rndv.remove(req) {
                    self.send_rndv_data(now, fab, req, msg, handle);
                }
            }
            Wire::Data { req, chunk, of } => {
                let key = (src, req);
                let at = self.recv_rndv.iter().position(|r| r.key == key);
                let stale = match at.map(|i| &self.recv_rndv[i]) {
                    None => true,
                    Some(st) => {
                        of == 0
                            || chunk >= of
                            || st.total.is_some_and(|t| t != of)
                            || st.chunks.iter().any(|(c, _)| *c == chunk)
                    }
                };
                if stale {
                    self.stats.stale_control_packets += 1;
                    return;
                }
                let i = at.expect("checked above");
                let st = &mut self.recv_rndv[i];
                st.total = Some(of);
                st.chunks.push((chunk, frame));
                if st.chunks.len() as u32 != of {
                    return;
                }
                let mut st = self.recv_rndv.swap_remove(i);
                // Reassemble in offset order by chaining the chunk ropes —
                // shared segments, no copy.
                st.chunks.sort_by_key(|(c, _)| *c);
                let mut payload = Rope::new();
                for (_, part) in st.chunks {
                    payload.append(part);
                }
                if payload.len() as u64 == st.expected {
                    fab.complete(st.req, Some(payload));
                    return;
                }
                // The chunks fell short of (or overran) the RTS's size: a
                // counted drop that completes nothing. The receive goes
                // back to the head of the posted queue, so a resent
                // transfer can still match it.
                self.stats.undecodable_packets += 1;
                self.posted.push_front(PostedRecv {
                    src,
                    app_tag: st.app_tag,
                    req: st.req,
                });
            }
            Wire::Fin { req } => match self.send_rndv.get(req) {
                Some((_, SendRndv::AwaitFin)) => {
                    let (handle, _) = self.send_rndv.remove(req).expect("checked above");
                    fab.complete(handle, None);
                }
                _ => self.stats.stale_control_packets += 1,
            },
        }
    }

    fn deliver_eager(&mut self, fab: &mut impl Fabric<R>, src: usize, app_tag: u64, payload: Rope) {
        match self.take_posted(src, app_tag) {
            Some(req) => fab.complete(req, Some(payload)),
            None => self.unexpected.push(Unexpected {
                src,
                app_tag,
                rts: None,
                payload,
            }),
        }
    }

    /// Receiver side of an RTS: reply CTS (two-sided) or pull via RDMA.
    fn accept_rts(
        &mut self,
        now: u64,
        fab: &mut impl Fabric<R>,
        src: usize,
        rts: RtsFrame,
        req: R,
        payload: Rope,
    ) {
        let key = (src, rts.sender_req);
        let rail = rails::pick_rail_in(fab, now);
        if rts.rdma {
            // RDMA-read rendezvous: the receiver pulls the payload; no
            // sender CPU involved. FIN tells the sender it may reuse the
            // buffer. The RTS carried a reference to the exposed buffer;
            // it becomes the received payload when the read lands.
            let pull = RdmaPull {
                key,
                req,
                rail,
                payload,
            };
            self.rdma_pulls.push(pull);
            let landed = now + fab.pull_cost(rts.size as usize);
            fab.arm_timer(landed, Timer::PullLanded { id: key });
        } else {
            // The *sender* decides the chunking (stripe plan against its
            // local rail load); the receiver just counts chunks against
            // the `of` field of the DATA headers.
            let st = RecvRndv {
                key,
                app_tag: rts.app_tag,
                req,
                expected: rts.size,
                total: None,
                chunks: Vec::new(),
            };
            self.recv_rndv.push(st);
            self.send_wire(fab, src, rail, Wire::Cts { req: key.1 });
        }
    }

    /// Sender side after CTS: stream the payload as chunked DATA packets
    /// along the stripe plan (multirail + chunk pipelining).
    fn send_rndv_data(
        &mut self,
        now: u64,
        fab: &mut impl Fabric<R>,
        req: u32,
        msg: Outgoing,
        handle: R,
    ) {
        let plan = rails::stripe_plan_in(fab, now, msg.data.len(), &self.cfg);
        let of = plan.len() as u32;
        for (i, c) in plan.iter().enumerate() {
            // Zero-copy: each chunk is a shared window over the source.
            let payload = Rope::from(msg.data.slice(c.offset..c.offset + c.len));
            self.stats.data_chunks_sent += 1;
            let chunk = i as u32;
            let wire = Wire::Data { req, chunk, of };
            self.send_frame(fab, msg.dst, c.rail, wire, payload);
        }
        // The sender's buffer is free once the NIC engines have streamed
        // everything out; rail_eta right after submission is the exact
        // drain instant of the last chunk on each used rail.
        let done_at = plan
            .iter()
            .map(|c| fab.rail_eta(c.rail, now))
            .max()
            .expect("at least one chunk");
        fab.arm_timer(done_at, Timer::SendDrained { req: handle });
    }

    /// Flushes the flows under their pipeline windows: each iteration
    /// emits one wire packet (singleton or greedy aggregate up to
    /// `max_packet`) for a flow that has pooled messages and a free window
    /// slot. Every entry point changes one flow and then flushes to this
    /// fixed point, so at most one flow is ever eligible. While every
    /// pooled flow's window is full, submissions keep pooling — that
    /// queueing is precisely the aggregation opportunity of Fig. 1 — and
    /// the drain timer armed at each packet's exact NIC drain time
    /// re-flushes without waiting for the next poll (pack(n+1) overlaps
    /// send(n)).
    fn flush_sends(&mut self, now: u64, fab: &mut impl Fabric<R>) {
        while self.pooled > 0 {
            let w = self.cfg.pipeline_window;
            let pick = self
                .flows
                .iter()
                .position(|f| f.inflight < w && !f.pool.is_empty());
            let Some(dst) = pick else {
                self.stats.pipeline_stalls += 1;
                return;
            };
            // Pop one packet's worth of the flow, in submission order: a
            // singleton when aggregation is off, else everything that
            // fits under max_packet.
            let pool = &mut self.flows[dst].pool;
            let first = pool.pop_front().expect("picked as non-empty");
            let mut bytes = first.data.len();
            let mut batch = std::mem::take(&mut self.batch);
            batch.push(first);
            if self.cfg.aggregation {
                while let Some(m) = pool.front() {
                    if bytes + m.data.len() > self.cfg.max_packet {
                        break;
                    }
                    bytes += m.data.len();
                    batch.push(pool.pop_front().expect("peeked"));
                }
            }
            self.pooled -= batch.len();
            self.emit_eager_packet(now, fab, &mut batch);
            self.batch = batch;
        }
    }

    /// Emits one eager wire packet for `batch` (singleton or aggregate),
    /// charges the destination's in-flight window, and arms the drain
    /// timer at the packet's exact NIC drain time. Leaves `batch` empty.
    fn emit_eager_packet(&mut self, now: u64, fab: &mut impl Fabric<R>, batch: &mut Vec<Outgoing>) {
        let dst = batch[0].dst;
        let wire = if batch.len() == 1 {
            Wire::Eager {
                app_tag: batch[0].app_tag,
                size: batch[0].data.len() as u32,
            }
        } else {
            self.stats.aggregate_packets += 1;
            self.stats.aggregated_messages += batch.len() as u64;
            Wire::EagerAggregate {
                parts: batch
                    .iter()
                    .map(|p| EagerPart {
                        app_tag: p.app_tag,
                        size: p.data.len() as u32,
                    })
                    .collect(),
            }
        };
        // Zero-copy: the callers' buffers move into the frame.
        let mut payload = Rope::new();
        for p in batch.drain(..) {
            payload.push(p.data);
        }
        let rail = rails::pick_rail_in(fab, now);
        self.send_frame(fab, dst, rail, wire, payload);
        self.flows[dst].inflight += 1;
        // Per-packet eta, read after this packet's own transmit: the slot
        // frees exactly when *this* packet has left the NIC.
        fab.arm_timer(fab.rail_eta(rail, now), Timer::WindowDrained { dst });
    }

    /// Sends a pure control packet (header only, no payload bytes).
    fn send_wire(&mut self, fab: &mut impl Fabric<R>, dst: usize, rail: usize, wire: Wire) {
        self.send_frame(fab, dst, rail, wire, Rope::new());
    }

    /// Submits one wire frame: header segment + payload rope, chained
    /// without copying, charged for both — except an RDMA RTS's rope, a
    /// reference to the exposed buffer that does not ride the wire.
    fn send_frame(
        &mut self,
        fab: &mut impl Fabric<R>,
        dst: usize,
        rail: usize,
        wire: Wire,
        payload: Rope,
    ) {
        self.stats.packets_sent += 1;
        let billed = match wire {
            Wire::Rts { rdma: true, .. } => 0,
            _ => payload.len(),
        };
        let header = wire.encode();
        let size = billed + header.len();
        let mut frame = Rope::from(header);
        frame.append(payload);
        fab.transmit(dst, rail, size, frame);
    }
}
