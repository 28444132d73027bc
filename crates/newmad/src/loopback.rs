//! An in-memory medium for protocol cores: N [`Core`]s, the frames in
//! transit between them, their armed timers and a virtual clock.
//!
//! The medium is passive. Each core call ([`Loopback::isend`],
//! [`irecv`](Loopback::irecv), [`poll`](Loopback::poll)) runs with the
//! medium as its [`Fabric`], and its effects apply in call order:
//!
//! * a transmitted frame joins the FIFO of its (source, destination,
//!   rail) and waits there until the caller delivers it
//!   ([`deliver`](Loopback::deliver)) or takes it off the wire
//!   ([`take`](Loopback::take)) to cut, duplicate or drop it;
//! * an armed timer joins one queue ordered by `(instant, arming order)`
//!   and runs when the caller fires the earliest
//!   ([`fire_next`](Loopback::fire_next)), which moves the clock to its
//!   instant;
//! * a completion is recorded under the node that finished it
//!   ([`completions`](Loopback::completions)).
//!
//! Who polls, in what order frames are delivered and when timers fire is
//! the caller's choice; the medium holds no randomness.
//!
//! Each node's rails stream one byte per nanosecond, with nothing charged
//! per packet: [`RailView::rail_eta`] is the instant a rail's last frame
//! has left it, so the core spreads packets over the rails and arms its
//! drain timers when they have left. A pull costs its bytes too.

use crate::protocol::{Core, Fabric, Outgoing, Timer};
use crate::rails::RailView;
use crate::EngineConfig;
use bytes::Rope;
use std::collections::{BTreeMap, VecDeque};

/// N protocol cores wired to each other in memory (see the module docs).
pub struct Loopback<R> {
    cores: Vec<Core<R>>,
    net: Net<R>,
}

/// Everything of the medium but the cores, so that one core call can
/// borrow it as its fabric.
struct Net<R> {
    n_nodes: usize,
    n_rails: usize,
    /// The virtual clock, in nanoseconds.
    now: u64,
    /// Frames in transit, one FIFO per `(src, dst, rail)`.
    wires: Vec<VecDeque<Rope>>,
    /// The instant each `(node, rail)` has streamed everything it was
    /// given.
    busy: Vec<u64>,
    /// Armed timers by `(instant, arming order)`, each with the node that
    /// armed it.
    timers: BTreeMap<(u64, u64), (usize, Timer<R>)>,
    /// Timers armed so far: the tie-break of equal instants.
    armed: u64,
    /// Completions, by the node that finished them, in order.
    done: Vec<Vec<(R, Option<Rope>)>>,
}

/// The fabric of one core call: the medium as node `node` sees it.
struct Port<'a, R> {
    net: &'a mut Net<R>,
    node: usize,
}

impl<R> Net<R> {
    fn wire(&self, src: usize, dst: usize, rail: usize) -> usize {
        assert!(src < self.n_nodes && dst < self.n_nodes && rail < self.n_rails);
        (src * self.n_nodes + dst) * self.n_rails + rail
    }
}

impl<R> RailView for Port<'_, R> {
    fn n_rails(&self) -> usize {
        self.net.n_rails
    }
    fn rail_eta(&self, rail: usize, now: u64) -> u64 {
        self.net.busy[self.node * self.net.n_rails + rail].max(now)
    }
    fn tx_cost(&self, len: usize) -> u64 {
        len as u64
    }
    fn pull_cost(&self, size: usize) -> u64 {
        size as u64
    }
}

impl<R> Fabric<R> for Port<'_, R> {
    fn transmit(&mut self, dst: usize, rail: usize, size: usize, frame: Rope) {
        let eta = self.rail_eta(rail, self.net.now) + self.tx_cost(size);
        self.net.busy[self.node * self.net.n_rails + rail] = eta;
        let w = self.net.wire(self.node, dst, rail);
        self.net.wires[w].push_back(frame);
    }
    fn arm_timer(&mut self, at: u64, what: Timer<R>) {
        self.net
            .timers
            .insert((at, self.net.armed), (self.node, what));
        self.net.armed += 1;
    }
    fn complete(&mut self, req: R, payload: Option<Rope>) {
        self.net.done[self.node].push((req, payload));
    }
}

impl<R> Loopback<R> {
    /// `n_nodes` cores configured by `cfg`, each with `n_rails` idle rails,
    /// at instant 0.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` or `n_rails` is 0, or as [`Core::new`] does.
    pub fn new(n_nodes: usize, n_rails: usize, cfg: &EngineConfig) -> Self {
        assert!(n_nodes > 0 && n_rails > 0, "empty medium");
        Loopback {
            cores: (0..n_nodes).map(|_| Core::new(cfg.clone())).collect(),
            net: Net {
                n_nodes,
                n_rails,
                now: 0,
                wires: (0..n_nodes * n_nodes * n_rails)
                    .map(|_| VecDeque::new())
                    .collect(),
                busy: vec![0; n_nodes * n_rails],
                timers: BTreeMap::new(),
                armed: 0,
                done: (0..n_nodes).map(|_| Vec::new()).collect(),
            },
        }
    }

    /// Runs one call of `node`'s core with the medium as its fabric.
    fn call<T>(&mut self, node: usize, f: impl FnOnce(&mut Core<R>, u64, &mut Port<R>) -> T) -> T {
        let now = self.net.now;
        let mut port = Port {
            net: &mut self.net,
            node,
        };
        f(&mut self.cores[node], now, &mut port)
    }

    /// Moves the clock `ns` forward.
    pub fn advance(&mut self, ns: u64) {
        self.net.now += ns;
    }

    /// `node`'s core, for its statistics and tables.
    pub fn core(&self, node: usize) -> &Core<R> {
        &self.cores[node]
    }

    /// [`Core::isend`] on `node`.
    pub fn isend(&mut self, node: usize, msg: Outgoing, req: R) {
        self.call(node, |core, now, fab| core.isend(now, fab, msg, req));
    }

    /// [`Core::irecv`] on `node`.
    pub fn irecv(&mut self, node: usize, src: usize, app_tag: u64, req: R) {
        self.call(node, |core, now, fab| {
            core.irecv(now, fab, src, app_tag, req)
        });
    }

    /// [`Core::poll`] on `node`.
    pub fn poll(&mut self, node: usize) -> bool {
        self.call(node, |core, now, fab| core.poll(now, fab))
    }

    /// Takes the oldest frame in transit from `src` to `dst` on `rail` off
    /// the wire, undelivered.
    pub fn take(&mut self, src: usize, dst: usize, rail: usize) -> Option<Rope> {
        let w = self.net.wire(src, dst, rail);
        self.net.wires[w].pop_front()
    }

    /// Hands `frame` to `dst`'s receive queue as a frame from `src` (what a
    /// NIC does on arrival); the next [`poll`](Self::poll) of `dst`
    /// processes it.
    pub fn receive(&mut self, src: usize, dst: usize, frame: Rope) {
        self.cores[dst].on_frame(src, frame);
    }

    /// Delivers the oldest frame in transit from `src` to `dst` on `rail`;
    /// `false` if there is none.
    pub fn deliver(&mut self, src: usize, dst: usize, rail: usize) -> bool {
        let Some(frame) = self.take(src, dst, rail) else {
            return false;
        };
        self.receive(src, dst, frame);
        true
    }

    /// Fires the earliest armed timer (the first armed among equal
    /// instants), moving the clock to its instant if that is later;
    /// `false` if none is armed.
    pub fn fire_next(&mut self) -> bool {
        let Some(((at, _), (node, what))) = self.net.timers.pop_first() else {
            return false;
        };
        self.net.now = self.net.now.max(at);
        self.call(node, |core, now, fab| core.on_timer(now, fab, what));
        true
    }

    /// The requests `node` finished, in order, each with a receive's
    /// payload.
    pub fn completions(&self, node: usize) -> &[(R, Option<Rope>)] {
        &self.net.done[node]
    }

    /// `true` when no frame is in transit or waiting for a poll and no
    /// timer is armed.
    pub fn is_quiet(&self) -> bool {
        self.net.timers.is_empty()
            && self.net.wires.iter().all(VecDeque::is_empty)
            && self.cores.iter().all(|c| c.rx_backlog() == 0)
    }
}
