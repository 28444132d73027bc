//! The protocol core driven with no simulator: an in-memory [`Fabric`]
//! records every effect, and the test moves frames between two cores by
//! hand — rail by rail for the size ladder, and reordered across rails,
//! duplicated and mixed with garbage for the chaos proptest (a fabric the
//! in-order, lossless DES cannot express).
//!
//! Runs under Miri in CI (sizes and case counts shrink under `cfg(miri)`).

use bytes::{Bytes, Rope};
use newmadeleine::protocol::{Core, Fabric, Outgoing, PullId, Timer};
use newmadeleine::rails::RailView;
use newmadeleine::wire::{EagerPart, Wire};
use newmadeleine::EngineConfig;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Largest chaos message: past the stripe threshold either way.
const MAX_SIZE: usize = if cfg!(miri) { 48 << 10 } else { 128 << 10 };

/// Request handle of these tests: a bare integer.
type Req = usize;

/// One node's fabric: effects pile up until the test applies them.
#[derive(Default)]
struct Mem {
    /// Transmitted frames, one FIFO per rail.
    rails: [VecDeque<Rope>; 2],
    timers: VecDeque<Timer<Req>>,
    pulls: VecDeque<PullId>,
    done: Vec<(Req, Option<Rope>)>,
}

impl RailView for Mem {
    fn n_rails(&self) -> usize {
        self.rails.len()
    }
    fn rail_eta(&self, _rail: usize, now: u64) -> u64 {
        now
    }
    fn tx_cost(&self, len: usize) -> u64 {
        len as u64
    }
}

impl Fabric<Req> for Mem {
    fn transmit(&mut self, _dst: usize, rail: usize, _size: usize, frame: Rope) {
        self.rails[rail].push_back(frame);
    }
    fn rdma_read(&mut self, _target: usize, _rail: usize, _size: usize, id: PullId) {
        self.pulls.push_back(id);
    }
    fn arm_timer(&mut self, _at: u64, what: Timer<Req>) {
        self.timers.push_back(what);
    }
    fn complete(&mut self, req: Req, payload: Option<Rope>) {
        self.done.push((req, payload));
    }
}

/// Two nodes, each a core plus its fabric. Message `i` is send request
/// `2i` and receive request `2i + 1`, tagged `i`.
struct Pair {
    core: [Core<Req>; 2],
    fab: [Mem; 2],
    now: u64,
}

fn body(i: usize, size: usize) -> Bytes {
    Bytes::from((0..size).map(|k| (k * 31 + i) as u8).collect::<Vec<u8>>())
}

impl Pair {
    fn new(cfg: &EngineConfig) -> Self {
        Pair {
            core: [Core::new(cfg.clone()), Core::new(cfg.clone())],
            fab: Default::default(),
            now: 0,
        }
    }

    fn isend(&mut self, from: usize, i: usize, size: usize) {
        let msg = Outgoing {
            dst: 1 - from,
            app_tag: i as u64,
            size,
            data: Some(body(i, size)),
        };
        self.core[from].isend(self.now, &mut self.fab[from], msg, 2 * i);
    }

    fn irecv(&mut self, at: usize, i: usize) {
        self.core[at].irecv(self.now, &mut self.fab[at], 1 - at, i as u64, 2 * i + 1);
    }

    /// Applies one pending effect or poll of node `n`, chosen by `pick`;
    /// returns how many copies of a frame it delivered beyond the first.
    fn step(&mut self, n: usize, pick: u64, dup: bool) -> u64 {
        self.now += 1;
        let rail = (pick % 2) as usize;
        if pick % 5 < 2 {
            let Some(frame) = self.fab[1 - n].rails[rail].pop_front() else {
                return 0;
            };
            let control = !matches!(
                Wire::decode(&mut frame.clone()),
                Some(Wire::Eager { .. } | Wire::EagerAggregate { .. })
            );
            let copies = 1 + u64::from(dup && control);
            for _ in 0..copies {
                self.core[n].on_frame(1 - n, frame.clone());
            }
            return copies - 1;
        }
        let (core, fab) = (&mut self.core[n], &mut self.fab[n]);
        match pick % 5 {
            2 if !fab.timers.is_empty() => {
                let what = fab.timers.pop_front().expect("checked");
                core.on_timer(self.now, fab, what);
            }
            3 if !fab.pulls.is_empty() => {
                let id = fab.pulls.pop_front().expect("checked");
                core.on_rdma_done(fab, id);
            }
            _ => {
                core.poll(self.now, fab);
            }
        }
        0
    }

    fn quiet(&self) -> bool {
        (0..2).all(|n| {
            let f = &self.fab[n];
            f.rails.iter().all(VecDeque::is_empty)
                && f.timers.is_empty()
                && f.pulls.is_empty()
                && self.core[n].rx_backlog() == 0
        })
    }

    /// Every request finished exactly once; receives carry the sent bytes.
    fn check(&self, msgs: &[(usize, usize)]) {
        let mut seen = vec![0u32; 2 * msgs.len()];
        for n in 0..2 {
            for (req, payload) in &self.fab[n].done {
                seen[*req] += 1;
                let (i, recv) = (req / 2, req % 2 == 1);
                let (from, size) = msgs[i];
                assert_eq!(n, if recv { 1 - from } else { from });
                if recv {
                    let got = payload.as_ref().expect("payload attached").to_vec();
                    assert_eq!(got.len(), size, "message {i}");
                    assert!(got == body(i, size).to_vec(), "message {i}");
                }
            }
            assert_eq!(self.core[n].stats().payload_bytes_copied, 0);
        }
        assert!(seen.iter().all(|&c| c == 1), "completions: {seen:?}");
    }
}

#[test]
fn core_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Core<Req>>();
}

#[test]
fn size_ladder_round_trips() {
    let top = if cfg!(miri) { 128 << 10 } else { 1 << 20 };
    let msgs: Vec<(usize, usize)> = [64, 4 << 10, 64 << 10, top].map(|s| (0, s)).into();
    for cfg in [EngineConfig::newmadeleine(), EngineConfig::baseline_mpi()] {
        let mut p = Pair::new(&cfg);
        for (i, &(from, size)) in msgs.iter().enumerate() {
            p.irecv(1 - from, i);
            p.isend(from, i, size);
        }
        while !p.quiet() {
            for pick in 0..10 {
                p.step((pick / 5) as usize, pick, false);
            }
        }
        p.check(&msgs);
        for n in 0..2 {
            assert_eq!(p.core[n].stats().stale_control_packets, 0);
        }
    }
}

/// An eager body that is neither empty (size-only frame) nor as long as
/// the header announces is a counted drop: it matches no receive.
#[test]
fn length_mismatched_eager_frames_are_counted_drops() {
    let single = Wire::Eager {
        app_tag: 0,
        size: 8,
    };
    let aggregate = Wire::EagerAggregate {
        parts: [0, 1].map(|app_tag| EagerPart { app_tag, size: 4 }).into(),
    };
    for (wire, n_msgs) in [(single, 1), (aggregate, 2)] {
        let mut p = Pair::new(&EngineConfig::newmadeleine());
        let frame = |body: usize| {
            let mut f = Rope::from(wire.encode());
            f.push(Bytes::from(vec![0xAB; body]));
            f
        };
        for i in 0..n_msgs {
            p.irecv(1, i);
        }
        for (k, bad) in [1, 7, 9, 64].into_iter().enumerate() {
            p.core[1].on_frame(0, frame(bad));
            p.core[1].poll(0, &mut p.fab[1]);
            assert!(p.fab[1].done.is_empty(), "{wire:?} with a {bad}-byte body");
            assert_eq!(p.core[1].stats().undecodable_packets, k as u64 + 1);
        }
        // The receives are still posted: a whole frame completes them with
        // its bytes, a size-only one (posted again) without.
        p.core[1].on_frame(0, frame(8));
        p.core[1].poll(0, &mut p.fab[1]);
        let got: Vec<usize> = p.fab[1]
            .done
            .iter()
            .map(|(_, b)| b.as_ref().map_or(0, Rope::len))
            .collect();
        assert_eq!(got, vec![8 / n_msgs; n_msgs]);
        for i in 0..n_msgs {
            p.irecv(1, i);
        }
        p.core[1].on_frame(0, frame(0));
        p.core[1].poll(0, &mut p.fab[1]);
        assert_eq!(p.fab[1].done.len(), 2 * n_msgs);
        assert!(p.fab[1].done[n_msgs..].iter().all(|(_, b)| b.is_none()));
        assert_eq!(p.core[1].stats().undecodable_packets, 4);
    }
}

/// Fabric of the flush-order oracle: one idle rail; every packet is logged
/// as `(dst, [(app_tag, size)])` and its drain timer kept for the test to
/// fire.
#[derive(Default)]
struct Log {
    sent: Vec<(usize, Vec<(u64, u32)>)>,
    timers: Vec<Timer<Req>>,
}

impl RailView for Log {
    fn n_rails(&self) -> usize {
        1
    }
    fn rail_eta(&self, _rail: usize, now: u64) -> u64 {
        now
    }
    fn tx_cost(&self, len: usize) -> u64 {
        len as u64
    }
}

impl Fabric<Req> for Log {
    fn transmit(&mut self, dst: usize, _rail: usize, size: usize, mut frame: Rope) {
        let wire = Wire::decode(&mut frame).expect("own header");
        let header = wire.header_len();
        let parts: Vec<(u64, u32)> = match wire {
            Wire::Eager { app_tag, size } => vec![(app_tag, size)],
            Wire::EagerAggregate { parts } => parts.iter().map(|p| (p.app_tag, p.size)).collect(),
            other => panic!("not an eager packet: {other:?}"),
        };
        // Data-carrying and size-only messages never share a packet.
        let announced: usize = parts.iter().map(|p| p.1 as usize).sum();
        assert!(frame.is_empty() || frame.len() == announced);
        assert_eq!(size, header + announced, "charged for header and payload");
        self.sent.push((dst, parts));
    }
    fn rdma_read(&mut self, _target: usize, _rail: usize, _size: usize, _id: PullId) {
        unreachable!("eager traffic only");
    }
    fn arm_timer(&mut self, _at: u64, what: Timer<Req>) {
        self.timers.push(what);
    }
    fn complete(&mut self, _req: Req, _payload: Option<Rope>) {}
}

/// The flush rule written the slow, obvious way: one post-ordered pool;
/// the first pooled message whose destination has a free window slot
/// leaves, with everything behind it for that destination that fits.
struct Model {
    window: usize,
    aggregation: bool,
    max_packet: usize,
    /// `(dst, app_tag, size, carries data)`.
    pool: Vec<(usize, u64, u32, bool)>,
    inflight: [usize; DSTS],
    sent: Vec<(usize, Vec<(u64, u32)>)>,
    stalls: u64,
}

impl Model {
    fn flush(&mut self) {
        while let Some(i) = self
            .pool
            .iter()
            .position(|m| self.inflight[m.0] < self.window)
        {
            let (dst, tag, size, data) = self.pool.remove(i);
            let (mut parts, mut bytes, mut j) = (vec![(tag, size)], size as usize, i);
            while self.aggregation && j < self.pool.len() {
                let m = self.pool[j];
                if m.0 != dst {
                    j += 1;
                } else if m.3 != data || bytes + m.2 as usize > self.max_packet {
                    break;
                } else {
                    bytes += m.2 as usize;
                    parts.push((m.1, m.2));
                    self.pool.remove(j);
                }
            }
            self.inflight[dst] += 1;
            self.sent.push((dst, parts));
        }
        self.stalls += u64::from(!self.pool.is_empty());
    }
}

/// Destinations of the flush-order oracle.
const DSTS: usize = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

    /// Interleaved eager sends to several destinations, drain timers fired
    /// in any order, polls in between: the packets leave in exactly the
    /// order, and with exactly the contents and stall count, of the
    /// single-pool reference rule. (Every entry point touches one flow and
    /// then flushes until each pooled flow's window is full, so no two
    /// flows ever compete for one pick through this API: what this pins is
    /// which flow leaves when, how a batch is cut, and when a stall counts.)
    #[test]
    fn flush_order_matches_the_single_pool_rule(
        window in 1usize..=3,
        aggregation in any::<bool>(),
        ops in proptest::collection::vec((0u8..8, 0usize..DSTS, 0usize..6, any::<bool>(), any::<u64>()), 1..96),
    ) {
        // Sums of a few of these pass max_packet; the largest does alone.
        const SIZES: [usize; 6] = [0, 64, 700, 1500, 4000, 5000];
        let cfg = EngineConfig {
            pipeline_window: window,
            aggregation,
            max_packet: 4096,
            ..EngineConfig::newmadeleine()
        };
        let mut model = Model {
            window,
            aggregation,
            max_packet: cfg.max_packet,
            pool: Vec::new(),
            inflight: [0; DSTS],
            sent: Vec::new(),
            stalls: 0,
        };
        let (mut core, mut fab) = (Core::<Req>::new(cfg), Log::default());
        let fire = |core: &mut Core<Req>, fab: &mut Log, model: &mut Model, pick: u64| {
            let what = fab.timers.swap_remove(pick as usize % fab.timers.len());
            let Timer::WindowDrained { dst } = what else {
                panic!("eager traffic arms window timers only");
            };
            model.inflight[dst] -= 1;
            core.on_timer(0, fab, what);
        };
        for (tag, (op, dst, size, with_data, pick)) in ops.into_iter().enumerate() {
            match op {
                0 | 1 if !fab.timers.is_empty() => fire(&mut core, &mut fab, &mut model, pick),
                2 => {
                    core.poll(0, &mut fab);
                }
                _ => {
                    let size = SIZES[size];
                    let data = with_data.then(|| Bytes::from(vec![tag as u8; size]));
                    model.pool.push((dst, tag as u64, size as u32, with_data));
                    let msg = Outgoing { dst, app_tag: tag as u64, size, data };
                    core.isend(0, &mut fab, msg, tag);
                }
            }
            model.flush();
            prop_assert_eq!(core.stats().pipeline_stalls, model.stalls);
            prop_assert_eq!(&fab.sent, &model.sent);
        }
        while !fab.timers.is_empty() {
            fire(&mut core, &mut fab, &mut model, 0);
            model.flush();
        }
        prop_assert!(model.pool.is_empty(), "every window drained, nothing left pooled");
        prop_assert_eq!(core.stats().pipeline_stalls, model.stalls);
        prop_assert_eq!(&fab.sent, &model.sent);
        prop_assert_eq!(core.stats().packets_sent, model.sent.len() as u64);
    }

    /// Frames reordered across rails, control frames (RTS included)
    /// delivered twice, garbage in between, receives posted before or
    /// after the message arrives: every request still finishes exactly
    /// once with the right bytes and every bad frame is a counted drop.
    #[test]
    fn chaos_fabric_delivers_exactly_once(
        sizes in proptest::collection::vec((any::<bool>(), 1usize..MAX_SIZE), 1..8),
        rdma in any::<bool>(),
        seed in 1u64..u64::MAX,
    ) {
        let mut seed = seed;
        let msgs: Vec<(usize, usize)> = sizes.iter().map(|&(b, s)| (usize::from(b), s)).collect();
        let mut cfg = EngineConfig::newmadeleine();
        cfg.rdma_rendezvous = rdma;
        let mut p = Pair::new(&cfg);
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        // Sends and receives of all messages, issued in a random order.
        let mut ops: Vec<usize> = (0..2 * msgs.len()).collect();
        let (mut dups, mut garbage) = ([0u64; 2], [0u64; 2]);
        let mut steps = 0u32;
        while !(ops.is_empty() && p.quiet()) {
            steps += 1;
            prop_assert!(steps < 1_000_000, "no quiescence");
            let (r, n) = (rng(), (rng() % 2) as usize);
            match r % 16 {
                0 | 1 if !ops.is_empty() => {
                    let op = ops.swap_remove((r >> 8) as usize % ops.len());
                    let (from, size) = msgs[op / 2];
                    if op % 2 == 1 {
                        p.irecv(1 - from, op / 2);
                    } else {
                        p.isend(from, op / 2, size);
                    }
                }
                2 => {
                    p.core[n].on_frame(1 - n, Rope::from(Bytes::from(vec![0xFF; 8])));
                    garbage[n] += 1;
                }
                _ => dups[n] += p.step(n, r >> 8, r % 16 < 6),
            }
        }
        p.check(&msgs);
        for n in 0..2 {
            let st = p.core[n].stats();
            prop_assert_eq!(st.stale_control_packets, dups[n]);
            prop_assert_eq!(st.undecodable_packets, garbage[n]);
        }
    }
}
