//! The protocol core driven with no simulator: two cores on the in-memory
//! [`Loopback`] medium, whose frames the test moves — rail by rail for the
//! size ladder, and reordered across rails, duplicated, mixed with garbage
//! and with frame bodies cut for the chaos proptests (a fabric the
//! in-order, lossless DES cannot express).
//!
//! Runs under Miri in CI (sizes and case counts shrink under `cfg(miri)`).

use bytes::{Bytes, Rope};
use newmadeleine::loopback::Loopback;
use newmadeleine::protocol::{Core, Fabric, Outgoing, Timer};
use newmadeleine::rails::RailView;
use newmadeleine::wire::{EagerPart, Wire};
use newmadeleine::EngineConfig;
use proptest::prelude::*;
use std::collections::HashMap;

/// Largest chaos message: past the stripe threshold either way.
const MAX_SIZE: usize = if cfg!(miri) { 48 << 10 } else { 128 << 10 };

/// Request handle of these tests: a bare integer.
type Req = usize;

/// Two nodes on the loopback medium, and what the test knows of the
/// messages between them. Message `i` is send request `2i` and receive
/// request `2i + 1`, tagged `i`.
struct Chaos {
    lb: Loopback<Req>,
    /// The buffer each message was sent from, by message index.
    sent: Vec<Option<Bytes>>,
    /// Messages one of whose frames arrived with its body cut.
    cut: Vec<bool>,
    /// Frames that arrived at each node with their body cut.
    cut_frames: [u64; 2],
    /// The message of each rendezvous, by (sender, sender-side id).
    rndv: HashMap<(usize, u32), usize>,
    /// Aggregate frames delivered whole, and delivered cut.
    aggregates: [u64; 2],
}

/// How a chaos step corrupts the body of the frame it delivers.
#[derive(Debug, Clone, Copy)]
enum Cut {
    /// Drop the body's last bytes, this many or all.
    Truncate(usize),
    /// Append this many bytes.
    Pad(usize),
    /// Drop the whole body.
    Empty,
}

impl Cut {
    /// `frame` with its body cut: its length always changes, so a body
    /// that is empty already is padded by one byte instead.
    fn apply(self, frame: &Rope) -> Rope {
        let mut body = frame.clone();
        let wire = Wire::decode(&mut body).expect("the core sends canonical frames");
        let len = body.len();
        let mut out = Rope::from(wire.encode());
        match self {
            Cut::Truncate(k) if len > 0 => out.append(body.split_to(len - k.min(len))),
            Cut::Empty if len > 0 => {}
            Cut::Truncate(_) | Cut::Empty => out.push(Bytes::from(vec![0x5A])),
            Cut::Pad(k) => {
                out.append(body);
                out.push(Bytes::from(vec![0x5A; k]));
            }
        }
        out
    }
}

fn body(i: usize, size: usize) -> Bytes {
    Bytes::from((0..size).map(|k| (k * 31 + i) as u8).collect::<Vec<u8>>())
}

impl Chaos {
    fn new(cfg: &EngineConfig) -> Self {
        Chaos {
            lb: Loopback::new(2, 2, cfg),
            sent: Vec::new(),
            cut: Vec::new(),
            cut_frames: [0; 2],
            rndv: HashMap::new(),
            aggregates: [0; 2],
        }
    }

    fn isend(&mut self, from: usize, i: usize, size: usize) {
        let data = body(i, size);
        if self.sent.len() <= i {
            self.sent.resize(i + 1, None);
            self.cut.resize(i + 1, false);
        }
        self.sent[i] = Some(data.clone());
        let msg = Outgoing {
            dst: 1 - from,
            app_tag: i as u64,
            data,
        };
        self.lb.isend(from, msg, 2 * i);
    }

    fn irecv(&mut self, at: usize, i: usize) {
        self.lb.irecv(at, 1 - at, i as u64, 2 * i + 1);
    }

    /// The messages whose bytes or rendezvous `wire`, arriving at node
    /// `n`, carries; an RTS records its rendezvous.
    fn messages_of(&mut self, n: usize, wire: &Wire) -> Vec<usize> {
        match *wire {
            Wire::Eager { app_tag, .. } => vec![app_tag as usize],
            Wire::EagerAggregate { ref parts } => {
                parts.iter().map(|p| p.app_tag as usize).collect()
            }
            Wire::Rts { req, app_tag, .. } => {
                self.rndv.insert((1 - n, req), app_tag as usize);
                vec![app_tag as usize]
            }
            Wire::Data { req, .. } => vec![self.rndv[&(1 - n, req)]],
            Wire::Cts { req } | Wire::Fin { req } => vec![self.rndv[&(n, req)]],
        }
    }

    /// One step at node `n`, chosen by `pick`: deliver a frame to it,
    /// fire the earliest timer, or poll it. Returns how many copies of a
    /// frame it delivered beyond the first. A delivered frame gets its
    /// body cut by `cut` unless one of its messages already had a frame
    /// cut; a cut frame is delivered once.
    fn step(&mut self, n: usize, pick: u64, dup: bool, cut: Option<Cut>) -> u64 {
        self.lb.advance(1);
        let rail = (pick % 2) as usize;
        if pick % 5 < 2 {
            let Some(frame) = self.lb.take(1 - n, n, rail) else {
                return 0;
            };
            let wire = Wire::decode(&mut frame.clone()).expect("the core sends canonical frames");
            let msgs = self.messages_of(n, &wire);
            let cut = cut.filter(|_| msgs.iter().all(|&i| !self.cut[i]));
            if let Wire::EagerAggregate { .. } = wire {
                self.aggregates[usize::from(cut.is_some())] += 1;
            }
            if let Some(cut) = cut {
                for i in msgs {
                    self.cut[i] = true;
                }
                self.cut_frames[n] += 1;
                self.lb.receive(1 - n, n, cut.apply(&frame));
                return 0;
            }
            let control = !matches!(wire, Wire::Eager { .. } | Wire::EagerAggregate { .. });
            let copies = 1 + u64::from(dup && control);
            for _ in 0..copies {
                self.lb.receive(1 - n, n, frame.clone());
            }
            return copies - 1;
        }
        if !(matches!(pick % 5, 2 | 3) && self.lb.fire_next()) {
            self.lb.poll(n);
        }
        0
    }

    /// Every request of a message with no cut frame finished exactly once,
    /// and none finished twice; receives carry the sent bytes, moved:
    /// every received segment lies inside the sender's buffer.
    fn check(&self, msgs: &[(usize, usize)]) {
        let mut seen = vec![0u32; 2 * msgs.len()];
        for n in 0..2 {
            for (req, payload) in self.lb.completions(n) {
                seen[*req] += 1;
                let (i, recv) = (req / 2, req % 2 == 1);
                let (from, size) = msgs[i];
                assert_eq!(n, if recv { 1 - from } else { from });
                if recv {
                    let payload = payload.as_ref().expect("payload attached");
                    let got = payload.to_vec();
                    assert_eq!(got.len(), size, "message {i}");
                    assert!(got == body(i, size).to_vec(), "message {i}");
                    let src = self.sent[i].as_ref().expect("sent").as_ptr_range();
                    for seg in payload.segments() {
                        let s = seg.as_ptr_range();
                        assert!(
                            src.start <= s.start && s.end <= src.end,
                            "message {i}: a segment was copied"
                        );
                    }
                }
            }
        }
        for (req, &c) in seen.iter().enumerate() {
            let cut = self.cut.get(req / 2) == Some(&true);
            assert!(c == 1 || (cut && c == 0), "completions: {seen:?}");
        }
    }
}

#[test]
fn core_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Core<Req>>();
}

/// The medium moves to other threads with its cores.
#[test]
fn loopback_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Loopback<Req>>();
}

#[test]
fn size_ladder_round_trips() {
    let top = if cfg!(miri) { 128 << 10 } else { 1 << 20 };
    let msgs: Vec<(usize, usize)> = [64, 4 << 10, 64 << 10, top].map(|s| (0, s)).into();
    for cfg in [EngineConfig::newmadeleine(), EngineConfig::baseline_mpi()] {
        let mut p = Chaos::new(&cfg);
        for (i, &(from, size)) in msgs.iter().enumerate() {
            p.irecv(1 - from, i);
            p.isend(from, i, size);
        }
        while !p.lb.is_quiet() {
            for pick in 0..10 {
                p.step((pick / 5) as usize, pick, false, None);
            }
        }
        p.check(&msgs);
        for n in 0..2 {
            assert_eq!(p.lb.core(n).stats().stale_control_packets, 0);
        }
    }
}

/// An eager or aggregate body that is not exactly as long as its header
/// announces — an empty one included — is a counted drop: it completes
/// nothing and leaves the receives posted.
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
        let mut lb = Loopback::<Req>::new(2, 1, &EngineConfig::newmadeleine());
        let frame = |body: usize| {
            let mut f = Rope::from(wire.encode());
            f.push(Bytes::from(vec![0xAB; body]));
            f
        };
        for i in 0..n_msgs {
            lb.irecv(1, 0, i as u64, i);
        }
        for (k, bad) in [0, 1, 7, 9, 64].into_iter().enumerate() {
            lb.receive(0, 1, frame(bad));
            lb.poll(1);
            assert!(
                lb.completions(1).is_empty(),
                "{wire:?} with a {bad}-byte body"
            );
            assert_eq!(lb.core(1).stats().undecodable_packets, k as u64 + 1);
        }
        // The receives are still posted: a whole frame completes them with
        // its bytes.
        lb.receive(0, 1, frame(8));
        lb.poll(1);
        let got: Vec<usize> = lb
            .completions(1)
            .iter()
            .map(|(_, b)| b.as_ref().map_or(0, Rope::len))
            .collect();
        assert_eq!(got, vec![8 / n_msgs; n_msgs]);
        assert_eq!(lb.core(1).stats().undecodable_packets, 5);
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
    fn pull_cost(&self, size: usize) -> u64 {
        size as u64
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
        let announced: usize = parts.iter().map(|p| p.1 as usize).sum();
        assert_eq!(frame.len(), announced, "the body is every part's bytes");
        assert_eq!(size, header + announced, "charged for header and payload");
        self.sent.push((dst, parts));
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
    /// `(dst, app_tag, size)`.
    pool: Vec<(usize, u64, u32)>,
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
            let (dst, tag, size) = self.pool.remove(i);
            let (mut parts, mut bytes, mut j) = (vec![(tag, size)], size as usize, i);
            while self.aggregation && j < self.pool.len() {
                let m = self.pool[j];
                if m.0 != dst {
                    j += 1;
                } else if bytes + m.2 as usize > self.max_packet {
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

/// Largest cut of a frame body, in bytes.
const MAX_CUT: usize = 16;

/// Longest run of sends a chaos step issues from one node.
const RUN: u64 = 8;

/// What a chaos run did to the frames it moved.
struct Tally {
    /// Aggregate frames delivered whole, and delivered cut.
    aggregates: [u64; 2],
    /// Control frames delivered twice.
    dups: u64,
}

/// Drives a chaos run: `sizes`' messages, `(from node 1, size)`, sent and
/// received in a random order over a fabric that reorders frames across
/// rails, delivers control frames (RTS included) twice and mixes garbage
/// in. Sends go out in runs from one node, so its window fills and the
/// sends it pools leave as an aggregate. With `cuts`, about one delivery in
/// four also cuts its frame's body (see [`Chaos::step`]). Every request of a
/// message with no cut frame finishes exactly once, every receive with the
/// sent bytes, and every bad frame is a counted drop.
fn chaos(sizes: &[(bool, usize)], rdma: bool, mut seed: u64, cuts: bool) -> Tally {
    let msgs: Vec<(usize, usize)> = sizes.iter().map(|&(b, s)| (usize::from(b), s)).collect();
    let mut cfg = EngineConfig::newmadeleine();
    cfg.rdma_rendezvous = rdma;
    let mut p = Chaos::new(&cfg);
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
    while !(ops.is_empty() && p.lb.is_quiet()) {
        steps += 1;
        assert!(steps < 1_000_000, "no quiescence");
        let (r, n) = (rng(), (rng() % 2) as usize);
        match r % 16 {
            0 | 1 if !ops.is_empty() => {
                let op = ops.swap_remove((r >> 8) as usize % ops.len());
                let (from, size) = msgs[op / 2];
                if op % 2 == 1 {
                    p.irecv(1 - from, op / 2);
                    continue;
                }
                p.isend(from, op / 2, size);
                for _ in 0..(r >> 4) % RUN {
                    let more = ops
                        .iter()
                        .position(|&o| o % 2 == 0 && msgs[o / 2].0 == from);
                    let Some(k) = more else { break };
                    let op = ops.swap_remove(k);
                    p.isend(from, op / 2, msgs[op / 2].1);
                }
            }
            2 => {
                p.lb.receive(1 - n, n, Rope::from(Bytes::from(vec![0xFF; 8])));
                garbage[n] += 1;
            }
            _ => {
                let cut = cuts.then(&mut rng).and_then(|c| {
                    let k = 1 + (c >> 8) as usize % MAX_CUT;
                    [Cut::Truncate(k), Cut::Pad(k), Cut::Empty]
                        .get((c % 12) as usize)
                        .copied()
                });
                dups[n] += p.step(n, r >> 8, r % 16 < 6, cut);
            }
        }
    }
    p.check(&msgs);
    for n in 0..2 {
        let st = p.lb.core(n).stats();
        if !cuts {
            assert_eq!(st.stale_control_packets, dups[n]);
            assert_eq!(st.undecodable_packets, garbage[n]);
            continue;
        }
        // A cut frame is dropped where it is processed, or, for a DATA
        // chunk, where its transfer is reassembled.
        assert!(st.stale_control_packets >= dups[n]);
        assert!(st.undecodable_packets >= garbage[n]);
        let drops = st.stale_control_packets - dups[n] + st.undecodable_packets - garbage[n];
        assert!(
            drops >= p.cut_frames[n],
            "node {n}: {} cut frames, {drops} drops",
            p.cut_frames[n]
        );
    }
    Tally {
        aggregates: p.aggregates,
        dups: dups.iter().sum(),
    }
}

/// A fixed chaos run that exercises the aggregate path: a run of small
/// sends fills a window, and the frames that leave aggregated are
/// delivered whole and cut. Eager frames carry no sequence number (a
/// second copy would be a second message), so the fabric duplicates
/// control frames only; the run duplicates some of those.
#[test]
fn chaos_delivers_and_cuts_aggregates() {
    // Two of the twelve go by rendezvous, for control frames to duplicate.
    let sizes: Vec<(bool, usize)> = (0..12)
        .map(|i| (i % 3 == 0, if i % 6 == 5 { 20_000 } else { 64 + 97 * i }))
        .collect();
    let tally = chaos(&sizes, false, 13, true);
    assert!(tally.aggregates[0] >= 1, "no aggregate delivered whole");
    assert!(tally.aggregates[1] >= 1, "no aggregate cut");
    assert!(tally.dups >= 1, "no control frame duplicated");
}

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
        ops in proptest::collection::vec((0u8..8, 0usize..DSTS, 0usize..6, any::<u64>()), 1..96),
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
        for (tag, (op, dst, size, pick)) in ops.into_iter().enumerate() {
            match op {
                0 | 1 if !fab.timers.is_empty() => fire(&mut core, &mut fab, &mut model, pick),
                2 => {
                    core.poll(0, &mut fab);
                }
                _ => {
                    let size = SIZES[size];
                    let data = Bytes::from(vec![tag as u8; size]);
                    model.pool.push((dst, tag as u64, size as u32));
                    let msg = Outgoing { dst, app_tag: tag as u64, data };
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
        chaos(&sizes, rdma, seed, false);
    }

    /// The same chaos with at most one frame per message cut: truncated,
    /// padded or emptied. No receive completes with other bytes than the
    /// sent ones, every message with no cut frame completes exactly once,
    /// and every cut frame is a counted drop. Over half the messages are
    /// eager and there are more of them, so eager frames get cut too.
    #[test]
    fn chaos_fabric_drops_cut_bodies(
        sizes in proptest::collection::vec(
            (any::<bool>(), prop_oneof![1usize..4096, 1usize..MAX_SIZE]),
            1..16,
        ),
        rdma in any::<bool>(),
        seed in 1u64..u64::MAX,
    ) {
        chaos(&sizes, rdma, seed, true);
    }
}
