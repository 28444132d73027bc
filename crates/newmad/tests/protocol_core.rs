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
use newmadeleine::wire::Wire;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

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
