//! `engine_stream` — the `newmad` message path in host time.
//!
//! One request is a round: node 1 posts 64 `irecv`s, node 0 `isend_bytes`
//! 64 messages (per 16: 10 × 64 B, 3 × 4 KiB, 2 × 64 KiB, 1 × 1 MiB, in a
//! seeded order) on a 2-node × 2-rail InfiniBand `Network`; progress is
//! event-driven (`sim.step()`, then `poll` whichever engine has
//! `rx_backlog() > 0`) until the simulation is quiescent; the receiver then
//! takes every payload. This is the only place `newmad` + `piom_net` +
//! `piom_des` + `bytes` run: eager aggregation, wire codec, `posted`
//! matching, rendezvous, striping, rope reassembly. No `pioman` code runs,
//! so scheduler changes must leave it flat. Polling is event-driven on
//! purpose: polling every simulated microsecond made 29 empty polls per
//! message and buried the message path. One thread; all times are host
//! time, simulated time only feeds the exact-per-seed checksum.

use super::{span, Outcome, Verdict, Workload};
use crate::stats::{SplitMix64, Window};
use crate::trace::{Tracer, NO_SPAN};
use bytes::{Bytes, Rope};
use newmadeleine::{CommEngine, EngineConfig, EngineStats, ReqHandle};
use piom_des::Sim;
use piom_net::{NetParams, Network};
use std::rc::Rc;
use std::time::Instant;

const MSGS: usize = 64;
/// Message sizes by class; a group of 16 holds 10, 3, 2 and 1 of them.
const SIZES: [usize; 4] = [64, 4 << 10, 64 << 10, 1 << 20];
const PER_GROUP: [usize; 4] = [10, 3, 2, 1];
/// Distinct seeded round plans, cycled.
const PLANS: usize = 8;
/// Warm-up rounds: a fixed count, so the counters taken over them repeat
/// exactly for a seed however fast the host is.
const WARMUP_ROUNDS: u64 = 1024;
/// A round that has not quiesced after this many events is lost.
const MAX_STEPS: u32 = 1 << 20;

/// Counters over the fixed warm-up prefix: exact per seed.
#[derive(Clone, Copy, Default)]
struct Exact {
    packets_per_msg: f64,
    aggregation_ratio: f64,
    chunks_per_rndv: f64,
    pipeline_stalls_per_msg: f64,
    payload_bytes_copied: f64,
    events_per_msg: f64,
    /// FNV-1a over every receive's simulated completion time, folded to 48
    /// bits so it is exact in an `f64`.
    sim_checksum: f64,
}

pub struct EngineStream {
    sim: Sim,
    tx: CommEngine,
    rx: CommEngine,
    bufs: [Bytes; 4],
    plans: Vec<[u8; MSGS]>,
    recvs: Vec<ReqHandle>,
    sends: Vec<ReqHandle>,
    payloads: Vec<Option<Rope>>,
    rounds: u64,
    failed: u64,
    checksum: u64,
    exact: Exact,
}

fn sum(a: EngineStats, b: EngineStats, f: fn(&EngineStats) -> u64) -> f64 {
    (f(&a) + f(&b)) as f64
}

impl EngineStream {
    /// One request. `verify_bytes` forces the byte-for-byte payload compare
    /// (warm-up); the window takes the pointer-identity fast path first.
    fn round(&mut self, tracer: Option<&'static Tracer>, verify_bytes: bool) -> (Instant, Instant) {
        let plan = self.plans[self.rounds as usize % PLANS];
        let tag0 = self.rounds * MSGS as u64;
        let req = self.rounds;
        let root = tracer.map_or(NO_SPAN, Tracer::reserve);
        // Each traced call ends where the next begins: one clock read per
        // call. Untraced, `edge` is never read again.
        let t0 = Instant::now();
        let mut edge = t0;
        let mut mark = |name: usize| {
            if let Some(tr) = tracer {
                let now = Instant::now();
                tr.span(name, req, root, edge, now);
                edge = now;
            }
        };
        self.recvs.clear();
        self.sends.clear();
        for i in 0..MSGS as u64 {
            self.recvs.push(self.rx.irecv(&mut self.sim, 0, tag0 + i));
            mark(span::IRECV);
        }
        for (i, &class) in plan.iter().enumerate() {
            let data = self.bufs[usize::from(class)].clone();
            self.sends
                .push(self.tx.isend_bytes(&mut self.sim, 1, tag0 + i as u64, data));
            mark(span::ISEND_SIZE + usize::from(class));
        }
        let mut steps = 0u32;
        while steps < MAX_STEPS && self.sim.step() {
            steps += 1;
            mark(span::STEP);
            if self.rx.rx_backlog() > 0 {
                self.rx.poll(&mut self.sim);
                mark(span::POLL);
            }
            if self.tx.rx_backlog() > 0 {
                self.tx.poll(&mut self.sim);
                mark(span::POLL);
            }
        }
        // The receiver takes its data: part of what a caller waits for.
        self.payloads.clear();
        self.payloads
            .extend(self.recvs.iter().map(ReqHandle::payload));
        mark(span::PAYLOAD);
        let t1 = Instant::now();
        if let Some(tr) = tracer {
            tr.fill(root, span::REQUEST, req, NO_SPAN, t0, t1);
        }

        // Verification, outside the request but inside the window.
        let mut ok = steps < MAX_STEPS && self.sends.iter().all(ReqHandle::is_complete);
        for ((recv, got), &class) in self.recvs.iter().zip(&self.payloads).zip(&plan) {
            let Some(at) = recv.completed_at() else {
                ok = false;
                continue;
            };
            self.checksum = (self.checksum ^ at.as_ns()).wrapping_mul(0x0000_0100_0000_01B3);
            let sent = &self.bufs[usize::from(class)];
            ok &= got
                .as_ref()
                .is_some_and(|rope| same_bytes(rope, sent, verify_bytes));
        }
        self.rounds += 1;
        self.failed += u64::from(!ok);
        (t0, t1)
    }
}

/// `true` when `got` holds exactly the bytes of `sent`. A segment that *is*
/// the matching window of the sent buffer (zero-copy delivery) is equal by
/// identity; anything else — or everything, when `force` is set — is
/// compared byte for byte, so an engine that starts copying stays correct
/// here and merely gets slower.
fn same_bytes(got: &Rope, sent: &Bytes, force: bool) -> bool {
    if got.len() != sent.len() {
        return false;
    }
    let mut offset = 0;
    got.segments().all(|seg| {
        let window = &sent[offset..offset + seg.len()];
        offset += seg.len();
        (!force && std::ptr::eq(seg.as_ptr(), window.as_ptr())) || seg[..] == *window
    })
}

impl Workload for EngineStream {
    fn setup(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let bufs = SIZES.map(|len| {
            let words = len.div_ceil(8);
            let mut bytes = Vec::with_capacity(words * 8);
            for _ in 0..words {
                bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            bytes.truncate(len);
            Bytes::from(bytes)
        });
        let plans = (0..PLANS)
            .map(|_| {
                let mut plan = [0u8; MSGS];
                for group in plan.chunks_mut(16) {
                    let mut at = 0;
                    for (class, &n) in PER_GROUP.iter().enumerate() {
                        group[at..at + n].fill(class as u8);
                        at += n;
                    }
                    rng.shuffle(group);
                }
                plan
            })
            .collect();
        let net = Network::new(2, 2, NetParams::infiniband());
        let mut w = EngineStream {
            sim: Sim::new(),
            tx: CommEngine::new(0, Rc::clone(&net), EngineConfig::newmadeleine()),
            rx: CommEngine::new(1, net, EngineConfig::newmadeleine()),
            bufs,
            plans,
            recvs: Vec::with_capacity(MSGS),
            sends: Vec::with_capacity(MSGS),
            payloads: Vec::with_capacity(MSGS),
            rounds: 0,
            failed: 0,
            checksum: 0xCBF2_9CE4_8422_2325,
            exact: Exact::default(),
        };
        for i in 0..WARMUP_ROUNDS {
            // Byte-for-byte once per plan; 4.7 MB a round is too much to
            // compare a thousand times over.
            w.round(None, i < PLANS as u64);
        }
        let (a, b) = (w.tx.stats(), w.rx.stats());
        let msgs = (WARMUP_ROUNDS * MSGS as u64) as f64;
        w.exact = Exact {
            packets_per_msg: sum(a, b, |s| s.packets_sent) / msgs,
            aggregation_ratio: sum(a, b, |s| s.aggregated_messages) / msgs,
            chunks_per_rndv: sum(a, b, |s| s.data_chunks_sent)
                / sum(a, b, |s| s.rendezvous_started),
            pipeline_stalls_per_msg: sum(a, b, |s| s.pipeline_stalls) / msgs,
            payload_bytes_copied: sum(a, b, |s| s.payload_bytes_copied),
            events_per_msg: w.sim.events_executed() as f64 / msgs,
            sim_checksum: (w.checksum & ((1 << 48) - 1)) as f64,
        };
        w
    }

    fn measure(&mut self, seconds: f64, tracer: Option<&'static Tracer>) -> Outcome {
        let mut window = Window::start(seconds, 1);
        loop {
            let (t0, t1) = self.round(tracer, false);
            if !window.record(t1, (t1 - t0).as_nanos() as u64, 1, MSGS as u64) {
                break;
            }
        }
        let e = self.exact;
        Outcome {
            window: window.finish(),
            counters: vec![
                ("newmad.packets_per_msg", e.packets_per_msg),
                ("newmad.aggregation_ratio", e.aggregation_ratio),
                ("newmad.chunks_per_rndv", e.chunks_per_rndv),
                ("newmad.pipeline_stalls_per_msg", e.pipeline_stalls_per_msg),
                ("newmad.payload_bytes_copied", e.payload_bytes_copied),
                ("newmad.sim_checksum", e.sim_checksum),
                ("des.events_per_msg", e.events_per_msg),
            ],
        }
    }

    fn verdict(&self) -> Verdict {
        let (a, b) = (self.tx.stats(), self.rx.stats());
        Verdict {
            attempted: self.rounds,
            failed: self.failed,
            // Nothing dropped, nothing left over, nothing copied — over the
            // whole run, not just the warm-up prefix.
            correct: self.failed == 0
                && sum(a, b, |s| s.undecodable_packets + s.stale_control_packets) == 0.0
                && sum(a, b, |s| s.payload_bytes_copied) == 0.0
                && self.tx.rx_backlog() + self.rx.rx_backlog() == 0
                && sum(a, b, |s| s.packets_sent) == sum(a, b, |s| s.packets_processed),
        }
    }
}
