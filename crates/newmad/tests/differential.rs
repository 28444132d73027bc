//! The two media that drive the protocol core agree: one seeded script,
//! played through `CommEngine` on the simulated network and through the
//! in-memory `Loopback`, ends with the same outcome on both.
//!
//! The script runs in rounds on three nodes. Each round sends a few
//! messages of 8 B to 1 MiB — eager, aggregated, rendezvous and striped —
//! and posts each receive before the round's sends or after they have
//! settled. A (source, destination, tag) key repeats within a round and
//! across rounds; within a round its messages go out in waves, each sent
//! once the one before has settled, because the DES engine does not keep
//! two messages of one key in order while both are in flight on
//! different rails. After the script each medium must show, per key, the
//! messages its receives matched in posting order, every payload moved
//! from its sender's buffer, every request finished once, and empty
//! matching and rendezvous tables. Timing differs between the media by
//! design and is not compared.
//!
//! Runs under Miri in CI (sizes and rounds shrink under `cfg(miri)`).

mod common;

use bytes::{Bytes, Rope};
use common::{assert_same_buffer, pattern, settle, BULK};
use newmadeleine::loopback::Loopback;
use newmadeleine::protocol::{Outgoing, Tables};
use newmadeleine::{CommEngine, EngineConfig, EngineStats, ReqHandle};
use piom_des::Sim;
use piom_net::{NetParams, Network};
use std::collections::BTreeMap;

const NODES: usize = 3;
const RAILS: usize = 2;
/// Tags per (source, destination).
const TAGS: u64 = 2;
const ROUNDS: usize = if cfg!(miri) { 2 } else { 6 };
const PER_ROUND: usize = if cfg!(miri) { 4 } else { 8 };
/// From the smallest eager message to a striped rendezvous, either side
/// of the eager threshold.
const SIZES: [usize; 7] = [8, 64, 1500, 4 << 10, 16 << 10, (16 << 10) + 1, BULK];

/// One message of the script.
struct Msg {
    /// Its index over the whole script.
    id: usize,
    src: usize,
    dst: usize,
    tag: u64,
    data: Bytes,
    /// Earlier messages of its key in its round.
    wave: usize,
    /// The receive is posted before the round's sends; else after they
    /// settled, so the message waits in the unexpected queue (an RTS
    /// parks there).
    early: bool,
}

/// `ROUNDS` rounds of `PER_ROUND` messages. Message `i` (counted over the
/// whole script) is filled with `pattern(size, i)`.
fn script(mut seed: u64) -> Vec<Vec<Msg>> {
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let mut id = 0;
    (0..ROUNDS)
        .map(|_| {
            let mut round: Vec<Msg> = Vec::new();
            for _ in 0..PER_ROUND {
                let r = rng();
                let src = (r % NODES as u64) as usize;
                let dst = (src + 1 + (r >> 8) as usize % (NODES - 1)) % NODES;
                let tag = (r >> 16) % TAGS;
                let key = (src, dst, tag);
                let wave = round
                    .iter()
                    .filter(|m| (m.src, m.dst, m.tag) == key)
                    .count();
                let size = SIZES[(r >> 24) as usize % SIZES.len()];
                round.push(Msg {
                    id,
                    src,
                    dst,
                    tag,
                    data: pattern(size, id as u8),
                    wave,
                    early: (r >> 40) % 2 == 0,
                });
                id += 1;
            }
            round
        })
        .collect()
}

/// What the script asks of a medium.
trait Medium {
    fn post(&mut self, m: &Msg);
    fn send(&mut self, m: &Msg);
    /// Runs until nothing is left in flight.
    fn settle(&mut self);
}

/// Plays `rounds` on `medium`, the same operations in the same order on
/// every medium.
fn play(medium: &mut impl Medium, rounds: &[Vec<Msg>]) {
    for round in rounds {
        for m in round.iter().filter(|m| m.early) {
            medium.post(m);
        }
        let waves = round.iter().map(|m| m.wave + 1).max().unwrap_or(0);
        for wave in 0..waves {
            for m in round.iter().filter(|m| m.wave == wave) {
                medium.send(m);
            }
            medium.settle();
        }
        for m in round.iter().filter(|m| !m.early) {
            medium.post(m);
        }
        medium.settle();
    }
}

/// What a medium made of the script.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Per (dst, src, tag): the messages the receives matched, in the
    /// order the receives were posted.
    matched: BTreeMap<(usize, usize, u64), Vec<usize>>,
    /// Requests finished, per node: (sends, receives).
    done: Vec<(usize, usize)>,
    /// Unexpected messages and receiver-side rendezvous left, per node.
    left: Vec<(usize, usize)>,
    /// Rendezvous started, per node.
    rendezvous: Vec<u64>,
    /// Stale and undecodable frames, over all nodes.
    dropped: u64,
}

/// The message whose buffer `payload` was moved from (checked whole by
/// [`assert_same_buffer`]).
fn source_of(msgs: &[&Msg], payload: &Rope, medium: &str) -> usize {
    let first = payload.segments().next().expect("a non-empty payload");
    let at = first.as_ptr_range().start;
    let i = msgs
        .iter()
        .position(|m| m.data.as_ptr_range().contains(&at))
        .unwrap_or_else(|| panic!("{medium}: a payload from no sent buffer"));
    assert_same_buffer(medium, payload, &msgs[i].data);
    i
}

/// `CommEngine`s on the simulated network, and the requests of the script
/// in the order they were made.
struct Des {
    engines: Vec<CommEngine>,
    sim: Sim,
    sends: Vec<(usize, ReqHandle)>,
    /// Receives in posting order, each with its key.
    recvs: Vec<((usize, usize, u64), ReqHandle)>,
}

impl Medium for Des {
    fn post(&mut self, m: &Msg) {
        let r = self.engines[m.dst].irecv(&mut self.sim, m.src, m.tag);
        self.recvs.push(((m.dst, m.src, m.tag), r));
    }
    fn send(&mut self, m: &Msg) {
        let e = &self.engines[m.src];
        let s = e.isend_bytes(&mut self.sim, m.dst, m.tag, m.data.clone());
        self.sends.push((m.src, s));
    }
    fn settle(&mut self) {
        let all: Vec<&CommEngine> = self.engines.iter().collect();
        settle(&mut self.sim, &all);
    }
}

fn run_des(cfg: &EngineConfig, rounds: &[Vec<Msg>]) -> Outcome {
    let net = Network::new(NODES, RAILS, NetParams::infiniband());
    let mut des = Des {
        engines: (0..NODES)
            .map(|n| CommEngine::new(n, net.clone(), cfg.clone()))
            .collect(),
        sim: Sim::new(),
        sends: Vec::new(),
        recvs: Vec::new(),
    };
    play(&mut des, rounds);
    let msgs: Vec<&Msg> = rounds.iter().flatten().collect();
    let mut out = Outcome::new();
    for (src, s) in &des.sends {
        assert!(s.payload().is_none(), "des: a send with a payload");
        out.done[*src].0 += usize::from(s.is_complete());
    }
    for (key, r) in &des.recvs {
        let Some(payload) = r.payload() else { continue };
        out.done[key.0].1 += 1;
        let i = source_of(&msgs, &payload, "des");
        out.matched.entry(*key).or_default().push(i);
    }
    for (n, e) in des.engines.iter().enumerate() {
        out.tally(n, e.tables(), e.stats());
    }
    out
}

/// The loopback medium, and the messages whose receives were posted, in
/// posting order. Message `i`'s send is request `2i`, its receive
/// `2i + 1`.
struct Lb {
    lb: Loopback<usize>,
    posted: Vec<usize>,
}

impl Medium for Lb {
    fn post(&mut self, m: &Msg) {
        self.lb.irecv(m.dst, m.src, m.tag, 2 * m.id + 1);
        self.posted.push(m.id);
    }
    fn send(&mut self, m: &Msg) {
        let msg = Outgoing {
            dst: m.dst,
            app_tag: m.tag,
            data: m.data.clone(),
        };
        self.lb.isend(m.src, msg, 2 * m.id);
    }
    fn settle(&mut self) {
        drain(&mut self.lb);
    }
}

fn run_loopback(cfg: &EngineConfig, rounds: &[Vec<Msg>]) -> Outcome {
    let mut med = Lb {
        lb: Loopback::new(NODES, RAILS, cfg),
        posted: Vec::new(),
    };
    play(&mut med, rounds);
    let (lb, msgs) = (&med.lb, rounds.iter().flatten().collect::<Vec<_>>());
    let mut out = Outcome::new();
    let mut payloads = vec![None; msgs.len()];
    for n in 0..NODES {
        for (req, payload) in lb.completions(n) {
            let m = msgs[req / 2];
            if req % 2 == 0 {
                assert_eq!(m.src, n, "loopback: a send finished elsewhere");
                assert!(payload.is_none(), "loopback: a send with a payload");
                out.done[n].0 += 1;
            } else {
                assert_eq!(m.dst, n, "loopback: a receive finished elsewhere");
                out.done[n].1 += 1;
                payloads[req / 2] = payload.as_ref();
            }
        }
    }
    for &i in &med.posted {
        let (m, Some(payload)) = (msgs[i], payloads[i]) else {
            continue;
        };
        let got = source_of(&msgs, payload, "loopback");
        let key = (m.dst, m.src, m.tag);
        out.matched.entry(key).or_default().push(got);
    }
    for n in 0..NODES {
        out.tally(n, lb.core(n).tables(), lb.core(n).stats());
    }
    out
}

/// Delivers every frame in transit, polls every node, and fires the next
/// timer when nothing moved, until the medium is quiet.
fn drain(lb: &mut Loopback<usize>) {
    loop {
        let mut moved = false;
        for src in 0..NODES {
            for dst in 0..NODES {
                for rail in 0..RAILS {
                    while lb.deliver(src, dst, rail) {
                        moved = true;
                    }
                }
            }
        }
        for n in 0..NODES {
            moved |= lb.poll(n);
        }
        if !moved && !lb.fire_next() {
            break;
        }
    }
    assert!(lb.is_quiet());
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            matched: BTreeMap::new(),
            done: vec![(0, 0); NODES],
            left: vec![(0, 0); NODES],
            rendezvous: vec![0; NODES],
            dropped: 0,
        }
    }

    fn tally(&mut self, n: usize, t: Tables, st: EngineStats) {
        self.left[n] = (t.unexpected, t.recv_rndv);
        self.rendezvous[n] = st.rendezvous_started;
        self.dropped += st.stale_control_packets + st.undecodable_packets;
    }
}

/// What the script itself says the outcome is: every key's messages
/// matched in send order, every request finished, nothing left.
fn expected(cfg: &EngineConfig, rounds: &[Vec<Msg>]) -> Outcome {
    let mut out = Outcome::new();
    for (i, m) in rounds.iter().flatten().enumerate() {
        out.matched
            .entry((m.dst, m.src, m.tag))
            .or_default()
            .push(i);
        out.done[m.src].0 += 1;
        out.done[m.dst].1 += 1;
        out.rendezvous[m.src] += u64::from(m.data.len() > cfg.eager_threshold);
    }
    out
}

#[test]
fn des_and_loopback_agree() {
    let seeds = if cfg!(miri) { 1..=1 } else { 1..=4 };
    for cfg in [EngineConfig::newmadeleine(), EngineConfig::baseline_mpi()] {
        for seed in seeds.clone() {
            let rounds = script(seed);
            let repeated = rounds.iter().flatten().any(|m| m.wave > 0);
            assert!(repeated, "seed {seed}: no key repeats within a round");
            let (des, lb) = (run_des(&cfg, &rounds), run_loopback(&cfg, &rounds));
            assert_eq!(des, lb, "the media disagree, seed {seed}");
            assert_eq!(des, expected(&cfg, &rounds), "seed {seed}");
        }
    }
}
