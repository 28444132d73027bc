//! Deterministic rendezvous state-machine tests.
//!
//! The DES makes the whole handshake replayable: every test below asserts
//! against an explicit event timeline (who completed, when, in what order)
//! and against the stale-drop counters, so protocol-state bugs show up as
//! ordering or counting failures rather than flaky hangs. Adversarial
//! cases inject raw wire frames (duplicate RTS/CTS/DATA/FIN, out-of-range
//! chunks) straight into the NIC rx path, bypassing the sender engine.
//!
//! These tests also run under Miri in CI: the reassembly path juggles
//! shared `Rope` segments and must stay free of aliasing surprises.

use bytes::{Bytes, Rope};
use newmadeleine::wire::Wire;
use newmadeleine::{CommEngine, EngineConfig, EngineStats, ReqHandle};
use piom_des::{Sim, SimTime};
use piom_net::{Message, NetParams, Network};
use std::cell::RefCell;
use std::rc::Rc;

type Timeline = Rc<RefCell<Vec<(u64, &'static str)>>>;

/// Bulk-transfer size: shrunk 8× under Miri (the interpreter is orders of
/// magnitude slower; every protocol path stays exercised — all assertions
/// here are ordering/counting, never absolute simulated times).
const BULK: usize = if cfg!(miri) { 1 << 17 } else { 1 << 20 };
/// Poll horizon for a bulk rendezvous to fully drain.
const BULK_SPAN: SimTime = if cfg!(miri) {
    SimTime::from_ms(1)
} else {
    SimTime::from_ms(5)
};

fn pair(cfg: EngineConfig) -> (Rc<Network>, CommEngine, CommEngine, Sim) {
    let net = Network::new(2, 2, NetParams::infiniband());
    let a = CommEngine::new(0, net.clone(), cfg.clone());
    let b = CommEngine::new(1, net.clone(), cfg);
    (net, a, b, Sim::new())
}

/// Polls both engines every 500 ns over `span`, starting from `sim.now()`.
fn drive(sim: &mut Sim, engines: &[&CommEngine], span: SimTime) {
    let start = sim.now();
    let mut t = SimTime::ZERO;
    while t < span {
        for e in engines {
            let e = (*e).clone();
            sim.schedule_abs(start + t, move |sim| {
                e.poll(sim);
            });
        }
        t += SimTime::from_ns(500);
    }
    sim.run();
}

fn mark(tl: &Timeline, label: &'static str) -> impl FnOnce(&mut Sim) + 'static {
    let tl = tl.clone();
    move |sim: &mut Sim| tl.borrow_mut().push((sim.now().as_ns(), label))
}

/// Injects a raw wire frame into the fabric, bypassing any engine.
fn inject(net: &Rc<Network>, sim: &mut Sim, src: usize, dst: usize, wire: Wire, payload: &[u8]) {
    let mut frame = Rope::from(wire.encode());
    if !payload.is_empty() {
        frame.push(Bytes::copy_from_slice(payload));
    }
    net.send(
        sim,
        Message {
            src,
            dst,
            rail: 0,
            tag: 0,
            size: frame.len(),
            data: Some(frame),
        },
    );
}

fn occurrences(tl: &Timeline, label: &str) -> Vec<u64> {
    tl.borrow()
        .iter()
        .filter(|(_, l)| *l == label)
        .map(|(t, _)| *t)
        .collect()
}

#[test]
fn two_sided_recv_first_timeline() {
    let (_net, a, b, mut sim) = pair(EngineConfig::newmadeleine());
    let tl: Timeline = Rc::default();

    let r = b.irecv(&mut sim, 0, 1);
    r.on_complete(&mut sim, mark(&tl, "recv_done"));
    let s = a.isend(&mut sim, 1, 1, BULK);
    s.on_complete(&mut sim, mark(&tl, "send_done"));
    tl.borrow_mut().push((sim.now().as_ns(), "submitted"));

    drive(&mut sim, &[&a, &b], BULK_SPAN);

    // Exactly-once completion, in protocol order: the sender's buffer is
    // free at NIC drain, strictly before the last chunk lands remotely.
    let (sub, send_done, recv_done) = (
        occurrences(&tl, "submitted"),
        occurrences(&tl, "send_done"),
        occurrences(&tl, "recv_done"),
    );
    assert_eq!(send_done.len(), 1, "send callback must fire exactly once");
    assert_eq!(recv_done.len(), 1, "recv callback must fire exactly once");
    assert!(sub[0] < send_done[0]);
    assert!(
        send_done[0] < recv_done[0],
        "sender drains before the receiver's last chunk lands: {tl:?}"
    );
    // The timeline is the ground truth for the handles too.
    assert_eq!(s.completed_at().unwrap().as_ns(), send_done[0]);
    assert_eq!(r.completed_at().unwrap().as_ns(), recv_done[0]);
    let st = a.stats();
    assert_eq!(st.rendezvous_started, 1);
    assert!(st.data_chunks_sent >= 1);
    assert_eq!(st.stale_control_packets, 0);
    assert_eq!(b.stats().stale_control_packets, 0);
}

#[test]
fn recv_posted_after_rts_restarts_the_handshake() {
    let (_net, a, b, mut sim) = pair(EngineConfig::newmadeleine());
    let tl: Timeline = Rc::default();

    let s = a.isend(&mut sim, 1, 3, BULK / 4);
    s.on_complete(&mut sim, mark(&tl, "send_done"));
    drive(&mut sim, &[&a, &b], SimTime::from_us(100));
    assert!(
        !s.is_complete(),
        "no CTS may be produced before the recv exists"
    );
    assert_eq!(b.rx_backlog(), 0, "the RTS was polled and held unexpected");

    let posted_at = sim.now();
    let r = b.irecv(&mut sim, 0, 3);
    r.on_complete(&mut sim, mark(&tl, "recv_done"));
    drive(&mut sim, &[&a, &b], BULK_SPAN);

    assert_eq!(occurrences(&tl, "send_done").len(), 1);
    assert_eq!(occurrences(&tl, "recv_done").len(), 1);
    assert!(
        r.completed_at().unwrap() > posted_at,
        "completion cannot predate the matching recv"
    );
    assert_eq!(a.stats().stale_control_packets, 0);
}

#[test]
fn duplicate_cts_does_not_restream_data() {
    let (net, a, b, mut sim) = pair(EngineConfig::newmadeleine());
    let r = b.irecv(&mut sim, 0, 1);
    let s = a.isend(&mut sim, 1, 1, BULK); // first rendezvous => req 1
    drive(&mut sim, &[&a, &b], BULK_SPAN);
    assert!(s.is_complete() && r.is_complete());

    let before: EngineStats = a.stats();
    let done_count = Rc::new(RefCell::new(0u32));
    let dc = done_count.clone();
    s.on_complete(&mut sim, move |_| *dc.borrow_mut() += 1);
    assert_eq!(
        *done_count.borrow(),
        1,
        "already complete fires immediately"
    );

    // A duplicate CTS for the resolved request must be a counted drop:
    // no second data stream, no state change, no double completion.
    inject(&net, &mut sim, 1, 0, Wire::Cts { req: 1 }, &[]);
    drive(&mut sim, &[&a, &b], SimTime::from_us(50));

    let after = a.stats();
    assert_eq!(
        after.stale_control_packets,
        before.stale_control_packets + 1
    );
    assert_eq!(after.data_chunks_sent, before.data_chunks_sent);
    assert_eq!(after.packets_sent, before.packets_sent);
    assert_eq!(*done_count.borrow(), 1);
}

#[test]
fn out_of_order_duplicate_and_malformed_data_chunks() {
    let (net, _a, b, mut sim) = pair(EngineConfig::newmadeleine());
    // Craft the receiver side by hand: post the recv, then speak the
    // sender's half of the protocol as raw frames from node 0.
    let r = b.irecv(&mut sim, 0, 9);
    let done_count = Rc::new(RefCell::new(0u32));
    let dc = done_count.clone();
    r.on_complete(&mut sim, move |_| *dc.borrow_mut() += 1);

    inject(
        &net,
        &mut sim,
        0,
        1,
        Wire::Rts {
            req: 77,
            app_tag: 9,
            size: 4096,
            rdma: false,
        },
        &[],
    );
    drive(&mut sim, &[&b], SimTime::from_us(50));
    assert!(!r.is_complete(), "no data yet");

    let chunk0 = vec![0xAA; 2048];
    let chunk1 = vec![0xBB; 2048];
    let data = |chunk, of| Wire::Data { req: 77, chunk, of };

    // Chunk 1 arrives first (out of order), then a burst of garbage that
    // must all drop as stale: a duplicate of chunk 1, an out-of-range
    // index, a mismatched total, and a zero-total header.
    inject(&net, &mut sim, 0, 1, data(1, 2), &chunk1);
    inject(&net, &mut sim, 0, 1, data(1, 2), &chunk1);
    inject(&net, &mut sim, 0, 1, data(5, 2), &chunk0);
    inject(&net, &mut sim, 0, 1, data(0, 3), &chunk0);
    inject(&net, &mut sim, 0, 1, data(0, 0), &chunk0);
    drive(&mut sim, &[&b], SimTime::from_us(50));
    assert!(!r.is_complete(), "half the payload is still missing");
    assert_eq!(b.stats().stale_control_packets, 4);

    // The genuine chunk 0 completes the transfer; reassembly must be in
    // index order, not arrival order.
    inject(&net, &mut sim, 0, 1, data(0, 2), &chunk0);
    drive(&mut sim, &[&b], SimTime::from_us(50));
    assert!(r.is_complete());
    assert_eq!(*done_count.borrow(), 1, "exactly one completion");
    let payload = r.payload().expect("payload attached").to_vec();
    let expected: Vec<u8> = chunk0.iter().chain(chunk1.iter()).copied().collect();
    assert_eq!(payload, expected, "chunks must reassemble by index");

    // Late duplicate after completion: state is gone, counted drop.
    inject(&net, &mut sim, 0, 1, data(0, 2), &chunk0);
    drive(&mut sim, &[&b], SimTime::from_us(50));
    assert_eq!(b.stats().stale_control_packets, 5);
    assert_eq!(*done_count.borrow(), 1);
}

#[test]
fn duplicate_fin_after_rdma_completion_is_stale() {
    let (net, a, b, mut sim) = pair(EngineConfig::baseline_mpi());
    let r = b.irecv(&mut sim, 0, 1);
    let s = a.isend(&mut sim, 1, 1, BULK); // rdma rendezvous => req 1
    drive(&mut sim, &[&a, &b], BULK_SPAN);
    assert!(s.is_complete() && r.is_complete());

    let before = a.stats().stale_control_packets;
    inject(&net, &mut sim, 1, 0, Wire::Fin { req: 1 }, &[]);
    drive(&mut sim, &[&a, &b], SimTime::from_us(50));
    assert_eq!(a.stats().stale_control_packets, before + 1);
}

/// A second copy of a live RTS is a counted drop: it must neither match
/// the next posted receive nor overwrite the first one's rendezvous state.
fn duplicate_rts_is_stale(cfg: EngineConfig) {
    let size = BULK / 4;
    let rts = |req| Wire::Rts {
        req,
        app_tag: 1,
        size: size as u64,
        rdma: cfg.rdma_rendezvous,
    };
    let (net, a, b, mut sim) = pair(cfg.clone());
    let r1 = b.irecv(&mut sim, 0, 1);
    let r2 = b.irecv(&mut sim, 0, 1);
    let s1 = a.isend(&mut sim, 1, 1, size); // first rendezvous => req 1
    inject(&net, &mut sim, 0, 1, rts(1), &[]); // same rail, right behind
    drive(&mut sim, &[&a, &b], BULK_SPAN);
    assert!(s1.is_complete() && r1.is_complete());
    assert!(!r2.is_complete(), "the copy ate the second receive");
    assert_eq!(b.stats().stale_control_packets, 1);
    assert_eq!(a.stats().stale_control_packets, 0, "no second CTS/FIN");

    // The receive the copy would have eaten still takes the next message.
    let s2 = a.isend(&mut sim, 1, 1, size);
    drive(&mut sim, &[&a, &b], BULK_SPAN);
    assert!(s2.is_complete() && r2.is_complete());

    // Same while the original is parked unexpected (no receive posted).
    let s3 = a.isend(&mut sim, 1, 1, size);
    inject(&net, &mut sim, 0, 1, rts(3), &[]);
    drive(&mut sim, &[&a, &b], SimTime::from_us(100));
    assert_eq!(b.stats().stale_control_packets, 2);
    let r3 = b.irecv(&mut sim, 0, 1);
    let r4 = b.irecv(&mut sim, 0, 1);
    drive(&mut sim, &[&a, &b], BULK_SPAN);
    assert!(s3.is_complete() && r3.is_complete() && !r4.is_complete());
    assert_eq!(a.stats().stale_control_packets, 0);
}

#[test]
fn duplicate_rts_is_stale_two_sided() {
    duplicate_rts_is_stale(EngineConfig::newmadeleine());
}

#[test]
fn duplicate_rts_is_stale_rdma() {
    duplicate_rts_is_stale(EngineConfig::baseline_mpi());
}

#[test]
fn completion_callback_may_reenter_its_engine() {
    // The callback of a finished receive posts a further receive and a
    // send on the engine that is completing it, from every place a
    // receive can finish: eager delivery, the last DATA chunk, the RDMA
    // read landing.
    let presets = [EngineConfig::newmadeleine(), EngineConfig::baseline_mpi()];
    for (cfg, size) in presets
        .into_iter()
        .flat_map(|c| [(c.clone(), 64), (c, BULK / 4)])
    {
        let (_net, a, b, mut sim) = pair(cfg);
        let posted: Rc<RefCell<Option<(ReqHandle, ReqHandle)>>> = Rc::default();
        let (b2, slot) = (b.clone(), posted.clone());
        let first = b.irecv(&mut sim, 0, 1);
        first.on_complete(&mut sim, move |sim| {
            let next = b2.irecv(sim, 0, 2);
            let reply = b2.isend(sim, 0, 3, size);
            *slot.borrow_mut() = Some((next, reply));
        });
        let back = a.irecv(&mut sim, 1, 3);
        a.isend(&mut sim, 1, 1, size);
        a.isend(&mut sim, 1, 2, size);
        drive(&mut sim, &[&a, &b], BULK_SPAN);
        let (next, reply) = posted.borrow_mut().take().expect("callback ran");
        assert!(first.is_complete() && next.is_complete());
        assert!(reply.is_complete() && back.is_complete());
    }
}

#[test]
fn skewed_polling_cadences_are_deterministic() {
    // Sender and receiver poll on co-prime cadences, so control packets
    // routinely wait in rx queues across several peer polls. The protocol
    // must neither hang nor depend on the interleaving: two identical
    // runs produce byte-identical timelines and stats.
    let run = || {
        let (_net, a, b, mut sim) = pair(EngineConfig::newmadeleine());
        let r = b.irecv(&mut sim, 0, 1);
        let s = a.isend(&mut sim, 1, 1, 3 * BULK);
        let polls: u64 = if cfg!(miri) { 2_500 } else { 20_000 };
        for k in 0..polls {
            let a2 = a.clone();
            sim.schedule_abs(SimTime::from_ns(k * 300), move |sim| {
                a2.poll(sim);
            });
        }
        let recv_polls: u64 = if cfg!(miri) { 500 } else { 4_000 };
        for k in 0..recv_polls {
            let b2 = b.clone();
            sim.schedule_abs(SimTime::from_ns(k * 1700), move |sim| {
                b2.poll(sim);
            });
        }
        sim.run();
        assert!(s.is_complete() && r.is_complete());
        (
            s.completed_at().unwrap(),
            r.completed_at().unwrap(),
            a.stats(),
            b.stats(),
        )
    };
    let first = run();
    assert_eq!(first, run(), "replay must be byte-identical");
    assert_eq!(first.2.stale_control_packets, 0);
    assert_eq!(first.3.stale_control_packets, 0);
}

/// Runs the simulation to quiescence, polling every engine that has a
/// frame waiting after each event.
fn settle(sim: &mut Sim, engines: &[&CommEngine]) {
    while sim.step() {
        for e in engines {
            if e.rx_backlog() > 0 {
                e.poll(sim);
            }
        }
    }
}

/// A payload whose every byte depends on its offset.
fn pattern(len: usize) -> Bytes {
    Bytes::from((0..len).map(|k| (k * 31 + 7) as u8).collect::<Vec<u8>>())
}

/// The sender's table hands a finished rendezvous' slot to the next one,
/// under a new id. A CTS or FIN naming the retired id must not reach the
/// live rendezvous in that slot: it is a counted stale drop, and the live
/// transfer then completes byte-exact.
fn retired_id_in_a_reused_slot_is_stale(cfg: EngineConfig, stale: fn(u32) -> Wire) {
    let size = BULK / 4;
    let (net, a, b, mut sim) = pair(cfg);
    let r1 = b.irecv(&mut sim, 0, 1);
    let s1 = a.isend(&mut sim, 1, 1, size); // first rendezvous => id 1
    settle(&mut sim, &[&a, &b]);
    assert!(s1.is_complete() && r1.is_complete());

    // No receive yet: the RTS parks at node 1 and the send stays live.
    let data = pattern(size);
    let s2 = a.isend_bytes(&mut sim, 1, 2, data.clone());
    settle(&mut sim, &[&a, &b]);
    assert_eq!(
        a.tables().send_rndv_slots,
        1,
        "the second send reuses the slot"
    );
    let before = a.stats();
    inject(&net, &mut sim, 1, 0, stale(1), &[]);
    settle(&mut sim, &[&a, &b]);
    let after = a.stats();
    assert_eq!(
        after.stale_control_packets,
        before.stale_control_packets + 1
    );
    assert_eq!(after.packets_sent, before.packets_sent, "nothing streamed");
    assert!(!s2.is_complete(), "the stale packet finished the live send");

    let r2 = b.irecv(&mut sim, 0, 2);
    settle(&mut sim, &[&a, &b]);
    assert!(s2.is_complete() && r2.is_complete());
    assert_eq!(r2.payload().expect("payload attached"), data.to_vec());
    assert_eq!(a.stats().stale_control_packets, after.stale_control_packets);
    assert_eq!(b.stats().stale_control_packets, 0);
}

#[test]
fn cts_naming_a_retired_id_in_a_reused_slot_is_stale() {
    retired_id_in_a_reused_slot_is_stale(EngineConfig::newmadeleine(), |req| Wire::Cts { req });
}

#[test]
fn fin_naming_a_retired_id_in_a_reused_slot_is_stale() {
    retired_id_in_a_reused_slot_is_stale(EngineConfig::baseline_mpi(), |req| Wire::Fin { req });
}

#[test]
fn send_table_storage_is_bounded_by_the_rendezvous_outstanding() {
    let n = if cfg!(miri) { 40 } else { 10_000 };
    let size = EngineConfig::default().eager_threshold + 1;
    let (_net, a, b, mut sim) = pair(EngineConfig::newmadeleine());
    // Never matched while the others run: its RTS parks at node 1, so its
    // CTS does not come, and its entry stays live throughout.
    let stuck = a.isend(&mut sim, 1, u64::MAX, size);
    for tag in 0..n {
        let r = b.irecv(&mut sim, 0, tag);
        let s = a.isend(&mut sim, 1, tag, size);
        settle(&mut sim, &[&a, &b]);
        assert!(r.is_complete() && s.is_complete());
    }
    assert!(!stuck.is_complete());
    assert_eq!(a.stats().rendezvous_started, n + 1);
    let slots = a.tables().send_rndv_slots;
    assert!(slots <= 2, "{n} rendezvous ran, the table holds {slots}");
    assert_eq!(b.tables().unexpected, 1);

    let r = b.irecv(&mut sim, 0, u64::MAX);
    settle(&mut sim, &[&a, &b]);
    assert!(stuck.is_complete() && r.is_complete());
    assert_eq!(a.stats().stale_control_packets, 0);
    assert_eq!(b.stats().stale_control_packets, 0);
}

#[test]
fn an_rts_flood_without_receives_parks_in_the_unexpected_queue() {
    let n: u32 = if cfg!(miri) { 16 } else { 1_000 };
    for cfg in [EngineConfig::newmadeleine(), EngineConfig::baseline_mpi()] {
        let (net, _a, b, mut sim) = pair(cfg.clone());
        let rts = |req: u32| Wire::Rts {
            req,
            app_tag: u64::from(req),
            size: BULK as u64,
            rdma: cfg.rdma_rendezvous,
        };
        for req in 0..n {
            inject(&net, &mut sim, 0, 1, rts(req), &[]);
        }
        settle(&mut sim, &[&b]);
        let tables = b.tables();
        assert_eq!(tables.recv_rndv, 0, "no receive was posted");
        assert_eq!(tables.unexpected, n as usize);
        // A second copy of each is a counted drop, and grows nothing.
        for req in 0..n {
            inject(&net, &mut sim, 0, 1, rts(req), &[]);
        }
        settle(&mut sim, &[&b]);
        assert_eq!(b.tables(), tables);
        assert_eq!(b.stats().stale_control_packets, u64::from(n));
    }
}
