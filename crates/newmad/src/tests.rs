//! Engine unit tests: protocol correctness under explicit polling.

use super::*;
use crate::wire::Wire;
use piom_net::NetParams;

fn pair(cfg: EngineConfig) -> (Rc<Network>, CommEngine, CommEngine, Sim) {
    let net = Network::new(2, 2, NetParams::infiniband());
    let a = CommEngine::new(0, net.clone(), cfg.clone());
    let b = CommEngine::new(1, net.clone(), cfg);
    (net, a, b, Sim::new())
}

/// Drives both engines' polls frequently until quiescence (test harness —
/// this stands in for PIOMan's keypoint-driven polling).
fn drive(sim: &mut Sim, engines: &[&CommEngine], until: SimTime) {
    let mut t = SimTime::ZERO;
    let step = SimTime::from_ns(500);
    while t < until {
        for e in engines {
            let e = (*e).clone();
            sim.schedule_abs(t.max(sim.now()), move |sim| {
                e.poll(sim);
            });
        }
        t += step;
    }
    sim.run();
}

#[test]
fn eager_send_recv_completes() {
    let (_net, a, b, mut sim) = pair(EngineConfig::newmadeleine());
    let r = b.irecv(&mut sim, 0, 77);
    let s = a.isend(&mut sim, 1, 77, 1024);
    assert!(s.is_complete(), "eager send completes at submission");
    assert!(!r.is_complete());
    drive(&mut sim, &[&a, &b], SimTime::from_us(50));
    assert!(r.is_complete());
}

#[test]
fn eager_unexpected_then_recv() {
    let (_net, a, b, mut sim) = pair(EngineConfig::newmadeleine());
    a.isend(&mut sim, 1, 5, 64);
    drive(&mut sim, &[&a, &b], SimTime::from_us(50));
    // Message already arrived and was stashed as unexpected.
    let r = b.irecv(&mut sim, 0, 5);
    assert!(r.is_complete(), "unexpected queue must satisfy the recv");
}

#[test]
fn recv_does_not_match_wrong_tag_or_src() {
    let (_net, a, b, mut sim) = pair(EngineConfig::newmadeleine());
    let wrong_tag = b.irecv(&mut sim, 0, 99);
    a.isend(&mut sim, 1, 5, 64);
    drive(&mut sim, &[&a, &b], SimTime::from_us(50));
    assert!(!wrong_tag.is_complete());
    let right = b.irecv(&mut sim, 0, 5);
    assert!(right.is_complete());
}

#[test]
fn two_sided_rendezvous_completes_both_sides() {
    let (_net, a, b, mut sim) = pair(EngineConfig::newmadeleine());
    let r = b.irecv(&mut sim, 0, 1);
    let s = a.isend(&mut sim, 1, 1, 1 << 20);
    assert!(!s.is_complete(), "rendezvous send is not immediate");
    drive(&mut sim, &[&a, &b], SimTime::from_ms(5));
    assert!(s.is_complete(), "sender completes after CTS+DATA");
    assert!(r.is_complete(), "receiver completes after all chunks");
    // 1 MB at ~1.2 GB/s: the receive cannot beat the bandwidth bound.
    assert!(r.completed_at().unwrap() > SimTime::from_us(400));
}

#[test]
fn rdma_rendezvous_fin_completes_sender() {
    let (_net, a, b, mut sim) = pair(EngineConfig::baseline_mpi());
    let r = b.irecv(&mut sim, 0, 1);
    let s = a.isend(&mut sim, 1, 1, 1 << 20);
    drive(&mut sim, &[&a, &b], SimTime::from_ms(5));
    assert!(r.is_complete());
    assert!(s.is_complete());
    // Receiver completes when its RDMA read lands; sender only later, once
    // the FIN has crossed back and been polled.
    assert!(r.completed_at().unwrap() < s.completed_at().unwrap());
}

#[test]
fn rts_before_recv_is_held_unexpected() {
    let (_net, a, b, mut sim) = pair(EngineConfig::newmadeleine());
    let s = a.isend(&mut sim, 1, 3, 1 << 17);
    drive(&mut sim, &[&a, &b], SimTime::from_us(100));
    assert!(!s.is_complete(), "no CTS until the recv is posted");
    let r = b.irecv(&mut sim, 0, 3);
    drive(&mut sim, &[&a, &b], SimTime::from_ms(2));
    assert!(s.is_complete());
    assert!(r.is_complete());
}

#[test]
fn aggregation_packs_messages() {
    let (net, a, b, mut sim) = pair(EngineConfig {
        aggregation: true,
        ..EngineConfig::newmadeleine()
    });
    let mut recvs = Vec::new();
    for tag in 0..8 {
        recvs.push(b.irecv(&mut sim, 0, tag));
    }
    // Submit 8 sends at the same instant: one flush packs them.
    let submit = {
        let a = a.clone();
        move |sim: &mut Sim| {
            for tag in 0..8u64 {
                a.isend(sim, 1, tag, 512);
            }
        }
    };
    sim.schedule(SimTime::ZERO, submit);
    drive(&mut sim, &[&a, &b], SimTime::from_us(100));
    for r in &recvs {
        assert!(r.is_complete());
    }
    let st = a.stats();
    assert!(st.aggregate_packets >= 1, "no aggregation happened");
    // The first submissions grab the idle rails as singletons; everything
    // arriving while the engines are busy rides aggregates.
    assert!(
        st.aggregated_messages >= 6,
        "most messages should ride aggregates: {st:?}"
    );
    assert!(
        net.nic(0, 0).tx_count() + net.nic(0, 1).tx_count() < 8,
        "aggregation must reduce wire packets"
    );
}

#[test]
fn no_aggregation_sends_singletons() {
    let (net, a, b, mut sim) = pair(EngineConfig {
        aggregation: false,
        ..EngineConfig::newmadeleine()
    });
    for tag in 0..4 {
        b.irecv(&mut sim, 0, tag);
    }
    let a2 = a.clone();
    sim.schedule(SimTime::ZERO, move |sim| {
        for tag in 0..4u64 {
            a2.isend(sim, 1, tag, 512);
        }
    });
    drive(&mut sim, &[&a, &b], SimTime::from_us(100));
    assert_eq!(a.stats().aggregate_packets, 0);
    assert_eq!(net.nic(0, 0).tx_count() + net.nic(0, 1).tx_count(), 4);
}

#[test]
fn max_packet_splits_aggregates() {
    let (_net, a, b, mut sim) = pair(EngineConfig {
        aggregation: true,
        max_packet: 1500,
        ..EngineConfig::newmadeleine()
    });
    for tag in 0..6 {
        b.irecv(&mut sim, 0, tag);
    }
    let a2 = a.clone();
    sim.schedule(SimTime::ZERO, move |sim| {
        for tag in 0..6u64 {
            a2.isend(sim, 1, tag, 1000); // 1000 B each, cap 1500 => singles... pairs exceed
        }
    });
    drive(&mut sim, &[&a, &b], SimTime::from_us(100));
    let st = a.stats();
    // Each aggregate holds exactly one message (2 x 1000 > 1500): the cap
    // must prevent oversized packets, not break delivery.
    assert!(st.packets_sent >= 6);
}

#[test]
fn multirail_speeds_up_large_transfers() {
    let run = |multirail: bool| {
        let (_net, a, b, mut sim) = pair(EngineConfig {
            multirail_data: multirail,
            ..EngineConfig::newmadeleine()
        });
        let r = b.irecv(&mut sim, 0, 1);
        a.isend(&mut sim, 1, 1, 4 << 20);
        drive(&mut sim, &[&a, &b], SimTime::from_ms(20));
        assert!(r.is_complete());
        r.completed_at().unwrap()
    };
    let single = run(false);
    let multi = run(true);
    assert!(
        multi.as_ns() * 3 < single.as_ns() * 2,
        "2 rails should cut the 4 MB transfer well below single-rail: single {single}, multi {multi}"
    );
}

#[test]
fn pipeline_window_overlaps_packing_and_sending() {
    // 8 eager messages submitted in one burst, aggregation off so the
    // window is the only lever: stop-and-wait (window 1) streams them one
    // at a time on one rail; a window of 4 keeps both rails busy, so
    // pack(n+1) overlaps send(n) and the burst finishes far sooner.
    let run = |window: usize| {
        let (net, a, b, mut sim) = pair(EngineConfig {
            aggregation: false,
            pipeline_window: window,
            ..EngineConfig::newmadeleine()
        });
        let recvs: Vec<_> = (0..8).map(|t| b.irecv(&mut sim, 0, t)).collect();
        let a2 = a.clone();
        sim.schedule(SimTime::ZERO, move |sim| {
            for tag in 0..8u64 {
                a2.isend(sim, 1, tag, 8 * 1024);
            }
        });
        drive(&mut sim, &[&a, &b], SimTime::from_us(200));
        let done = recvs
            .iter()
            .map(|r| r.completed_at().expect("delivered"))
            .max()
            .unwrap();
        (done, a.stats(), net.nic(0, 1).tx_count())
    };
    let (stop_and_wait, st1, _) = run(1);
    let (pipelined, st4, rail1_tx) = run(4);
    assert!(
        pipelined.as_ns() * 3 < stop_and_wait.as_ns() * 2,
        "windowed flush should overlap rails: window=1 {stop_and_wait}, window=4 {pipelined}"
    );
    assert!(rail1_tx > 0, "the window must spill onto the second rail");
    assert!(
        st1.pipeline_stalls > st4.pipeline_stalls,
        "stop-and-wait must stall more: {st1:?} vs {st4:?}"
    );
}

#[test]
fn undecodable_packet_is_a_counted_drop() {
    let (net, a, b, mut sim) = pair(EngineConfig::newmadeleine());
    let r = b.irecv(&mut sim, 0, 7);
    // Garbage frame and a frame with no bytes at all, injected raw.
    net.send(
        &mut sim,
        Message {
            src: 0,
            dst: 1,
            rail: 0,
            tag: 0,
            size: 8,
            data: Some(Rope::from(Bytes::from(vec![0xFF; 8]))),
        },
    );
    net.send(
        &mut sim,
        Message {
            src: 0,
            dst: 1,
            rail: 1,
            tag: 0,
            size: 4,
            data: None,
        },
    );
    // A real message on the same link still gets through.
    a.isend(&mut sim, 1, 7, 64);
    drive(&mut sim, &[&a, &b], SimTime::from_us(50));
    assert_eq!(
        b.stats().undecodable_packets,
        2,
        "corrupt packets must be counted drops, not aborts"
    );
    assert!(r.is_complete(), "the engine must survive the garbage");
}

#[test]
fn stale_control_packets_are_counted_drops() {
    let (net, a, _b, mut sim) = pair(EngineConfig::newmadeleine());
    // CTS, DATA, FIN all referencing protocol state node 0 never created.
    for wire in [
        Wire::Cts { req: 999 },
        Wire::Data {
            req: 999,
            chunk: 0,
            of: 1,
        },
        Wire::Fin { req: 999 },
    ] {
        let header = wire.encode();
        net.send(
            &mut sim,
            Message {
                src: 1,
                dst: 0,
                rail: 0,
                tag: 0,
                size: header.len(),
                data: Some(Rope::from(header)),
            },
        );
    }
    drive(&mut sim, &[&a], SimTime::from_us(50));
    assert_eq!(a.stats().stale_control_packets, 3);
    assert_eq!(a.stats().undecodable_packets, 0);
}

#[test]
fn nothing_progresses_without_polling() {
    let (_net, a, b, mut sim) = pair(EngineConfig::newmadeleine());
    let r = b.irecv(&mut sim, 0, 9);
    a.isend(&mut sim, 1, 9, 256);
    // Run the network only: the packet arrives into the rx queue, but no
    // poll ever processes it.
    sim.run();
    assert!(!r.is_complete(), "completion without a poll");
    assert_eq!(b.rx_backlog(), 1);
    // One poll finishes the job.
    b.poll(&mut sim);
    assert!(r.is_complete());
}

#[test]
fn stats_track_polls() {
    let (_net, a, _b, mut sim) = pair(EngineConfig::newmadeleine());
    assert!(!a.poll(&mut sim));
    assert_eq!(a.stats().empty_polls, 1);
}

/// The repo benchmark's `engine_stream` round (64 messages, per 16:
/// 10 × 64 B, 3 × 4 KiB, 2 × 64 KiB, 1 × 1 MiB), driven event by event:
/// its packet, aggregation, stall, chunk and event counts are exact and
/// do not depend on the order inside a group.
#[test]
fn stream_round_has_an_exact_shape() {
    const SIZES: [usize; 4] = [64, 4 << 10, 64 << 10, 1 << 20];
    let group = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3];
    let bufs =
        SIZES.map(|len| Bytes::from((0..len).map(|k| (k * 7 + len) as u8).collect::<Vec<_>>()));
    let ascending: Vec<usize> = group.iter().cycle().take(64).copied().collect();
    // Large first, and rotated so that a group starts mid-class.
    let mut shuffled: Vec<usize> = ascending.iter().rev().copied().collect();
    shuffled.rotate_left(5);
    for plan in [ascending, shuffled] {
        let (_net, tx, rx, mut sim) = pair(EngineConfig::newmadeleine());
        let recvs: Vec<ReqHandle> = (0..64).map(|t| rx.irecv(&mut sim, 0, t)).collect();
        let sends: Vec<ReqHandle> = (0..64u64)
            .zip(&plan)
            .map(|(t, &class)| tx.isend_bytes(&mut sim, 1, t, bufs[class].clone()))
            .collect();
        while sim.step() {
            for e in [&rx, &tx] {
                if e.rx_backlog() > 0 {
                    e.poll(&mut sim);
                }
            }
        }
        assert!(sends.iter().all(ReqHandle::is_complete));
        for (r, &class) in recvs.iter().zip(&plan) {
            assert_eq!(r.payload().expect("delivered"), bufs[class].to_vec());
        }
        let (a, b) = (tx.stats(), rx.stats());
        assert_eq!(a.packets_sent + b.packets_sent, 59);
        assert_eq!(a.packets_processed + b.packets_processed, 59);
        assert_eq!((a.aggregated_messages, a.aggregate_packets), (50, 1));
        assert_eq!(a.pipeline_stalls, 50);
        assert_eq!((a.rendezvous_started, a.data_chunks_sent), (12, 32));
        assert_eq!(sim.events_executed(), 133);
        assert_eq!(a.payload_bytes_copied + b.payload_bytes_copied, 0);
        assert_eq!(a.undecodable_packets + b.undecodable_packets, 0);
        assert_eq!(a.stale_control_packets + b.stale_control_packets, 0);
    }
}

/// The protocol core's exact layout: every engine call touches it, so a
/// change here moves cache lines under the benchmark and must be on purpose.
#[test]
fn core_layout_is_pinned() {
    use core::mem::{align_of, size_of};
    assert_eq!(
        (size_of::<Core<ReqHandle>>(), align_of::<Core<ReqHandle>>()),
        (376, 8)
    );
}
