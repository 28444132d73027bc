//! Property tests: protocol-level delivery invariants hold for any message
//! mix, polling cadence, and configuration.

mod common;

use common::{pair, zeros};
use newmadeleine::EngineConfig;
use piom_des::SimTime;
use piom_net::NetParams;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Msg {
    size: usize,
    delay_ns: u64,
}

fn arb_msgs() -> impl Strategy<Value = Vec<Msg>> {
    proptest::collection::vec(
        (1usize..200_000, 0u64..5_000).prop_map(|(size, delay_ns)| Msg { size, delay_ns }),
        1..12,
    )
}

fn arb_config() -> impl Strategy<Value = EngineConfig> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        1usize..64,
        1usize..5,
        (4usize..256, 16usize..128),
    )
        .prop_map(
            |(rdma, agg, stripe, thresh_kb, window, (chunk_kb, stripe_kb))| EngineConfig {
                eager_threshold: thresh_kb * 1024,
                rdma_rendezvous: rdma,
                aggregation: agg,
                max_packet: 64 * 1024,
                pipeline_window: window,
                rndv_chunk: chunk_kb * 1024,
                stripe_threshold: if stripe { stripe_kb * 1024 } else { usize::MAX },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every message is delivered exactly once, whatever the protocol mix
    /// (eager vs rendezvous, RDMA vs two-sided, aggregation on/off), and
    /// no receive completes before the bandwidth bound allows.
    #[test]
    fn every_message_delivered_exactly_once(
        msgs in arb_msgs(),
        cfg in arb_config(),
        poll_step_ns in 100u64..3_000,
    ) {
        let (_net, a, b, mut sim) = pair(cfg);

        let mut recvs = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            recvs.push((b.irecv(&mut sim, 0, i as u64), m.size));
            let a2 = a.clone();
            let (tag, data, delay) = (i as u64, zeros(m.size), m.delay_ns);
            sim.schedule_abs(SimTime::from_ns(delay), move |sim| {
                a2.isend_bytes(sim, 1, tag, data);
            });
        }
        // Poll both sides on a random cadence, long enough for the worst
        // case (sum of sizes at ~1.2 GB/s plus handshakes).
        let horizon_ns: u64 = 1_000_000
            + msgs.iter().map(|m| m.size as u64).sum::<u64>() * 4;
        let mut t = 0;
        while t < horizon_ns {
            let (a2, b2) = (a.clone(), b.clone());
            sim.schedule_abs(SimTime::from_ns(t), move |sim| {
                a2.poll(sim);
                b2.poll(sim);
            });
            t += poll_step_ns;
        }
        sim.run();

        let params = NetParams::infiniband();
        for (i, (r, size)) in recvs.iter().enumerate() {
            prop_assert!(r.is_complete(), "message {i} (size {size}) lost");
            // Causality: cannot complete faster than its own bytes stream.
            let floor = params.byte_time(*size / 2); // multirail may halve
            prop_assert!(
                r.completed_at().unwrap() >= floor,
                "message {i} beat the bandwidth bound"
            );
        }
        // No dangling protocol state: all queues drained.
        prop_assert_eq!(a.rx_backlog(), 0);
        prop_assert_eq!(b.rx_backlog(), 0);
    }

    /// Determinism: identical inputs produce identical completion times.
    #[test]
    fn simulation_is_deterministic(
        msgs in arb_msgs(),
        cfg in arb_config(),
    ) {
        let run = || {
            let (_net, a, b, mut sim) = pair(cfg.clone());
            let recvs: Vec<_> = msgs
                .iter()
                .enumerate()
                .map(|(i, _)| b.irecv(&mut sim, 0, i as u64))
                .collect();
            for (i, m) in msgs.iter().enumerate() {
                let a2 = a.clone();
                let (tag, data) = (i as u64, zeros(m.size));
                sim.schedule_abs(SimTime::from_ns(m.delay_ns), move |sim| {
                    a2.isend_bytes(sim, 1, tag, data);
                });
            }
            for k in 0..50_000u64 {
                let (a2, b2) = (a.clone(), b.clone());
                sim.schedule_abs(SimTime::from_ns(k * 500), move |sim| {
                    a2.poll(sim);
                    b2.poll(sim);
                });
            }
            sim.run();
            recvs.iter().map(|r| r.completed_at()).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}
