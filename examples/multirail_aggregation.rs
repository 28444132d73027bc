//! Cross-flow aggregation and multirail distribution (Fig. 1).
//!
//! Two demonstrations of the optimization layer on a 2-rail network:
//!
//! 1. **Aggregation** — four application flows send small messages to the
//!    same destination. With the optimizer on, pending messages are packed
//!    into few NIC packets and spread across rails; off, every message
//!    pays the NIC occupancy alone.
//! 2. **Striping** — one large rendezvous payload scheduled by
//!    `newmad::rails`: the engine water-fills chunks over both rails, and
//!    the printed crossover size says where that starts to pay.
//!
//! Run with: `cargo run --release --example multirail_aggregation`

use bytes::Bytes;
use piom_suite::des::{Sim, SimTime};
use piom_suite::net::{NetParams, Network};
use piom_suite::newmad::{rails, CommEngine, EngineConfig};

fn main() {
    // Every send slices its payload out of this one zero-filled buffer.
    let zeros = Bytes::from(vec![0u8; 1 << 20]);
    for (label, aggregation) in [
        ("direct (no optimizer)", false),
        ("collect + aggregate", true),
    ] {
        let net = Network::new(2, 2, NetParams::infiniband());
        let cfg = EngineConfig {
            aggregation,
            ..EngineConfig::newmadeleine()
        };
        let tx = CommEngine::new(0, net.clone(), cfg.clone());
        let rx = CommEngine::new(1, net.clone(), cfg);
        let mut sim = Sim::new();

        let mut recvs = Vec::new();
        for m in 0..64u64 {
            for flow in 0..4u64 {
                let tag = flow << 32 | m;
                recvs.push(rx.irecv(&mut sim, 0, tag));
                let (tx2, kib) = (tx.clone(), zeros.slice(0..1024));
                sim.schedule_abs(SimTime::from_ns(m * 50), move |sim| {
                    tx2.isend_bytes(sim, 1, tag, kib);
                });
            }
        }
        // Keypoint-like polling cadence on both nodes.
        for k in 0..10_000u64 {
            let (tx2, rx2) = (tx.clone(), rx.clone());
            sim.schedule_abs(SimTime::from_ns(k * 200), move |sim| {
                tx2.poll(sim);
                rx2.poll(sim);
            });
        }
        sim.run();

        let done = recvs
            .iter()
            .map(|r| r.completed_at().unwrap())
            .max()
            .unwrap();
        let packets = net.nic(0, 0).tx_count() + net.nic(0, 1).tx_count();
        println!(
            "{label:<24} wire packets: {packets:>4}   all delivered at: {done}   \
             (rail0 {} / rail1 {})",
            net.nic(0, 0).tx_count(),
            net.nic(0, 1).tx_count(),
        );
    }

    // Part 2: the striping scheduler on one large rendezvous transfer.
    let params = NetParams::infiniband();
    println!(
        "\neager/stripe crossover on this fabric (2 rails): {} B",
        rails::stripe_crossover(&params, 2)
    );
    const SIZE: usize = 1 << 20;
    for (label, multirail) in [("single rail", false), ("striped over 2 rails", true)] {
        let net = Network::new(2, 2, params.clone());
        let cfg = EngineConfig {
            stripe_threshold: if multirail { SIZE } else { usize::MAX },
            ..EngineConfig::newmadeleine()
        };
        let plan = rails::stripe_plan(&net, SimTime::ZERO, 0, SIZE, &cfg);
        let tx = CommEngine::new(0, net.clone(), cfg.clone());
        let rx = CommEngine::new(1, net.clone(), cfg);
        let mut sim = Sim::new();
        let r = rx.irecv(&mut sim, 0, 0);
        tx.isend_bytes(&mut sim, 1, 0, zeros.slice(0..SIZE));
        for k in 0..20_000u64 {
            let (tx2, rx2) = (tx.clone(), rx.clone());
            sim.schedule_abs(SimTime::from_ns(k * 200), move |sim| {
                tx2.poll(sim);
                rx2.poll(sim);
            });
        }
        sim.run();
        println!(
            "{label:<24} 1 MiB rendezvous done at: {}   plan: {} chunks   \
             (rail0 {} / rail1 {})",
            r.completed_at().unwrap(),
            plan.len(),
            net.nic(0, 0).tx_count(),
            net.nic(0, 1).tx_count(),
        );
    }
}
