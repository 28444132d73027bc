//! The shapes the multirail data path must produce, in simulated time
//! only (no host clock anywhere): effective bandwidth grows with message
//! size as the rendezvous handshake amortizes, the documented
//! eager/stripe crossover (`rails::stripe_crossover`) separates the two
//! protocols on both sides, and more rails mean more bandwidth and a
//! smaller crossover.

use bytes::Bytes;
use newmadeleine::{rails, CommEngine, EngineConfig};
use piom_des::{Sim, SimTime};
use piom_net::{NetParams, Network};

/// Simulated receive-completion time, in ns, of one `size`-byte transfer
/// between a fresh engine pair on an `n_rails`-rail InfiniBand fabric,
/// both sides polled every 500 ns.
fn transfer_ns(size: usize, cfg: EngineConfig, n_rails: usize) -> u64 {
    let params = NetParams::infiniband();
    // Poll horizon: handshake slack plus twice the single-rail byte time.
    let horizon_ns = 100_000 + 2 * params.byte_time(size).as_ns();
    let net = Network::new(2, n_rails, params);
    let a = CommEngine::new(0, net.clone(), cfg.clone());
    let b = CommEngine::new(1, net, cfg);
    let mut sim = Sim::new();
    let r = b.irecv(&mut sim, 0, 1);
    a.isend_bytes(&mut sim, 1, 1, Bytes::from(vec![0u8; size]));
    for k in 0..horizon_ns / 500 {
        let (a, b) = (a.clone(), b.clone());
        sim.schedule_abs(SimTime::from_ns(k * 500), move |sim| {
            a.poll(sim);
            b.poll(sim);
        });
    }
    sim.run();
    r.completed_at().expect("transfer must complete").as_ns()
}

/// Effective bandwidth of the same transfer, in bytes per simulated ns.
fn bandwidth(size: usize, n_rails: usize) -> f64 {
    size as f64 / transfer_ns(size, EngineConfig::newmadeleine(), n_rails) as f64
}

#[test]
fn bandwidth_grows_up_the_message_size_ladder() {
    let bw = [64 << 10, 256 << 10, 1 << 20].map(|size| bandwidth(size, 2));
    assert!(
        bw[0] < bw[1] && bw[1] < bw[2],
        "64 KiB / 256 KiB / 1 MiB over 2 rails must amortize the handshake: {bw:?} B/ns"
    );
}

#[test]
fn eager_wins_below_the_stripe_crossover_and_striping_wins_above() {
    let xover = rails::stripe_crossover(&NetParams::infiniband(), 2);

    let small = xover / 2;
    let eager = transfer_ns(small, EngineConfig::newmadeleine(), 2);
    let forced_stripe = transfer_ns(
        small,
        EngineConfig {
            eager_threshold: 1,
            stripe_threshold: 1,
            rndv_chunk: small.div_ceil(2),
            ..EngineConfig::newmadeleine()
        },
        2,
    );
    assert!(
        eager < forced_stripe,
        "at {small} B the handshake dominates: eager {eager} ns vs striped {forced_stripe} ns"
    );

    let big = 16 * xover;
    let striped = transfer_ns(big, EngineConfig::newmadeleine(), 2);
    let single_rail = transfer_ns(
        big,
        EngineConfig {
            stripe_threshold: usize::MAX,
            ..EngineConfig::newmadeleine()
        },
        2,
    );
    assert!(
        striped < single_rail,
        "at {big} B striping must win: {striped} ns vs one rail {single_rail} ns"
    );
}

#[test]
fn more_rails_raise_bandwidth_and_lower_the_crossover() {
    let mut prev_bw = 0.0;
    let mut prev_xover = usize::MAX;
    for n_rails in [2, 4, 8, 16] {
        let bw = bandwidth(1 << 20, n_rails);
        assert!(
            bw > prev_bw,
            "{n_rails} rails moved 1 MiB at {bw:.4} B/ns, not above {prev_bw:.4}"
        );
        prev_bw = bw;
        let xover = rails::stripe_crossover(&NetParams::infiniband(), n_rails);
        assert!(
            xover < prev_xover,
            "crossover {xover} B at {n_rails} rails, not below {prev_xover}"
        );
        prev_xover = xover;
    }
}
