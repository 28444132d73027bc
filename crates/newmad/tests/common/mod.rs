//! The DES harness the engine's integration tests share: a two-node
//! fabric, the polling loops that drive it, and payloads whose every
//! segment can be traced back to the buffer it was sent from.

// Each test binary compiles this module and uses part of it.
#![allow(dead_code)]

use bytes::{Bytes, Rope};
use newmadeleine::{CommEngine, EngineConfig};
use piom_des::{Sim, SimTime};
use piom_net::{NetParams, Network};
use std::rc::Rc;

/// Bulk-transfer size: shrunk 8× under Miri (the interpreter is orders of
/// magnitude slower; every protocol path stays exercised).
pub const BULK: usize = if cfg!(miri) { 1 << 17 } else { 1 << 20 };

/// `len` zero bytes (at most `3 * BULK`), sliced from one buffer all sends
/// share.
pub fn zeros(len: usize) -> Bytes {
    static ZEROS: std::sync::OnceLock<Bytes> = std::sync::OnceLock::new();
    ZEROS.get_or_init(|| vec![0; 3 * BULK].into()).slice(0..len)
}

/// Two engines on a two-rail InfiniBand fabric.
pub fn pair(cfg: EngineConfig) -> (Rc<Network>, CommEngine, CommEngine, Sim) {
    let net = Network::new(2, 2, NetParams::infiniband());
    let a = CommEngine::new(0, net.clone(), cfg.clone());
    let b = CommEngine::new(1, net.clone(), cfg);
    (net, a, b, Sim::new())
}

/// Polls every engine every 500 ns over `span`, starting from `sim.now()`,
/// then runs the simulation out.
pub fn drive(sim: &mut Sim, engines: &[&CommEngine], span: SimTime) {
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

/// Runs the simulation to quiescence, polling every engine that has a
/// frame waiting after each event.
pub fn settle(sim: &mut Sim, engines: &[&CommEngine]) {
    while sim.step() {
        for e in engines {
            if e.rx_backlog() > 0 {
                e.poll(sim);
            }
        }
    }
}

/// Deterministic pseudo-random payload: position-dependent, so chunk
/// reordering or mis-slicing shows up as a content mismatch.
pub fn pattern(len: usize, seed: u8) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect::<Vec<u8>>(),
    )
}

/// Asserts that `received` is `source`, moved without a copy: the bytes
/// match, and every segment's address range lies inside `source`'s.
pub fn assert_same_buffer(tag: &str, received: &Rope, source: &Bytes) {
    assert_eq!(
        received.to_vec().as_slice(),
        source.as_ref(),
        "{tag}: payload corrupted"
    );
    let src = source.as_ptr_range();
    for seg in received.segments() {
        let s = seg.as_ptr_range();
        assert!(
            src.start <= s.start && s.end <= src.end,
            "{tag}: a {}-byte segment lies outside the sender's buffer",
            seg.len()
        );
    }
}
