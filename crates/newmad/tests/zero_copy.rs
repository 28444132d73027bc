//! Zero-copy regression tests: the engine's data path moves payloads by
//! reference-counted slicing, never by copying.
//!
//! Each test runs one of the four paths — eager, aggregated eager, striped
//! two-sided rendezvous and RDMA rendezvous — and checks the payload by
//! buffer identity: the received bytes are intact, and every segment of
//! the received rope lies inside the sender's source allocation. A copy
//! anywhere on the path (a flattened aggregate, a re-buffered eager body,
//! a reassembled chunk stream) leaves some segment in a fresh buffer and
//! fails the check.

use bytes::{Bytes, Rope};
use newmadeleine::{CommEngine, EngineConfig};
use piom_des::{Sim, SimTime};
use piom_net::{NetParams, Network};

fn pair(cfg: EngineConfig) -> (CommEngine, CommEngine, Sim) {
    let net = Network::new(2, 2, NetParams::infiniband());
    let a = CommEngine::new(0, net.clone(), cfg.clone());
    let b = CommEngine::new(1, net, cfg);
    (a, b, Sim::new())
}

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

/// Deterministic pseudo-random payload: position-dependent, so chunk
/// reordering or mis-slicing shows up as a content mismatch.
fn pattern(len: usize, seed: u8) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect::<Vec<u8>>(),
    )
}

/// Asserts that `received` is `source`, moved without a copy: the bytes
/// match, and every segment's address range lies inside `source`'s.
fn assert_same_buffer(tag: &str, received: &Rope, source: &Bytes) {
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

#[test]
fn eager_path_is_zero_copy() {
    let (a, b, mut sim) = pair(EngineConfig::newmadeleine());
    let data = pattern(1024, 7);
    let r = b.irecv(&mut sim, 0, 1);
    a.isend_bytes(&mut sim, 1, 1, data.clone());
    drive(&mut sim, &[&a, &b], SimTime::from_us(50));
    assert!(r.is_complete());
    assert_same_buffer("eager", &r.payload().expect("payload delivered"), &data);
}

#[test]
fn aggregated_path_is_zero_copy() {
    let (a, b, mut sim) = pair(EngineConfig::newmadeleine());
    let payloads: Vec<Bytes> = (0..8).map(|i| pattern(512, i)).collect();
    let recvs: Vec<_> = (0..8).map(|t| b.irecv(&mut sim, 0, t)).collect();
    let (a2, ps) = (a.clone(), payloads.clone());
    sim.schedule(SimTime::ZERO, move |sim| {
        for (tag, p) in ps.into_iter().enumerate() {
            a2.isend_bytes(sim, 1, tag as u64, p);
        }
    });
    drive(&mut sim, &[&a, &b], SimTime::from_us(100));
    assert!(a.stats().aggregate_packets >= 1, "burst must aggregate");
    for (r, p) in recvs.iter().zip(&payloads) {
        assert!(r.is_complete());
        assert_same_buffer("aggregate", &r.payload().expect("payload delivered"), p);
    }
}

#[test]
fn striped_rendezvous_is_zero_copy() {
    let (a, b, mut sim) = pair(EngineConfig::newmadeleine());
    let data = pattern(1 << 20, 3);
    let r = b.irecv(&mut sim, 0, 1);
    let s = a.isend_bytes(&mut sim, 1, 1, data.clone());
    drive(&mut sim, &[&a, &b], SimTime::from_ms(5));
    assert!(s.is_complete() && r.is_complete());
    assert!(
        a.stats().data_chunks_sent > 1,
        "1 MiB must be striped into several chunks"
    );
    // Reassembled from shared chunk windows over the source.
    assert_same_buffer(
        "striped rendezvous",
        &r.payload().expect("payload delivered"),
        &data,
    );
}

#[test]
fn rdma_rendezvous_is_zero_copy() {
    let (a, b, mut sim) = pair(EngineConfig::baseline_mpi());
    let data = pattern(1 << 20, 5);
    let r = b.irecv(&mut sim, 0, 1);
    let s = a.isend_bytes(&mut sim, 1, 1, data.clone());
    drive(&mut sim, &[&a, &b], SimTime::from_ms(5));
    assert!(s.is_complete() && r.is_complete());
    assert_same_buffer(
        "rdma rendezvous",
        &r.payload().expect("payload delivered"),
        &data,
    );
}
