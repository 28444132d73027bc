//! Matching order per `(src, tag)`: receives match in arrival order (see
//! `Core::irecv`). With one rail and a window of one packet
//! (`baseline_mpi`) a destination's packets arrive in send order, so two
//! same-key messages in flight at once match in send order there, however
//! their sizes differ.

mod common;

use common::{drive, pair, pattern};
use newmadeleine::EngineConfig;
use piom_des::SimTime;

#[test]
fn baseline_mpi_matches_same_key_eager_messages_in_send_order() {
    let (_net, a, b, mut sim) = pair(EngineConfig::baseline_mpi());
    let (large, small) = (pattern(16 << 10, 1), pattern(64, 2));
    let first = b.irecv(&mut sim, 0, 7);
    let second = b.irecv(&mut sim, 0, 7);
    a.isend_bytes(&mut sim, 1, 7, large.clone());
    a.isend_bytes(&mut sim, 1, 7, small.clone());
    drive(&mut sim, &[&a, &b], SimTime::from_us(200));
    assert_eq!(a.stats().rendezvous_started, 0, "both sends went eager");
    let got = |r: &newmadeleine::ReqHandle| r.payload().expect("matched").to_vec();
    assert_eq!(
        got(&first),
        large.as_ref(),
        "the first receive took the later send"
    );
    assert_eq!(got(&second), small.as_ref());
}
