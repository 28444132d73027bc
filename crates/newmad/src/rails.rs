//! Multirail striping scheduler (paper §IV-B, "multirail distribution").
//!
//! NewMadeleine's optimization layer does not just *use* several rails; it
//! schedules over them. This module is that scheduler. It reads rail
//! state through the three-method [`RailView`]; [`pick_rail`] and
//! [`stripe_plan`] are the same functions over a simulated
//! [`piom_net::Network`]:
//!
//! * [`pick_rail`] — least-loaded rail selection for eager/control
//!   packets, driven by the exact per-rail drain time
//!   [`RailView::rail_eta`] (occupancy tracking, not round-robin:
//!   a rail still streaming a rendezvous chunk is charged for it);
//! * [`stripe_plan`] — splits a rendezvous payload into chunks of at most
//!   `rndv_chunk` bytes and water-fills them across rails, so a transfer
//!   finishes when the *least* loaded set of engines drains rather than
//!   the round-robin worst case;
//! * [`stripe_crossover`] — the documented eager/stripe crossover size
//!   (see below).
//!
//! # Crossover math
//!
//! Streaming `s` bytes on one rail costs `s·per_byte`; striped over `r`
//! rails the bandwidth term drops to `≈ s·per_byte/r`. But striping rides
//! the rendezvous path, which prefixes a handshake of one RTS and one CTS
//! flight before payload bytes move: `≈ 2·(latency + occupancy)`. The
//! striped rendezvous therefore beats a single eager packet once
//!
//! ```text
//! s · per_byte · (1 − 1/r)  >  2 · (latency + occupancy)
//! s*  =  2 · (latency + occupancy) / per_byte  ·  r / (r − 1)
//! ```
//!
//! For the InfiniBand preset and 2 rails, `s* ≈ 9.9 KiB` — below the
//! 16 KiB eager threshold, so the default
//! [`EngineConfig::stripe_threshold`] of 32 KiB is conservative: every
//! striped transfer is comfortably past the crossover, and sizes between
//! the eager threshold and the stripe threshold still use a single rail
//! (chunk pipelining, no stripe) to keep occupancy cost minimal.

use crate::EngineConfig;
use piom_des::SimTime;
use piom_net::{NetParams, Network};

/// One scheduled slice of a striped transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeChunk {
    /// Rail the chunk streams on.
    pub rail: usize,
    /// Byte offset into the payload.
    pub offset: usize,
    /// Chunk length in bytes.
    pub len: usize,
}

/// What the scheduler reads of one node's rails. Times are nanoseconds.
pub trait RailView {
    /// Number of rails (at least one).
    fn n_rails(&self) -> usize;
    /// Instant at which everything submitted to `rail` so far has left the
    /// NIC, i.e. when a packet submitted at `now` would start streaming.
    fn rail_eta(&self, rail: usize, now: u64) -> u64;
    /// Time one packet of `len` bytes occupies a rail's send engine.
    fn tx_cost(&self, len: usize) -> u64;
}

/// `node`'s rails on a simulated [`Network`].
pub(crate) struct NodeRails<'a> {
    pub(crate) net: &'a Network,
    pub(crate) node: usize,
}

impl RailView for NodeRails<'_> {
    fn n_rails(&self) -> usize {
        self.net.n_rails()
    }
    fn rail_eta(&self, rail: usize, now: u64) -> u64 {
        let now = SimTime::from_ns(now);
        self.net.rail_eta(now, self.node, rail).as_ns()
    }
    fn tx_cost(&self, len: usize) -> u64 {
        let p = self.net.params();
        p.occupancy().as_ns() + p.byte_time(len).as_ns()
    }
}

/// Least-loaded rail for a packet submitted at `now` from `node`: the rail
/// whose send engine drains earliest (ties go to the lowest index, keeping
/// the choice deterministic).
pub fn pick_rail(net: &Network, now: SimTime, node: usize) -> usize {
    pick_rail_in(&NodeRails { net, node }, now.as_ns())
}

/// [`pick_rail`] over any [`RailView`].
pub fn pick_rail_in(view: &impl RailView, now: u64) -> usize {
    (0..view.n_rails())
        .min_by_key(|&r| (view.rail_eta(r, now), r))
        .expect("at least one rail")
}

/// Plans a rendezvous transfer of `size` bytes from `node` at `now`.
///
/// Small (`size < cfg.stripe_threshold`) or single-rail transfers yield
/// one chunk on the least-loaded rail. Large ones are cut into
/// `max(⌈size / rndv_chunk⌉, n_rails)` contiguous chunks (so every rail
/// gets work even when one `rndv_chunk` would cover the payload) and
/// water-filled: each chunk goes to the rail with the smallest projected
/// drain time, which both balances an idle fabric and *skews away from*
/// rails still busy with earlier traffic.
///
/// The returned chunks are contiguous, cover `[0, size)` exactly, and are
/// indexed in offset order — chunk `i`'s wire header is `Data { chunk: i,
/// of: plan.len() }`.
pub fn stripe_plan(
    net: &Network,
    now: SimTime,
    node: usize,
    size: usize,
    cfg: &EngineConfig,
) -> Vec<StripeChunk> {
    stripe_plan_in(&NodeRails { net, node }, now.as_ns(), size, cfg)
}

/// [`stripe_plan`] over any [`RailView`].
pub fn stripe_plan_in(
    view: &impl RailView,
    now: u64,
    size: usize,
    cfg: &EngineConfig,
) -> Vec<StripeChunk> {
    let rails = view.n_rails();
    if !cfg.multirail_data || rails < 2 || size < cfg.stripe_threshold {
        return vec![StripeChunk {
            rail: pick_rail_in(view, now),
            offset: 0,
            len: size,
        }];
    }
    let n = size
        .div_ceil(cfg.rndv_chunk.max(1))
        .max(rails)
        .min(size.max(1)); // never plan zero-length chunks
    let base = size / n;
    let rem = size % n;
    let mut eta: Vec<u64> = (0..rails).map(|r| view.rail_eta(r, now)).collect();
    let mut plan = Vec::with_capacity(n);
    let mut offset = 0;
    for i in 0..n {
        let len = base + usize::from(i < rem);
        let rail = (0..rails)
            .min_by_key(|&r| (eta[r], r))
            .expect("rails >= 2 here");
        eta[rail] += view.tx_cost(len);
        plan.push(StripeChunk { rail, offset, len });
        offset += len;
    }
    plan
}

/// The eager/stripe crossover size `s*` for `rails` rails on `params`
/// (see the module docs for the derivation). Below `s*` a single eager
/// packet is faster; above it the striped rendezvous wins. Returns
/// `usize::MAX` when `rails < 2` or the link has no bandwidth term
/// (striping can then never pay for its handshake).
pub fn stripe_crossover(params: &NetParams, rails: usize) -> usize {
    if rails < 2 || params.per_byte_ps == 0 {
        return usize::MAX;
    }
    let handshake_ps = 2 * (params.latency_ns + params.occupancy_ns) as u128 * 1000;
    let denom = params.per_byte_ps as u128 * (rails as u128 - 1);
    (handshake_ps * rails as u128 / denom) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use piom_des::Sim;
    use piom_net::Message;
    use std::rc::Rc;

    fn quiet_net(rails: usize) -> Rc<Network> {
        Network::new(2, rails, NetParams::infiniband())
    }

    #[test]
    fn plan_covers_the_payload_exactly_and_in_order() {
        let net = quiet_net(4);
        let cfg = EngineConfig::newmadeleine();
        let size = 100_001; // deliberately not a multiple of anything
        let plan = stripe_plan(&net, SimTime::ZERO, 0, size, &cfg);
        assert!(plan.len() >= 4, "at least one chunk per rail");
        let mut offset = 0;
        for c in &plan {
            assert_eq!(c.offset, offset, "chunks must be contiguous");
            assert!(c.len > 0);
            offset += c.len;
        }
        assert_eq!(offset, size, "plan must cover the payload");
        // Chunk sizes differ by at most one byte (even cut).
        let min = plan.iter().map(|c| c.len).min().unwrap();
        let max = plan.iter().map(|c| c.len).max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn idle_fabric_spreads_chunks_across_all_rails() {
        let net = quiet_net(4);
        let cfg = EngineConfig::newmadeleine();
        let plan = stripe_plan(&net, SimTime::ZERO, 0, 256 * 1024, &cfg);
        for r in 0..4 {
            let bytes: usize = plan.iter().filter(|c| c.rail == r).map(|c| c.len).sum();
            assert!(bytes > 0, "rail {r} got no work on an idle fabric");
        }
    }

    #[test]
    fn busy_rail_receives_less_work() {
        let net = quiet_net(2);
        let mut sim = Sim::new();
        net.nic(1, 0).set_rx_handler(Rc::new(|_, _| {}));
        // Load rail 0 with a large foreign transfer.
        net.send(
            &mut sim,
            Message {
                src: 0,
                dst: 1,
                rail: 0,
                tag: 0,
                size: 512 * 1024,
                data: None,
            },
        );
        let cfg = EngineConfig::newmadeleine();
        let plan = stripe_plan(&net, sim.now(), 0, 256 * 1024, &cfg);
        let on0: usize = plan.iter().filter(|c| c.rail == 0).map(|c| c.len).sum();
        let on1: usize = plan.iter().filter(|c| c.rail == 1).map(|c| c.len).sum();
        assert!(
            on1 > on0,
            "water-filling must skew away from the busy rail ({on0} vs {on1})"
        );
        // And eager packets avoid the busy rail outright.
        assert_eq!(pick_rail(&net, sim.now(), 0), 1);
    }

    #[test]
    fn small_or_single_rail_transfers_do_not_stripe() {
        let net = quiet_net(4);
        let cfg = EngineConfig::newmadeleine();
        let plan = stripe_plan(&net, SimTime::ZERO, 0, 1024, &cfg);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].len, 1024);

        let single = quiet_net(1);
        let plan = stripe_plan(&single, SimTime::ZERO, 0, 1 << 20, &cfg);
        assert_eq!(plan.len(), 1, "one rail: nothing to stripe over");

        let mut no_multi = EngineConfig::newmadeleine();
        no_multi.multirail_data = false;
        let plan = stripe_plan(&net, SimTime::ZERO, 0, 1 << 20, &no_multi);
        assert_eq!(plan.len(), 1, "multirail disabled: single chunk");
    }

    #[test]
    fn crossover_matches_the_documented_formula() {
        let p = NetParams::infiniband();
        // 2·(1700+350) ns ⇒ 4100 ns handshake; 830 ps/B; r/(r−1) = 2.
        let s = stripe_crossover(&p, 2);
        assert_eq!(s, 2 * 4_100_000 / 830);
        assert!(
            (9_000..11_000).contains(&s),
            "IB 2-rail crossover ≈ 9.9 KiB"
        );
        // More rails amortize better: crossover shrinks toward 1×.
        assert!(stripe_crossover(&p, 4) < s);
        assert_eq!(stripe_crossover(&p, 1), usize::MAX);
    }
}
