//! The determinism contract the committed figures rest on: an engine run
//! over the simulated fabric is a pure function of its input schedule.
//! Same seed twice ⇒ the identical latency stream (completion order
//! included), identical engine counters and identical per-rail bytes; a
//! different seed must actually change the measured distribution.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use newmadeleine::{CommEngine, EngineConfig, EngineStats};
use piom_des::rng::SplitMix64;
use piom_des::{Sim, SimTime};
use piom_net::{NetParams, Network};

/// One seeded workload: `transfers` sends from node 0 to node 1 over
/// `rails` InfiniBand rails, spaced 18..26 µs apart, each of a size
/// uniform in `sizes`. Both engines are polled every microsecond until
/// 10 ms past the last submission.
struct Run {
    rails: usize,
    sizes: std::ops::Range<u64>,
    transfers: usize,
}

/// What a run leaves behind: send → receive-completion latencies in
/// completion order, the sender's counters, and each rail's tx bytes.
#[derive(Debug, PartialEq)]
struct Trace {
    latencies: Vec<u64>,
    sender: EngineStats,
    rail_bytes: Vec<u64>,
}

impl Run {
    fn trace(&self, seed: u64) -> Trace {
        let mut rng = SplitMix64::new(seed);
        let net = Network::new(2, self.rails, NetParams::infiniband());
        let cfg = EngineConfig {
            stripe_threshold: 32 * 1024,
            rndv_chunk: 16 * 1024,
            ..EngineConfig::newmadeleine()
        };
        let sender = CommEngine::new(0, net.clone(), cfg.clone());
        let receiver = CommEngine::new(1, net.clone(), cfg);
        let latencies: Rc<RefCell<Vec<u64>>> = Rc::default();
        let zeros = Bytes::from(vec![0u8; self.sizes.end as usize]);
        let mut sim = Sim::new();

        let mut t = SimTime::ZERO;
        for id in 0..self.transfers as u64 {
            t += SimTime::from_ns(18_000 + rng.next_below(8_000));
            let span = self.sizes.end - self.sizes.start;
            let size = (self.sizes.start + rng.next_below(span)) as usize;
            let (snd, rcv, out) = (sender.clone(), receiver.clone(), latencies.clone());
            let data = zeros.slice(0..size);
            sim.schedule_abs(t, move |sim| {
                let start = sim.now().as_ns();
                rcv.irecv(sim, 0, id).on_complete(sim, move |sim| {
                    out.borrow_mut().push(sim.now().as_ns() - start);
                });
                snd.isend_bytes(sim, 1, id, data);
            });
        }
        let horizon = t + SimTime::from_ms(10);
        let mut at = SimTime::ZERO;
        while at < horizon {
            let (snd, rcv) = (sender.clone(), receiver.clone());
            sim.schedule_abs(at, move |sim| {
                snd.poll(sim);
                rcv.poll(sim);
            });
            at += SimTime::from_us(1);
        }
        sim.run();

        let latencies = latencies.take();
        assert_eq!(
            latencies.len(),
            self.transfers,
            "every transfer must complete within the poll horizon"
        );
        Trace {
            latencies,
            sender: sender.stats(),
            rail_bytes: (0..self.rails).map(|r| net.nic(0, r).tx_bytes()).collect(),
        }
    }
}

/// 32..96 KiB over four rails: always rendezvous, always striped.
fn multirail_stripe() -> Run {
    Run {
        rails: 4,
        sizes: 32 * 1024..96 * 1024,
        transfers: 48,
    }
}

#[test]
fn same_seed_same_params_reproduces_bit_identically() {
    let runs = [
        // Eager only, one rail.
        Run {
            rails: 1,
            sizes: 1..4 * 1024,
            transfers: 48,
        },
        // Eager and rendezvous mixed across the stripe threshold.
        Run {
            rails: 2,
            sizes: 1..64 * 1024,
            transfers: 48,
        },
        multirail_stripe(),
    ];
    for run in &runs {
        assert_eq!(
            run.trace(42),
            run.trace(42),
            "{} rail(s), sizes {:?}: not a pure function of (params, seed)",
            run.rails,
            run.sizes
        );
    }
}

#[test]
fn a_different_seed_changes_the_distribution() {
    let run = multirail_stripe();
    let (a, b) = (run.trace(42), run.trace(1042));
    let mean = |t: &Trace| t.latencies.iter().sum::<u64>() / t.latencies.len() as u64;
    assert_ne!(
        mean(&a),
        mean(&b),
        "the seed must reach the latencies, or the workload pins one trajectory"
    );
}

#[test]
fn multirail_stripe_replays_bit_identically_across_seeds() {
    // The full engine path (rendezvous handshakes, pipeline windows, rail
    // striping) is the canary for nondeterminism anywhere in that stack:
    // every seed's trace, order included, must replay exactly.
    let run = multirail_stripe();
    for seed in [42, 1042, 7, 0xDEAD_BEEF] {
        let first = run.trace(seed);
        assert_eq!(
            first,
            run.trace(seed),
            "seed {seed} diverged through the engine"
        );
        assert_eq!(first.sender.rendezvous_started, run.transfers as u64);
        assert!(
            first.rail_bytes.iter().all(|&b| b > 0),
            "seed {seed}: striping left a rail idle: {:?}",
            first.rail_bytes
        );
    }
}
