//! The DES→histogram hand-off against the exact reservoir oracle
//! (`piom_des::stats::Percentiles`).
//!
//! Three input shapes: uniform streams, and the adversarial,
//! *scenario-shaped* ones — bursty clumps and geometric heavy tails, the
//! distributions the workload matrix actually records, where log-bucket
//! quantization error concentrates at the worst places (a whole burst
//! inside one bucket, a tail sample alone in a wide one). The property is
//! the same for all three: every quantile within the documented
//! half-bucket relative bound, and count/mean/max exact.

use piom_des::stats::Percentiles;
use piom_scenarios::hist::{Histogram, SUB_BITS};
use piom_scenarios::{registry, ScenarioParams};
use proptest::prelude::*;

/// Feeds `samples` through both the histogram (the matrix's path) and
/// the exact reservoir, then asserts the documented accuracy contract.
fn assert_hist_matches_oracle(samples: &[u64]) {
    let mut h = Histogram::new();
    let mut oracle = Percentiles::new();
    for &v in samples {
        h.record(v);
        oracle.push(v as f64);
    }
    for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
        let exact = oracle.quantile(q).expect("nonempty");
        let approx = h.quantile(q).expect("nonempty") as f64;
        let bound = exact / (1u64 << (SUB_BITS + 1)) as f64 + 1.0;
        assert!(
            (approx - exact).abs() <= bound,
            "q={q} exact={exact} approx={approx} bound={bound}"
        );
    }
    let mean = samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64;
    assert_eq!(h.count(), oracle.count() as u64);
    assert!((h.mean() - mean).abs() <= 1e-6 * (1.0 + mean));
    assert_eq!(
        Some(h.summary().max),
        oracle.quantile(1.0),
        "max is tracked exactly"
    );
}

/// Every registered scenario's *actual* sample stream holds the bound,
/// and the summary the scenario reports is exactly the histogram fold of
/// that stream — the hand-off seam has no third copy of the math.
#[test]
fn scenario_sample_streams_match_the_oracle_end_to_end() {
    let params = ScenarioParams::quick(42);
    for s in registry() {
        let mut samples = Vec::new();
        s.run_with_recorder(&params, &mut |v| samples.push(v));
        assert!(!samples.is_empty(), "{} recorded nothing", s.name);
        assert_hist_matches_oracle(&samples);

        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        assert_eq!(
            s.run(&params).summary,
            h.summary(),
            "{}'s report must be the histogram fold of its recorder stream",
            s.name
        );
    }
}

const CASES: u32 = if cfg!(miri) { 2 } else { 48 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Uniform draws below 10^7: most samples sit in the widest log
    /// buckets, where the absolute quantization error is largest.
    #[test]
    fn uniform_streams_stay_within_the_hist_bound(
        samples in proptest::collection::vec(0u64..10_000_000, 1..512),
    ) {
        assert_hist_matches_oracle(&samples);
    }

    /// Geometric heavy tails: mantissa × 2^shift draws spanning ~15
    /// decades, the mice-and-elephants mix. Log-bucket error is relative,
    /// so the bound must hold at every magnitude at once.
    #[test]
    fn heavy_tailed_streams_stay_within_the_hist_bound(
        draws in proptest::collection::vec((1u64..1024, 0u32..40), 1..256),
    ) {
        let samples: Vec<u64> = draws.iter().map(|&(m, s)| m << s).collect();
        assert_hist_matches_oracle(&samples);
    }

    /// Bursty clumps: runs of near-identical latencies (a burst draining
    /// through one server lands many samples in one bucket, the worst
    /// case for nearest-rank interpolation), separated by scale jumps.
    #[test]
    fn bursty_streams_stay_within_the_hist_bound(
        bursts in proptest::collection::vec(
            (1u64..1_000_000, 1usize..32, 0u64..500), 1..24,
        ),
    ) {
        let mut samples = Vec::new();
        for &(base, count, step) in &bursts {
            for i in 0..count {
                // A drain ramp: latency creeps up within the burst.
                samples.push(base + i as u64 * step);
            }
        }
        assert_hist_matches_oracle(&samples);
    }
}
