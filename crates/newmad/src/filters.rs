//! Data-filter tasks (paper §IV-B, extension).
//!
//! "Idle cores could also be used to exploit efficiently slow networks or
//! grid configurations: tasks could be created to apply data filters such
//! as data compression, encryption or encoding/decoding."
//!
//! This module models exactly that trade: a [`Filter`] consumes CPU time
//! (on an idle core, via a PIOMan-style task) to change the payload size;
//! [`filtered_send_time`] predicts whether filtering pays off on a given
//! link, and [`send_filtered`] runs it in the simulation. The interesting
//! behaviour is the crossover: compression wins on a TCP-class link and
//! loses on InfiniBand, where the wire is faster than the compressor.

use crate::{CommEngine, ReqHandle};
use piom_des::{Sim, SimTime};
use piom_net::NetParams;

/// A streaming data transformation applied before transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Filter {
    /// Output size as a fraction of input size (0.4 = compresses to 40%).
    pub size_ratio: f64,
    /// CPU cost per input byte, picoseconds.
    pub cpu_per_byte_ps: u64,
    /// Fixed setup cost per message, ns.
    pub setup_ns: u64,
}

impl Filter {
    /// An LZ-class compressor: decent ratio, cheap.
    pub fn fast_compression() -> Self {
        Filter {
            size_ratio: 0.45,
            cpu_per_byte_ps: 550,
            setup_ns: 800,
        }
    }

    /// A stream cipher: size-preserving, moderate cost.
    pub fn encryption() -> Self {
        Filter {
            size_ratio: 1.0,
            cpu_per_byte_ps: 400,
            setup_ns: 500,
        }
    }

    /// A no-op filter (identity), useful as a baseline.
    pub fn identity() -> Self {
        Filter {
            size_ratio: 1.0,
            cpu_per_byte_ps: 0,
            setup_ns: 0,
        }
    }

    /// CPU time to filter `size` input bytes.
    pub fn cpu_time(&self, size: usize) -> SimTime {
        SimTime::from_ns(self.setup_ns + (size as u64 * self.cpu_per_byte_ps) / 1_000)
    }

    /// Output size for `size` input bytes (at least 1 byte for nonempty
    /// input — headers never vanish).
    pub fn output_size(&self, size: usize) -> usize {
        if size == 0 {
            return 0;
        }
        ((size as f64 * self.size_ratio).round() as usize).max(1)
    }
}

/// Predicted wire-plus-filter time for sending `size` bytes through
/// `filter` over a link with `params`, assuming the filter runs on an
/// otherwise idle core (so it serializes before the send, but steals no
/// application CPU).
pub fn filtered_send_time(filter: &Filter, size: usize, params: &NetParams) -> SimTime {
    filter.cpu_time(size)
        + params.occupancy()
        + params.byte_time(filter.output_size(size))
        + params.latency()
}

/// Unfiltered send time for comparison.
pub fn raw_send_time(size: usize, params: &NetParams) -> SimTime {
    params.occupancy() + params.byte_time(size) + params.latency()
}

/// `true` if applying `filter` is predicted to beat the raw send.
pub fn filter_pays_off(filter: &Filter, size: usize, params: &NetParams) -> bool {
    filtered_send_time(filter, size, params) < raw_send_time(size, params)
}

/// Runs a filtered send in the simulation: the filter occupies an idle core
/// for its CPU time, then the (smaller) payload is submitted to the engine.
/// Returns the send's request handle via the completion of the returned
/// handle (the handle completes when the filtered payload has been
/// submitted and the engine reports the send complete).
pub fn send_filtered(
    engine: &CommEngine,
    sim: &mut Sim,
    filter: Filter,
    dst: usize,
    app_tag: u64,
    size: usize,
) -> ReqHandle {
    let out_size = filter.output_size(size);
    let handle = ReqHandle::new();
    let engine = engine.clone();
    let h2 = handle.clone();
    sim.schedule(filter.cpu_time(size), move |sim| {
        let inner = engine.isend(sim, dst, app_tag, out_size);
        let h3 = h2.clone();
        inner.on_complete(sim, move |sim| h3.complete(sim));
    });
    handle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use piom_net::Network;

    #[test]
    fn output_sizes_and_costs() {
        let f = Filter::fast_compression();
        assert_eq!(f.output_size(0), 0);
        assert_eq!(f.output_size(1000), 450);
        assert!(f.output_size(1) >= 1);
        assert!(f.cpu_time(1 << 20) > SimTime::from_us(500));
        assert_eq!(Filter::identity().cpu_time(1 << 20), SimTime::ZERO);
        assert_eq!(Filter::encryption().output_size(512), 512);
    }

    #[test]
    fn compression_pays_on_slow_links_not_on_fast() {
        let f = Filter::fast_compression();
        let size = 1 << 20;
        assert!(
            filter_pays_off(&f, size, &NetParams::tcp_ethernet()),
            "compression must win on a 110 MB/s link"
        );
        assert!(
            !filter_pays_off(&f, size, &NetParams::infiniband()),
            "compression must lose on a 1.2 GB/s link"
        );
    }

    #[test]
    fn identity_filter_never_pays_off_strictly() {
        let f = Filter::identity();
        for p in [NetParams::infiniband(), NetParams::tcp_ethernet()] {
            assert!(!filter_pays_off(&f, 4096, &p));
            assert_eq!(filtered_send_time(&f, 4096, &p), raw_send_time(4096, &p));
        }
    }

    #[test]
    fn simulated_filtered_send_beats_raw_on_tcp() {
        // End-to-end in the DES: compressed 256 KB eager-threshold-bumped
        // transfer over TCP-class fabric arrives earlier than raw.
        let run = |filter: Filter| {
            let cfg = EngineConfig {
                eager_threshold: 1 << 20, // keep it eager for a clean compare
                aggregation: false,
                ..EngineConfig::newmadeleine()
            };
            let net = Network::new(2, 2, NetParams::tcp_ethernet());
            let a = CommEngine::new(0, net.clone(), cfg.clone());
            let (b, mut sim) = (CommEngine::new(1, net, cfg), Sim::new());
            let size = 256 * 1024;
            let r = b.irecv(&mut sim, 0, 9);
            send_filtered(&a, &mut sim, filter, 1, 9, size);
            // Poll both engines periodically until delivery.
            for k in 0..200_000u64 {
                let (a2, b2) = (a.clone(), b.clone());
                sim.schedule_abs(SimTime::from_ns(k * 1_000), move |sim| {
                    a2.poll(sim);
                    b2.poll(sim);
                });
            }
            sim.run();
            r.completed_at().expect("delivered")
        };
        let raw = run(Filter::identity());
        let compressed = run(Filter::fast_compression());
        assert!(
            compressed < raw,
            "compression should win on TCP: raw {raw}, compressed {compressed}"
        );
    }
}
