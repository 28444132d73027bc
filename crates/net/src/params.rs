//! Link/NIC timing parameters, with the InfiniBand preset the experiments use.

use piom_des::SimTime;

/// Timing parameters of one network class.
#[derive(Debug, Clone)]
pub struct NetParams {
    /// One-way wire+switch latency per packet, ns.
    pub latency_ns: u64,
    /// Per-byte streaming cost, picoseconds (1 GB/s = 1000 ps/B).
    pub per_byte_ps: u64,
    /// NIC send-engine occupancy per packet (descriptor processing,
    /// doorbell, DMA setup), ns. This is the term that message aggregation
    /// amortizes (paper Fig. 1 / §II-A).
    pub occupancy_ns: u64,
    /// Extra setup for posting an RDMA operation, ns.
    pub rdma_setup_ns: u64,
}

impl NetParams {
    /// ConnectX-era InfiniBand DDR: ~4 µs end-to-end small-message latency
    /// once both hosts' overheads are counted, ~1.2 GB/s streaming.
    pub fn infiniband() -> Self {
        NetParams {
            latency_ns: 1_700,
            per_byte_ps: 830, // ~1.2 GB/s
            occupancy_ns: 350,
            rdma_setup_ns: 600,
        }
    }

    /// One-way latency.
    pub fn latency(&self) -> SimTime {
        SimTime::from_ns(self.latency_ns)
    }

    /// Streaming time for `size` bytes.
    pub fn byte_time(&self, size: usize) -> SimTime {
        SimTime::from_ns((size as u64 * self.per_byte_ps) / 1_000)
    }

    /// Send-engine occupancy per packet.
    pub fn occupancy(&self) -> SimTime {
        SimTime::from_ns(self.occupancy_ns)
    }

    /// RDMA posting cost.
    pub fn rdma_setup(&self) -> SimTime {
        SimTime::from_ns(self.rdma_setup_ns)
    }

    /// A one-sided read of `size` bytes, from its post to the last byte
    /// landed: the post, the request's flight, the data and its flight.
    pub fn pull_time(&self, size: usize) -> SimTime {
        self.rdma_setup() + self.latency() + self.byte_time(size) + self.latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_time_scales_linearly() {
        let p = NetParams::infiniband();
        assert_eq!(p.byte_time(0), SimTime::ZERO);
        assert_eq!(p.byte_time(2000).as_ns(), 2 * p.byte_time(1000).as_ns());
    }

    #[test]
    fn pull_time_cost_model() {
        let p = NetParams::infiniband();
        let size = 32 * 1024;
        let expected = p.rdma_setup() + p.latency() * 2 + p.byte_time(size);
        assert_eq!(p.pull_time(size), expected);
        // 600 + 2·1 700 + 32 768 · 0.830 ns.
        assert_eq!(p.pull_time(size).as_ns(), 31_197);
    }

    #[test]
    fn preset_sanity() {
        let ib = NetParams::infiniband();
        // 1 MB on IB takes ~0.87 ms.
        let t = ib.byte_time(1 << 20);
        assert!(t > SimTime::from_us(700) && t < SimTime::from_ms(1));
    }
}
