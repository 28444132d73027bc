//! Benchmark-owned maths: the seeded generator, the sample histogram, the
//! segmented measurement window, and the quartile spread the repeat mode
//! and the driver both judge a metric by.

use std::time::{Duration, Instant};

/// splitmix64 — the only source of randomness in the benchmark. The
/// program under test never sees it, only the inputs generated from it.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// small `n` the workloads draw).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Sub-bucket bits of [`Hist`]: values below `2^(SUB_BITS+1)` are exact,
/// larger ones keep `SUB_BITS` significant bits (≤ 0.1 % relative error —
/// well under the spreads the bounds are set against).
const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;
/// Largest exponent recorded exactly into a bucket (2^42 ns ≈ 73 min).
const MAX_EXP: u32 = 42;
const N_BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) << SUB_BITS;

/// Fixed-footprint log-linear histogram of nanosecond samples.
pub struct Hist {
    buckets: Box<[u32]>,
    count: u64,
    /// Touched bucket range, so clear / merge / scan skip the empty bulk.
    lo: usize,
    hi: usize,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            buckets: vec![0; N_BUCKETS].into_boxed_slice(),
            count: 0,
            lo: N_BUCKETS,
            hi: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < 2 * SUB {
            return v as usize;
        }
        let v = v.min((1 << MAX_EXP) - 1);
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (((shift as u64 + 1) << SUB_BITS) + ((v >> shift) - SUB)) as usize
    }

    /// Midpoint of bucket `i` (exact for the unit buckets).
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < 2 * SUB {
            return i as f64;
        }
        let shift = (i >> SUB_BITS) - 1;
        let lo = (SUB + (i & (SUB - 1))) << shift;
        lo as f64 + ((1u64 << shift) - 1) as f64 / 2.0
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        let i = Self::index(ns);
        self.buckets[i] += 1;
        self.count += 1;
        self.lo = self.lo.min(i);
        self.hi = self.hi.max(i);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile, `q` in `0..=1`. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for i in self.lo..=self.hi {
            seen += u64::from(self.buckets[i]);
            if seen >= rank {
                return Some(Self::value(i));
            }
        }
        unreachable!("count covers the touched range")
    }

    pub fn merge_from(&mut self, other: &Hist) {
        if other.count == 0 {
            return;
        }
        for i in other.lo..=other.hi {
            self.buckets[i] += other.buckets[i];
        }
        self.count += other.count;
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
    }

    pub fn clear(&mut self) {
        if self.count > 0 {
            self.buckets[self.lo..=self.hi].fill(0);
        }
        self.count = 0;
        self.lo = N_BUCKETS;
        self.hi = 0;
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile from the low end: the `⌈q·n⌉`-th smallest value.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn low_quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// driver judges spreads with that function, so the repeat mode must too.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: the clamp can push `j` past `i*m/4`, and Python then
        // extrapolates with a negative weight.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// What a finished [`Window`] measured.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// [`QUIET`] quantile over the segments of each segment's median
    /// request time, already divided by the ops each sample covers.
    pub latency_p50_ns: f64,
    /// The mirror quantile over the segments of (ops completed in the
    /// segment ÷ its wall time).
    pub throughput_ops_s: f64,
    /// The same two over *all* segments, busy ones included: median of the
    /// segment medians, and ops ÷ wall time of the whole window.
    /// Diagnostics — what the quiet quantile leaves out is visible here.
    pub latency_all_ns: f64,
    pub throughput_all_ops_s: f64,
    /// Whole-window tail of the request time (diagnostic, not gated).
    pub p99_ns: f64,
    pub p999_ns: f64,
    pub samples: u64,
    pub requests: u64,
    pub ops: u64,
    pub wall_s: f64,
}

/// The measured window: `SEGMENTS` equal segments, each closed on the first
/// request that ends past its deadline; each segment yields a median
/// request time and a throughput, and the window reports the [`QUIET`]
/// quantile of each.
///
/// Why not the median over segments: the host this has to be steady on is a
/// shared VM that alternates, on a scale of seconds, between a quiet mode
/// and one in which a neighbour on the physical core makes everything 10 to
/// 40 % slower, 30 to 55 % of the time. The median segment lands in one
/// mode or the other from run to run (5–6 % interquartile spread between
/// identical runs, bistable); the 5th-percentile segment sits in the quiet
/// mode as long as one segment in twenty is quiet (1.5–2.5 %). The segment
/// medians themselves stay medians over hundreds of requests, so this is no
/// best-case pick of single samples.
pub struct Window {
    seg_len: Duration,
    seg_start: Instant,
    seg_ops: u64,
    seg: Hist,
    all: Hist,
    seg_medians: Vec<f64>,
    seg_tputs: Vec<f64>,
    /// Elementary ops one histogram sample covers (32 for the batched
    /// inline timing, 1 elsewhere): the divisor of every latency.
    ops_per_sample: f64,
    requests: u64,
    ops: u64,
    wall: Duration,
}

pub const SEGMENTS: usize = 200;
/// Share of the segments the reported value leaves on its quiet side.
pub const QUIET: f64 = 0.05;

impl Window {
    /// Starts the clock.
    pub fn start(seconds: f64, ops_per_sample: u32) -> Self {
        let (seg, all) = (Hist::new(), Hist::new());
        Window {
            seg_len: Duration::from_secs_f64(seconds / SEGMENTS as f64),
            seg_start: Instant::now(),
            seg_ops: 0,
            seg,
            all,
            seg_medians: Vec::with_capacity(SEGMENTS),
            seg_tputs: Vec::with_capacity(SEGMENTS),
            ops_per_sample: f64::from(ops_per_sample),
            requests: 0,
            ops: 0,
            wall: Duration::ZERO,
        }
    }

    /// Records one sample that ended at `end` and covered `requests`
    /// requests / `ops` elementary ops. Returns `false` once the last
    /// segment closed: the caller stops issuing requests.
    #[inline]
    pub fn record(&mut self, end: Instant, sample_ns: u64, requests: u64, ops: u64) -> bool {
        self.seg.record(sample_ns);
        self.seg_ops += ops;
        self.requests += requests;
        self.ops += ops;
        let elapsed = end.duration_since(self.seg_start);
        if elapsed < self.seg_len {
            return true;
        }
        self.close_segment(elapsed)
    }

    #[cold]
    fn close_segment(&mut self, elapsed: Duration) -> bool {
        let p50 = self.seg.percentile(0.5).expect("segment has a sample");
        self.seg_medians.push(p50 / self.ops_per_sample);
        self.seg_tputs
            .push(self.seg_ops as f64 / elapsed.as_secs_f64());
        self.wall += elapsed;
        self.all.merge_from(&self.seg);
        self.seg.clear();
        self.seg_ops = 0;
        // Restart the clock after the bookkeeping so it is charged to no
        // segment.
        self.seg_start = Instant::now();
        self.seg_medians.len() < SEGMENTS
    }

    pub fn finish(self) -> WindowReport {
        assert!(
            !self.seg_medians.is_empty(),
            "window closed without a full segment"
        );
        let tail = |q| self.all.percentile(q).expect("samples") / self.ops_per_sample;
        let negated: Vec<f64> = self.seg_tputs.iter().map(|t| -t).collect();
        WindowReport {
            latency_p50_ns: low_quantile(&self.seg_medians, QUIET),
            throughput_ops_s: -low_quantile(&negated, QUIET),
            latency_all_ns: median(&self.seg_medians),
            throughput_all_ops_s: self.ops as f64 / self.wall.as_secs_f64(),
            p99_ns: tail(0.99),
            p999_ns: tail(0.999),
            samples: self.all.count(),
            requests: self.requests,
            ops: self.ops,
            wall_s: self.wall.as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_a_pure_function_of_the_seed() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        // Reference vector of splitmix64 (seed 0), so the stream can never
        // drift silently and re-shuffle every recorded workload.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn below_and_shuffle_stay_in_range_and_permute() {
        let mut r = SplitMix64::new(42);
        assert!((0..10_000).all(|_| r.below(5) < 5));
        let mut items: Vec<u32> = (0..16).collect();
        r.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_ne!(items, sorted, "16! orders: identity would be a bug");
    }

    #[test]
    fn hist_is_exact_below_2048_and_within_a_thousandth_above() {
        for v in [0u64, 1, 17, 2047] {
            assert_eq!(Hist::value(Hist::index(v)), v as f64);
        }
        for v in [2048u64, 2049, 15_000, 1_000_003, 1 << 40] {
            let back = Hist::value(Hist::index(v));
            assert!(
                (back - v as f64).abs() / v as f64 <= 1.0 / 1024.0,
                "{v} -> {back}"
            );
        }
        // Past the top exponent everything lands in the last bucket.
        assert_eq!(Hist::index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn hist_percentiles_are_nearest_rank() {
        let mut h = Hist::new();
        assert_eq!(h.percentile(0.5), None);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), Some(50.0));
        assert_eq!(h.percentile(0.99), Some(99.0));
        assert_eq!(h.percentile(1.0), Some(100.0));
        assert_eq!(h.percentile(0.0), Some(1.0));
        let mut g = Hist::new();
        g.record(1000);
        g.merge_from(&h);
        assert_eq!(g.count(), 101);
        assert_eq!(g.percentile(1.0), Some(1000.0));
        g.clear();
        assert_eq!((g.count(), g.percentile(0.5)), (0, None));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // Two points extrapolate exactly as Python does: [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn low_quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(low_quantile(&v, 0.05), 10.0);
        assert_eq!(low_quantile(&v, 0.25), 50.0);
        assert_eq!(low_quantile(&v, 0.0), 1.0);
        assert_eq!(low_quantile(&v, 1.0), 200.0);
        assert_eq!(low_quantile(&[3.0, 1.0, 2.0, 5.0, 4.0], 0.25), 2.0);
    }

    #[test]
    fn window_reports_the_quiet_quantile_of_segment_medians() {
        // Drive the window with synthetic instants: 4 samples per segment,
        // segment s has median sample 4*(10+s)+1 ns over 4 ops each (all
        // below 2048 ns, where the histogram is exact) — and takes longer
        // the later it is, so the early segments are the quiet ones.
        let mut w = Window::start(SEGMENTS as f64, 4);
        let mut go = true;
        let mut s = 0u64;
        while go {
            let base = w.seg_start;
            for k in 0..4u64 {
                let sample = 4 * (10 + s) + k; // medians: rank 2 of 4
                let end = base + Duration::from_micros((300_000 + 100 * s) * (k + 1));
                go = w.record(end, sample, 1, 4);
            }
            s += 1;
        }
        assert_eq!(s, SEGMENTS as u64, "one close per segment");
        let r = w.finish();
        // Segment medians are (40+4s+1)/4 for s in 0..200: the 10th
        // smallest is s=9, the median the mean of s=99 and s=100.
        let at = |s: f64| (40.0 + 4.0 * s + 1.0) / 4.0;
        assert!((r.latency_p50_ns - at(9.0)).abs() < 1e-9, "{r:?}");
        assert!((r.latency_all_ns - at(99.5)).abs() < 1e-9, "{r:?}");
        assert_eq!((r.requests, r.ops, r.samples), (800, 3200, 800));
        // 16 ops per 4·(300+s/10) ms segment: the 10th fastest is s=9.
        assert!((r.throughput_ops_s - 16.0 / 1.2036).abs() < 1e-9, "{r:?}");
        let wall: f64 = (0..200)
            .map(|s| 4.0 * (300.0 + 0.1 * f64::from(s)) / 1e3)
            .sum();
        assert!((r.wall_s - wall).abs() < 1e-6);
        assert!((r.throughput_all_ops_s - 3200.0 / wall).abs() < 1e-6);
    }
}
