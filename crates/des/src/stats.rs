//! Online statistics used by benchmark harnesses.

use crate::SimTime;

/// Streaming mean / min / max / variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds a [`SimTime`] sample in nanoseconds.
    pub fn push_time(&mut self, t: SimTime) {
        self.push(t.as_ns() as f64);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The distribution vocabulary every measurement surface speaks: one
/// struct carrying the tail quantiles production systems gate on.
///
/// Both producers return it — the exact [`Percentiles`] reservoir here
/// (small sample sets, test oracle) and the fixed-footprint sharded
/// histogram in `pioman::hist` (hot-path capture) — so DES scenario
/// reports and the stats snapshot agree on what "a latency
/// distribution" is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PercentileSummary {
    /// Number of samples summarized.
    pub count: u64,
    /// Arithmetic mean of the samples.
    pub mean: f64,
    /// Median (nearest-rank p50).
    pub p50: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// 99.9th percentile (nearest-rank).
    pub p999: f64,
    /// Largest sample.
    pub max: f64,
}

/// A sample reservoir with exact percentile queries.
///
/// Harness runs are modest (≤ a few million samples), so keeping every
/// sample and sorting on demand is both exact and fast enough; the sort is
/// cached until the next push.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Empty reservoir.
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The `q`-quantile (`q` in `[0,1]`) by nearest-rank; `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
        let rank = ((self.samples.len() as f64 * q).ceil() as usize).clamp(1, self.samples.len());
        Some(self.samples[rank - 1])
    }

    /// Median.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The shared distribution vocabulary ([`PercentileSummary`]), with
    /// every field exact — this is the sequential oracle the bucketed
    /// `pioman::hist` summaries are property-tested against. All-zero if
    /// the reservoir is empty.
    pub fn summary(&mut self) -> PercentileSummary {
        let count = self.samples.len() as u64;
        if count == 0 {
            return PercentileSummary {
                count: 0,
                mean: 0.0,
                p50: 0.0,
                p99: 0.0,
                p999: 0.0,
                max: 0.0,
            };
        }
        PercentileSummary {
            count,
            mean: self.samples.iter().sum::<f64>() / count as f64,
            p50: self.quantile(0.5).expect("nonempty"),
            p99: self.quantile(0.99).expect("nonempty"),
            p999: self.quantile(0.999).expect("nonempty"),
            max: self.quantile(1.0).expect("nonempty"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        // Known population stddev 2.0 -> sample variance = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 7 % 13) as f64).collect();
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        xs[..37].iter().for_each(|&x| left.push(x));
        xs[37..].iter().for_each(|&x| right.push(x));
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 3.0);
    }

    #[test]
    fn push_time_uses_ns() {
        let mut s = OnlineStats::new();
        s.push_time(SimTime::from_us(1));
        assert_eq!(s.mean(), 1_000.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut p = Percentiles::new();
        for x in [15.0, 20.0, 35.0, 40.0, 50.0] {
            p.push(x);
        }
        assert_eq!(p.quantile(0.05), Some(15.0));
        assert_eq!(p.quantile(0.30), Some(20.0));
        assert_eq!(p.quantile(0.40), Some(20.0));
        assert_eq!(p.median(), Some(35.0));
        assert_eq!(p.quantile(1.0), Some(50.0));
        assert_eq!(p.quantile(0.0), Some(15.0), "q=0 clamps to first");
    }

    #[test]
    fn percentiles_empty_and_unsorted_pushes() {
        let mut p = Percentiles::new();
        assert_eq!(p.median(), None);
        p.push(5.0);
        assert_eq!(p.median(), Some(5.0));
        p.push(1.0); // invalidates cached sort
        assert_eq!(p.quantile(0.0), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_out_of_range_panics() {
        Percentiles::new().quantile(1.5);
    }

    #[test]
    fn summary_reports_exact_fields() {
        let mut p = Percentiles::new();
        for x in 1..=1000 {
            p.push(x as f64);
        }
        let s = p.summary();
        assert_eq!(s.count, 1000);
        assert!((s.mean - 500.5).abs() < 1e-9);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.p999, 999.0);
        assert_eq!(s.max, 1000.0);
    }

    #[test]
    fn summary_of_empty_is_all_zero() {
        let s = Percentiles::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0.0);
    }
}
