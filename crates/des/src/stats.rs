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
}
