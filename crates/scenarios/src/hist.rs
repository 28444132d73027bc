//! The scenario matrix's latency histogram: log-bucketed (HDR-style)
//! resolution over the full `u64` range, one plain single-threaded
//! recorder.
//!
//! A [`Histogram`] records `u64` samples (simulated nanoseconds) into a
//! fixed array of buckets whose width grows with magnitude: values below
//! 2^[`SUB_BITS`] get exact unit buckets, and every power of two above
//! that is split into 2^[`SUB_BITS`] sub-buckets, bounding the relative
//! quantization error at one part in 2^[`SUB_BITS`] (~3% at the default
//! resolution) — the classic HDR-histogram layout, sized here at
//! [`BUCKETS`] slots (15 KiB; see `DESIGN.md` §6.3 for the trade). Count,
//! sum, min and max are kept exactly beside the buckets. The
//! `tests/hist_oracle.rs` proptests pin the bucket math against the exact
//! reservoir in `piom_des::stats::Percentiles`.

/// The distribution vocabulary every scenario report speaks: one struct
/// carrying the tail quantiles production systems gate on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PercentileSummary {
    /// Number of samples summarized.
    pub count: u64,
    /// Arithmetic mean of the samples.
    pub mean: f64,
    /// Median (p50).
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Largest sample.
    pub max: f64,
}

/// Sub-bucket resolution: each power-of-two range above `2^SUB_BITS` is
/// split into `2^SUB_BITS` buckets, so the widest bucket spanning a value
/// `v` is `v / 2^SUB_BITS` wide — ~3.1% worst-case relative error at 5.
pub const SUB_BITS: u32 = 5;

/// Sub-buckets per power-of-two range (`2^SUB_BITS`).
const SUB_COUNT: usize = 1 << SUB_BITS;

/// Total buckets needed to cover all of `u64`: the linear range
/// `0..2^SUB_BITS` plus `(64 - SUB_BITS)` log ranges of `SUB_COUNT`
/// sub-buckets each. 1920 at the default resolution.
pub const BUCKETS: usize = SUB_COUNT * (64 - SUB_BITS as usize + 1);

/// The bucket index covering value `v`. Monotone in `v`, continuous at
/// the linear/log boundary, and total over `u64`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        v as usize
    } else {
        // Highest set bit; `exp >= SUB_BITS` here, so the shift keeps
        // exactly SUB_BITS significant bits below the leading one.
        let exp = 63 - v.leading_zeros();
        let block = (exp - SUB_BITS + 1) as usize;
        let sub = ((v >> (exp - SUB_BITS)) as usize) & (SUB_COUNT - 1);
        (block << SUB_BITS) + sub
    }
}

/// The smallest value mapping to bucket `index` (inverse of
/// [`bucket_index`] on bucket lower bounds).
#[inline]
pub fn bucket_lower(index: usize) -> u64 {
    debug_assert!(index < BUCKETS);
    if index < SUB_COUNT {
        index as u64
    } else {
        let block = index >> SUB_BITS;
        let sub = (index & (SUB_COUNT - 1)) as u64;
        (SUB_COUNT as u64 + sub) << (block - 1)
    }
}

/// The largest value mapping to bucket `index` (saturating for the final
/// bucket, whose range ends at `u64::MAX`).
#[inline]
pub fn bucket_upper(index: usize) -> u64 {
    if index + 1 < BUCKETS {
        bucket_lower(index + 1) - 1
    } else {
        u64::MAX
    }
}

/// A log-bucketed sample histogram with exact count, sum, min and max,
/// so the mean and the extremes carry no quantization error.
///
/// # Examples
///
/// ```
/// use piom_scenarios::hist::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [10, 20, 30, 40, 1_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), Some(1_000));
/// assert_eq!(h.quantile(0.5), Some(30)); // exact: 30 < 2^5
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    /// `u64::MAX` until the first sample.
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample. The sum wraps rather than panics on overflow.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (not bucket-resolved).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean (0 if empty) — computed from the exact sum, so it
    /// carries no quantization error.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (`None` if empty). Exact.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` if empty). Exact.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (`q` in `[0,1]`) by nearest rank over the
    /// buckets; `None` if empty. The answer is the midpoint of the bucket
    /// holding the ranked sample, clamped to the exact `[min, max]`
    /// envelope — so the relative error is bounded by half a bucket width
    /// (~1.6% at the default [`SUB_BITS`]), and `q = 0` / `q = 1` are
    /// exact.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let mid = bucket_lower(i) + (bucket_upper(i) - bucket_lower(i)) / 2;
                return Some(mid.clamp(self.min, self.max));
            }
        }
        // count > 0 guarantees some bucket crosses the rank.
        unreachable!("rank {rank} beyond cumulative count {cum}");
    }

    /// The shared distribution vocabulary ([`PercentileSummary`]): count,
    /// exact mean and max, bucket-resolved p50/p99/p999.
    pub fn summary(&self) -> PercentileSummary {
        PercentileSummary {
            count: self.count,
            mean: self.mean(),
            p50: self.quantile(0.5).unwrap_or(0) as f64,
            p99: self.quantile(0.99).unwrap_or(0) as f64,
            p999: self.quantile(0.999).unwrap_or(0) as f64,
            max: self.max().unwrap_or(0) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_monotone_and_continuous() {
        // Exhaustive over the low range, then spot the block boundaries
        // across the full u64 span.
        let mut prev = bucket_index(0);
        for v in 1u64..4096 {
            let i = bucket_index(v);
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
        }
        for exp in SUB_BITS..63 {
            let b = 1u64 << exp;
            for v in [b - 1, b, b + 1] {
                let i = bucket_index(v);
                assert!(
                    bucket_lower(i) <= v && v <= bucket_upper(i),
                    "v={v} outside bucket {i}: [{}, {}]",
                    bucket_lower(i),
                    bucket_upper(i)
                );
            }
            assert!(bucket_index(b) > bucket_index(b - 1));
        }
    }

    #[test]
    fn linear_range_is_exact() {
        for v in 0..SUB_COUNT as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn extremes_fit() {
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        // The last bucket's floor is the top sub-bucket of the top block.
        assert_eq!(bucket_index(bucket_lower(BUCKETS - 1)), BUCKETS - 1);
    }

    #[test]
    fn lower_inverts_index_on_bucket_floors() {
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i)), i, "floor of bucket {i}");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Bucket width at value v is at most v / 2^SUB_BITS, so the
        // midpoint is within v / 2^(SUB_BITS+1) of any member (plus 1 for
        // integer rounding).
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let i = bucket_index(v);
            let mid = bucket_lower(i) + (bucket_upper(i) - bucket_lower(i)) / 2;
            let err = mid.abs_diff(v);
            let bound = v / (1 << (SUB_BITS + 1)) + 1;
            assert!(err <= bound, "v={v} mid={mid} err={err} bound={bound}");
            v = v.wrapping_mul(3).wrapping_add(7);
        }
    }

    #[test]
    fn record_snapshot_roundtrip() {
        let mut h = Histogram::new();
        for v in [0, 1, 31, 32, 1_000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1_001_064);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1_000_000));
        assert!((h.mean() - 1_001_064.0 / 6.0).abs() < 1e-9);
        assert_eq!(h.quantile(0.0), Some(0), "q=0 exact via min clamp");
        assert_eq!(h.quantile(1.0), Some(1_000_000), "q=1 exact via max clamp");
        // The sum wraps instead of panicking on overflow.
        h.record(u64::MAX);
        assert_eq!(h.sum(), 1_001_063);
    }

    #[test]
    fn empty_snapshot() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
        let sum = h.summary();
        assert_eq!(sum.count, 0);
        assert_eq!(sum.p99, 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_out_of_range_panics() {
        Histogram::new().quantile(-0.1);
    }
}
