//! Fixed-footprint latency histograms: per-slot cache-padded recording,
//! log-bucketed (HDR-style) resolution, folded on snapshot.
//!
//! The scheduler's other statistics are monotone *counts*; this module
//! is their *distribution* companion. A [`Histogram`] records `u64`
//! samples (nanoseconds, in every current use) into a fixed array of
//! buckets whose width grows with magnitude: values below
//! 2^[`SUB_BITS`] get exact unit buckets, and every power of two above
//! that is split into 2^[`SUB_BITS`] sub-buckets, bounding the relative
//! quantization error at one part in 2^[`SUB_BITS`] (~3% at the default
//! resolution) across the full `u64` range — the classic HDR-histogram
//! layout, sized here at [`BUCKETS`] slots (15 KiB of `AtomicU64`s per
//! shard, see `DESIGN.md` §7 for the resolution/footprint trade).
//!
//! Concurrency: the structure is sharded over cache-padded slots,
//! [`Histogram::record`] is a handful of `Relaxed` RMWs on the calling
//! thread's own lines (lock-free, no allocation, no ordering
//! obligations), and [`Histogram::snapshot`] folds the shards slot by
//! slot with a racy-hint contract — exact once writers quiesce, possibly
//! missing in-flight samples while they race. The `hist_shard`
//! interleave model (with its planted-bug twin) and the
//! `shard_fold_matches_single_shard`
//! proptest pin the fold; the `quantiles_match_exact_reservoir` proptest
//! pins the bucket math against the exact reservoir in the simulator's
//! `piom_des::stats::Percentiles` as sequential oracle.

use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use crossbeam::utils::CachePadded;

/// The distribution vocabulary every measurement surface speaks: one
/// struct carrying the tail quantiles production systems gate on.
/// [`HistSnapshot::summary`] produces it, so DES scenario reports and the
/// stats snapshot agree on what "a latency distribution" is.
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

/// Monotonically-assigned per-thread slot hint, so each thread settles on
/// one shard instead of hashing per call.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Relaxed);
}

/// This thread's stable shard-slot hint: one thread always lands on the
/// same slot of every [`Histogram`].
#[inline]
fn thread_slot() -> usize {
    THREAD_SLOT.with(|s| *s)
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

/// One cache-padded recording slot: the bucket array plus exact count,
/// sum, min and max so the snapshot can report an exact mean and exact
/// extremes even though quantiles are bucket-resolved.
struct Shard {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first sample.
    min: AtomicU64,
    max: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        // Monotone CAS loops: each retries only while `v` still improves
        // the bound, so they terminate fast and stop touching the line at
        // all once the extremes stabilize (`fetch_min`/`fetch_max` would
        // also work; the explicit loop is the shape the `hist_shard`
        // interleave model checks, so the code and the model match).
        let mut cur = self.min.load(Relaxed);
        while v < cur {
            match self.min.compare_exchange_weak(cur, v, Relaxed, Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        let mut cur = self.max.load(Relaxed);
        while v > cur {
            match self.max.compare_exchange_weak(cur, v, Relaxed, Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A log-bucketed sample histogram sharded over cache-padded slots.
///
/// # Examples
///
/// ```
/// use pioman::hist::Histogram;
///
/// let h = Histogram::new(4);
/// for v in [10, 20, 30, 40, 1_000] {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count(), 5);
/// assert_eq!(snap.max(), Some(1_000));
/// assert_eq!(snap.quantile(0.5), Some(30)); // exact: 30 < 2^5
/// ```
pub struct Histogram {
    shards: Box<[CachePadded<Shard>]>,
    /// `shards.len() - 1`; power-of-two slot count so slot folding is a
    /// mask, not a runtime division on the recording path.
    mask: usize,
}

impl Histogram {
    /// A histogram with at least `shards` padded slots (rounded up to the
    /// next power of two, minimum 1). Use one slot per core for
    /// core-indexed recording; thread-indexed recording folds onto
    /// `thread_slot & mask`.
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Histogram {
            shards: (0..n).map(|_| CachePadded::new(Shard::new())).collect(),
            mask: n - 1,
        }
    }

    /// Records one sample into the calling thread's slot (all `Relaxed`
    /// — the histogram is diagnostic, no data is published through it).
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_at(thread_slot(), v);
    }

    /// Records one sample into slot `slot & mask` — callers that already
    /// know a core id use it directly so the sample lands on that core's
    /// own lines.
    #[inline]
    pub fn record_at(&self, slot: usize, v: u64) {
        self.shards[slot & self.mask].record(v);
    }

    /// Number of padded slots.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Folds every slot into an owned [`HistSnapshot`]. Racy against
    /// in-flight `record`s like a `Relaxed` load of a single atomic;
    /// exact once writers quiesce.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut snap = HistSnapshot::empty();
        for shard in self.shards.iter() {
            for (i, b) in shard.buckets.iter().enumerate() {
                snap.buckets[i] += b.load(Relaxed);
            }
            snap.count += shard.count.load(Relaxed);
            snap.sum += shard.sum.load(Relaxed);
            snap.min = snap.min.min(shard.min.load(Relaxed));
            snap.max = snap.max.max(shard.max.load(Relaxed));
        }
        snap
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("shards", &self.shards.len())
            .field("buckets", &BUCKETS)
            .finish()
    }
}

/// An owned, folded view of a [`Histogram`]: plain integers, no atomics,
/// safe to ship across threads or serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl HistSnapshot {
    pub(crate) fn empty() -> Self {
        HistSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Total samples folded into this snapshot.
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

    /// The `q`-quantile (`q` in `[0,1]`) by nearest-rank over the folded
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

    /// Folds another snapshot into this one (bucket-wise sum, exact
    /// count/sum/min/max combine) — merging two histograms is the same
    /// fold as merging two shards.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(inclusive upper bound, count)` pairs in
    /// ascending order — the shape a Prometheus-style cumulative `le`
    /// rendering consumes (`harness` snapshot export).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
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
        let h = Histogram::new(1);
        for v in [0, 1, 31, 32, 1_000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum(), 1_001_064);
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(1_000_000));
        assert!((s.mean() - 1_001_064.0 / 6.0).abs() < 1e-9);
        assert_eq!(s.quantile(0.0), Some(0), "q=0 exact via min clamp");
        assert_eq!(s.quantile(1.0), Some(1_000_000), "q=1 exact via max clamp");
    }

    #[test]
    fn empty_snapshot() {
        let s = Histogram::new(2).snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.quantile(0.5), None);
        let sum = s.summary();
        assert_eq!(sum.count, 0);
        assert_eq!(sum.p99, 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_out_of_range_panics() {
        Histogram::new(1).snapshot().quantile(-0.1);
    }

    #[test]
    fn shard_count_rounds_up() {
        let h = Histogram::new(3);
        assert_eq!(h.shards(), 4);
        assert_eq!(Histogram::new(0).shards(), 1);
        // Slot folding: slot 7 on 4 shards lands on slot 3's lines.
        h.record_at(7, 42);
        assert_eq!(h.snapshot().count(), 1);
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let a = Histogram::new(1);
        let b = Histogram::new(4);
        for v in [5, 10, 100] {
            a.record(v);
        }
        for (slot, v) in [(0, 7u64), (1, 2_000), (2, 100)] {
            b.record_at(slot, v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 6);
        assert_eq!(m.sum(), 5 + 10 + 100 + 7 + 2_000 + 100);
        assert_eq!(m.min(), Some(5), "min folds exactly across merges");
        assert_eq!(m.max(), Some(2_000));
    }

    #[test]
    fn nonzero_buckets_are_cumulative_ready() {
        let h = Histogram::new(1);
        for v in [3, 3, 3, 40] {
            h.record(v);
        }
        let s = h.snapshot();
        let pairs: Vec<_> = s.nonzero_buckets().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], (3, 3), "unit bucket: le=3, count=3");
        assert!(pairs[1].0 >= 40 && pairs[1].1 == 1);
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "ascending le");
        assert_eq!(pairs.iter().map(|&(_, c)| c).sum::<u64>(), s.count());
    }

    #[test]
    fn threaded_records_are_never_lost() {
        let h = std::sync::Arc::new(Histogram::new(4));
        let threads = if cfg!(miri) { 3 } else { 8 };
        let per = if cfg!(miri) { 50u64 } else { 10_000 };
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..per {
                        h.record(t as u64 * 1_000 + i % 97);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count(), threads as u64 * per);
        assert_eq!(s.min(), Some(0));
    }
}
