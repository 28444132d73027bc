//! Sharded statistics counters: per-slot cache-padded accumulation,
//! aggregated on snapshot.
//!
//! A single `AtomicU64` counter that every core increments is a shared
//! cache line by construction: each `fetch_add` pulls the line exclusive,
//! so under load the counter serializes cores that are otherwise touching
//! disjoint data — the queue-level `executed` counter has exactly that
//! shape (every executing core RMWs the same word). [`ShardedCounter`]
//! splits the count across cache-padded slots — each thread (or an
//! explicitly-chosen slot, e.g. the executing core) increments its own
//! line — and sums the slots only when a snapshot is taken
//! ([`TaskManager::stats`](crate::TaskManager::stats)), which is the rare
//! path by design.
//!
//! The trade is exactness of *concurrent* snapshots: the sum is taken
//! slot by slot, so a snapshot racing increments may miss in-flight ones
//! — the same racy-hint contract the single atomic already had (a
//! `Relaxed` counter never promised a linearizable read). Once writers
//! quiesce, the sum equals the true total; the
//! `sharded_counter_matches_shadow_total` proptest pins that against a
//! shadow single-atomic under threaded load. (What the sharding buys was
//! last measured at parity on a 2-vCPU host — EXPERIMENTS.md, "Retired
//! rows".)

use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use crossbeam::utils::CachePadded;

/// Monotonically-assigned per-thread slot hint, so each thread settles on
/// one shard instead of hashing per call.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Relaxed);
}

/// This thread's stable shard-slot hint, shared by every sharded
/// statistic in the crate ([`ShardedCounter`],
/// [`Histogram`](crate::hist::Histogram)) so one thread always lands on
/// the same slot regardless of which structure it touches.
#[inline]
pub(crate) fn thread_slot() -> usize {
    THREAD_SLOT.with(|s| *s)
}

/// A monotone event counter sharded over cache-padded slots.
///
/// # Examples
///
/// ```
/// use pioman::counters::ShardedCounter;
///
/// let c = ShardedCounter::new(4);
/// c.add(2);        // this thread's slot
/// c.add_at(3, 5);  // an explicit slot (e.g. the executing core)
/// assert_eq!(c.sum(), 7);
/// ```
#[derive(Debug)]
pub struct ShardedCounter {
    shards: Box<[CachePadded<AtomicU64>]>,
    /// `shards.len() - 1`; the slot count is rounded up to a power of two
    /// so slot folding is a mask, not a runtime division — the increment
    /// is on task-execution hot paths, where a `div` per bump is
    /// measurable.
    mask: usize,
}

impl ShardedCounter {
    /// A counter with at least `shards` padded slots (rounded up to the
    /// next power of two, minimum 1). Use one slot per core for
    /// core-indexed increments; thread-indexed increments fold onto
    /// `thread_slot & mask`.
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedCounter {
            shards: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            mask: n - 1,
        }
    }

    /// Adds `n` to the calling thread's slot (Relaxed — the counter is
    /// diagnostic, no data is published through it).
    #[inline]
    pub fn add(&self, n: u64) {
        self.add_at(thread_slot(), n);
    }

    /// Adds `n` to slot `slot & mask` — callers that already know a
    /// core id use it directly, guaranteeing the increment lands on that
    /// core's own line.
    #[inline]
    pub fn add_at(&self, slot: usize, n: u64) {
        self.shards[slot & self.mask].fetch_add(n, Relaxed);
    }

    /// Sums every slot (the snapshot aggregation). Racy against in-flight
    /// increments exactly like a `Relaxed` load of a single atomic;
    /// exact once writers quiesce.
    pub fn sum(&self) -> u64 {
        self.shards.iter().map(|s| s.load(Relaxed)).sum()
    }

    /// Number of padded slots.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_across_slots() {
        let c = ShardedCounter::new(3);
        for slot in 0..9 {
            c.add_at(slot, 1);
        }
        assert_eq!(c.sum(), 9, "slots fold onto the masked shard count");
        assert_eq!(c.shards(), 4, "3 rounds up to the next power of two");
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let c = ShardedCounter::new(0);
        c.add(5);
        assert_eq!(c.sum(), 5);
        assert_eq!(c.shards(), 1);
    }

    #[test]
    fn threaded_increments_are_never_lost() {
        let c = std::sync::Arc::new(ShardedCounter::new(4));
        let threads = if cfg!(miri) { 3 } else { 8 };
        let per = if cfg!(miri) { 50u64 } else { 10_000 };
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..per {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.sum(), threads as u64 * per);
    }
}
