//! Phase-reactive scheduler signals: the windowed contention rate behind
//! [`TaskManager::adaptive_budget`](crate::TaskManager::adaptive_budget).
//!
//! A *cumulative* `lock_contended / lock_acquisitions` ratio ossifies:
//! after a million quiet acquisitions, a contention burst moves it by parts
//! per thousand, and after a long contended phase a newly quiet system keeps
//! paying bursty-phase budgets for just as long. [`ContentionWindow`]
//! tracks an **exponentially-decayed** rate instead, and every core's
//! window auto-tunes its half-life from the workload's own burst cadence
//! ([`ContentionWindow::new_auto`], seeded with
//! [`DEFAULT_CONTENTION_HALF_LIFE`](crate::DEFAULT_CONTENTION_HALF_LIFE)),
//! so the signal follows phase changes without an operator-chosen constant.
//!
//! Everything here is plain atomics (no locks, no floats on the sampling
//! path); CI runs this module's tests under Miri.

use core::sync::atomic::{AtomicU64, Ordering};

/// Fixed-point scale of [`ContentionWindow`] rates: `FP_ONE` represents a
/// contention rate of 1.0 (every acquisition was fought over).
pub const FP_ONE: u64 = 1 << 16;

/// Smallest half-life the auto-tuner will select: below this the window is
/// all noise (a single sample moves the rate by a quarter).
pub const AUTO_HALF_LIFE_MIN: u64 = 4;

/// Largest half-life the auto-tuner will select: beyond this the window
/// ossifies like the cumulative ratio it exists to replace.
pub const AUTO_HALF_LIFE_MAX: u64 = 1024;

/// EWMA divisor `K = 1 / (1 − 2^(−1/h))` for half-life `h`, in pure
/// integer arithmetic: the closed form expands to `h/ln 2 + ½ + O(1/h)`,
/// so `round(K) = ⌊h·1.442695 + 1⌋` — computed with a parts-per-million
/// fixed-point constant (matches the rounded closed form on every
/// half-life up to the auto-tuner's clamp range; floor ≥ 2 because even a
/// one-sample half-life folds at most half the gap per step). Integer so
/// the auto-tuner can recompute it *on the sampling path* without
/// breaking this module's no-floats contract.
fn decay_k_for(half_life: u64) -> u64 {
    ((half_life * 1_442_695 + 1_000_000) / 1_000_000).max(2)
}

/// An exponentially-decayed estimate of a contended/total event rate, fed
/// from monotone cumulative counters.
///
/// The window never touches the counters' hot path: producers keep
/// incrementing their plain cumulative counters (the spinlocks already do),
/// and a *sampler* — in practice each call to
/// [`adaptive_budget`](crate::TaskManager::adaptive_budget) — hands the
/// current totals to [`observe`](ContentionWindow::observe). The window
/// diffs them against the previous sample and folds the batch's rate into
/// an EWMA whose weight halves every `half_life` samples:
///
/// `rate ← rate + (batch_rate − rate) / K`, with `K = 1 / (1 − 2^(−1/h))`.
///
/// Samples with no new acquisitions are ignored (an idle system carries no
/// contention evidence either way), so the half-life is measured in
/// *active* samples, not wall-clock time.
///
/// ```
/// use pioman::ContentionWindow;
///
/// let w = ContentionWindow::new(4);
/// let (mut acq, mut cont) = (0u64, 0u64);
/// // A fully contended phase: every acquisition was fought over.
/// for _ in 0..64 {
///     acq += 100;
///     cont += 100;
///     w.observe(acq, cont);
/// }
/// assert!(w.rate() > 0.9);
/// // Phase change: contention vanishes. The cumulative ratio would still
/// // read 0.5 here forever-ish; the window forgets within a few half-lives.
/// for _ in 0..64 {
///     acq += 100;
///     w.observe(acq, cont);
/// }
/// assert!(w.rate() < 0.05);
/// ```
#[derive(Debug)]
pub struct ContentionWindow {
    /// EWMA divisor `K` derived from the half-life (≥ 2). Atomic because
    /// the auto-tuner re-derives it on burst boundaries; fixed windows
    /// write it once at construction.
    decay_k: AtomicU64,
    /// Whether the half-life auto-tunes from the observed burst cadence
    /// (see [`new_auto`](Self::new_auto)).
    auto: bool,
    /// The half-life `decay_k` was derived from (exposed for tests; the
    /// adaptation writes both together).
    half_life: AtomicU64,
    /// Active (winning, acquisition-advancing) samples seen: the
    /// adaptation's clock, so gaps are measured in the same unit as the
    /// half-life itself.
    samples: AtomicU64,
    /// `samples` value at the last burst (a sample with new contention).
    last_burst: AtomicU64,
    /// EWMA of inter-burst gaps in active samples, `<<8` fixed point,
    /// weight 1/8 per burst. Zero until the first burst.
    gap_ewma_fp: AtomicU64,
    /// Cumulative acquisition count at the last accepted sample.
    last_acquisitions: AtomicU64,
    /// Cumulative contended count at the last accepted sample.
    last_contended: AtomicU64,
    /// Current rate in [`FP_ONE`]-scaled fixed point (`0..=FP_ONE`).
    rate_fp: AtomicU64,
}

impl ContentionWindow {
    /// A window whose sample weight halves every `half_life` active samples
    /// (clamped to at least 1), fixed for the window's lifetime.
    pub fn new(half_life: u32) -> Self {
        Self::build(half_life, false)
    }

    /// A window that starts at `half_life` and then **auto-tunes** it from
    /// the workload's own phase cadence: each burst (an active sample that
    /// saw new contention) folds the gap since the previous burst into an
    /// EWMA, and the half-life tracks *half* that typical gap, clamped to
    /// [`AUTO_HALF_LIFE_MIN`]`..=`[`AUTO_HALF_LIFE_MAX`].
    ///
    /// Rationale: a window much slower than the burst cadence smears
    /// adjacent phases together (the ossification failure, in miniature),
    /// while one much faster forgets a phase before the next burst
    /// confirms it; half the gap keeps roughly two half-lives of memory
    /// between bursts — reactive, but not amnesiac. The fixed
    /// [`new`](Self::new) constructor pins the response curve instead.
    ///
    /// ```
    /// use pioman::ContentionWindow;
    ///
    /// let w = ContentionWindow::new_auto(32);
    /// assert_eq!(w.half_life(), 32);
    /// let (mut acq, mut cont) = (0u64, 0u64);
    /// // Bursts every 16 active samples: the half-life converges to 8.
    /// for burst in 0..64 {
    ///     for s in 0..16 {
    ///         acq += 10;
    ///         if s == 0 {
    ///             cont += 10;
    ///         }
    ///         w.observe(acq, cont);
    ///     }
    ///     let _ = burst;
    /// }
    /// assert_eq!(w.half_life(), 8);
    /// ```
    pub fn new_auto(half_life: u32) -> Self {
        Self::build(half_life, true)
    }

    fn build(half_life: u32, auto: bool) -> Self {
        let h = half_life.max(1) as u64;
        ContentionWindow {
            decay_k: AtomicU64::new(decay_k_for(h)),
            auto,
            half_life: AtomicU64::new(h),
            samples: AtomicU64::new(0),
            last_burst: AtomicU64::new(0),
            gap_ewma_fp: AtomicU64::new(0),
            last_acquisitions: AtomicU64::new(0),
            last_contended: AtomicU64::new(0),
            rate_fp: AtomicU64::new(0),
        }
    }

    /// The current effective half-life in active samples: the constructor
    /// argument for fixed windows, the adapted value for
    /// [`new_auto`](Self::new_auto) windows.
    pub fn half_life(&self) -> u64 {
        self.half_life.load(Ordering::Relaxed)
    }

    /// Burst-cadence adaptation, run only on the claim-CAS winner's path:
    /// count the active sample, and on a burst fold the inter-burst gap
    /// into the EWMA and re-derive the half-life/divisor pair.
    fn adapt(&self, delta_c: u64) {
        let idx = self.samples.fetch_add(1, Ordering::Relaxed) + 1;
        if delta_c == 0 {
            return;
        }
        let prev = self.last_burst.swap(idx, Ordering::Relaxed);
        // Saturate the gap well below the shift headroom; a once-a-2^32-
        // samples burst is past the clamp ceiling anyway.
        let gap = idx.saturating_sub(prev).clamp(1, 1 << 32);
        let target = gap << 8;
        let prev_ewma = self.gap_ewma_fp.load(Ordering::Relaxed);
        let ewma = if prev_ewma == 0 {
            target // first burst: adopt the gap outright
        } else if target >= prev_ewma {
            prev_ewma + (target - prev_ewma).div_ceil(8)
        } else {
            prev_ewma - (prev_ewma - target).div_ceil(8)
        };
        self.gap_ewma_fp.store(ewma, Ordering::Relaxed);
        let hl = ((ewma >> 8) / 2).clamp(AUTO_HALF_LIFE_MIN, AUTO_HALF_LIFE_MAX);
        if hl != self.half_life.load(Ordering::Relaxed) {
            // Two relaxed stores; a reader between them sees a torn but
            // valid (half-life, K) pair from adjacent adaptations — the
            // EWMA step it mis-sizes is one of thousands.
            self.half_life.store(hl, Ordering::Relaxed);
            self.decay_k.store(decay_k_for(hl), Ordering::Relaxed);
        }
    }

    /// Feeds the current *cumulative* counters and returns the updated rate
    /// in fixed point (`0..=`[`FP_ONE`]).
    ///
    /// Both counters must be monotone (they are lock-lifetime totals). A
    /// sample that advanced no acquisitions leaves the rate untouched. When
    /// several threads sample concurrently, one wins the delta and the
    /// others read the freshest rate. The contended watermark advances by
    /// `fetch_max`, never a plain store, so a claim winner that stalls
    /// mid-update cannot drag it backward and inflate a later sampler's
    /// delta — the worst concurrent outcome is an *under*-counted sample
    /// (one EWMA step of delay), never a spurious contention spike.
    pub fn observe(&self, acquisitions: u64, contended: u64) -> u64 {
        let prev_a = self.last_acquisitions.load(Ordering::Relaxed);
        let delta_a = acquisitions.saturating_sub(prev_a);
        if delta_a == 0 {
            return self.rate_fp.load(Ordering::Relaxed);
        }
        // Claim this sampling window; a loser just reads the current rate.
        if self
            .last_acquisitions
            .compare_exchange(prev_a, acquisitions, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return self.rate_fp.load(Ordering::Relaxed);
        }
        let prev_c = self.last_contended.fetch_max(contended, Ordering::Relaxed);
        let delta_c = contended.saturating_sub(prev_c).min(delta_a);
        if self.auto {
            self.adapt(delta_c);
        }
        // Widening multiply: delta_c can exceed 2^48 when a window is
        // attached to (or left behind by) a long-running counter pair.
        let sample_fp = ((delta_c as u128 * FP_ONE as u128) / delta_a as u128) as u64;
        let rate = self.rate_fp.load(Ordering::Relaxed);
        let decay_k = self.decay_k.load(Ordering::Relaxed);
        // div_ceil on the step keeps the EWMA moving even when the gap is
        // below K, so a quiet phase decays all the way to 0 instead of
        // stalling a few fixed-point units above it (and a contended one
        // climbs off 0). Equilibrium oscillates by at most 1/65536.
        let new = if sample_fp >= rate {
            rate + (sample_fp - rate).div_ceil(decay_k)
        } else {
            rate - (rate - sample_fp).div_ceil(decay_k)
        };
        self.rate_fp.store(new.min(FP_ONE), Ordering::Relaxed);
        new.min(FP_ONE)
    }

    /// Current rate in fixed point (`0..=`[`FP_ONE`]), without sampling.
    pub fn rate_fp(&self) -> u64 {
        self.rate_fp.load(Ordering::Relaxed)
    }

    /// Current rate as a float in `0.0..=1.0`, without sampling.
    pub fn rate(&self) -> f64 {
        self.rate_fp() as f64 / FP_ONE as f64
    }

    /// The batch-widening multiplier this rate maps to: ×1 when uncontended
    /// up to ×9 when every recent acquisition was fought over.
    pub fn boost(&self) -> usize {
        1 + ((8 * self.rate_fp()) >> 16) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_changes_nothing() {
        let w = ContentionWindow::new(8);
        assert_eq!(w.observe(0, 0), 0);
        w.observe(100, 50);
        let r = w.rate_fp();
        assert_eq!(w.observe(100, 50), r, "no new acquisitions: rate frozen");
    }

    #[test]
    fn saturated_signal_converges_to_one_and_boost_maxes() {
        let w = ContentionWindow::new(4);
        let mut acq = 0;
        for _ in 0..128 {
            acq += 10;
            w.observe(acq, acq);
        }
        assert!(w.rate() > 0.95, "rate {} should approach 1", w.rate());
        assert_eq!(w.boost(), 9);
    }

    #[test]
    fn half_life_is_roughly_honoured_on_decay() {
        let half_life = 8;
        let w = ContentionWindow::new(half_life);
        // Saturate, then feed exactly `half_life` contention-free samples.
        let mut acq = 0;
        for _ in 0..256 {
            acq += 100;
            w.observe(acq, acq);
        }
        let start = w.rate_fp();
        assert!(start > (FP_ONE * 9) / 10);
        let cont = acq;
        for _ in 0..half_life {
            acq += 100;
            w.observe(acq, cont);
        }
        let halved = w.rate_fp();
        let ratio = halved as f64 / start as f64;
        assert!(
            (0.4..=0.6).contains(&ratio),
            "after one half-life the rate should be ~halved, got {ratio}"
        );
    }

    #[test]
    fn quiet_phase_decays_all_the_way_to_zero() {
        let w = ContentionWindow::new(2);
        let mut acq = 0;
        for _ in 0..32 {
            acq += 4;
            w.observe(acq, acq);
        }
        let cont = acq;
        for _ in 0..2048 {
            acq += 4;
            w.observe(acq, cont);
        }
        assert_eq!(w.rate_fp(), 0, "div_ceil decay must reach exactly 0");
        assert_eq!(w.boost(), 1);
    }

    #[test]
    fn contended_delta_is_clamped_to_acquisitions() {
        // A torn read pair (contended sampled after acquisitions) can show
        // more contended events than acquisitions; the rate must cap at 1.
        let w = ContentionWindow::new(1);
        for i in 1..64 {
            w.observe(i, i * 10);
        }
        assert!(w.rate_fp() <= FP_ONE);
        assert_eq!(w.boost(), 9);
    }

    /// Shrunk under Miri (CI's `miri test -p pioman signal` matches this
    /// module by name): the interpreter explores interleavings orders of
    /// magnitude slower than native threads run them.
    const SAMPLER_THREADS: usize = if cfg!(miri) { 2 } else { 4 };
    const SAMPLES_PER_THREAD: usize = if cfg!(miri) { 25 } else { 200 };

    #[test]
    fn concurrent_samplers_never_corrupt_the_rate() {
        // The claim-CAS means one thread wins each window; losers read. Run
        // real threads over a shared window and check the invariant bounds.
        let w = std::sync::Arc::new(ContentionWindow::new(4));
        let total = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..SAMPLER_THREADS {
                let w = w.clone();
                let total = total.clone();
                s.spawn(move || {
                    for _ in 0..SAMPLES_PER_THREAD {
                        let a = total.fetch_add(5, Ordering::Relaxed) + 5;
                        w.observe(a, a / 2);
                    }
                });
            }
        });
        assert!(w.rate_fp() <= FP_ONE);
        // Every sample's batch rate was ~0.5, so the EWMA must sit near it.
        assert!(
            (0.2..=0.8).contains(&w.rate()),
            "rate {} drifted outside the sampled band",
            w.rate()
        );
    }

    #[test]
    fn huge_deltas_do_not_overflow_the_sample() {
        // A window attached to an already-ancient counter pair: the first
        // sample's delta exceeds 2^48, which a narrow `delta_c << 16`
        // would wrap on.
        let w = ContentionWindow::new(1);
        let big = 1u64 << 60;
        w.observe(big, big);
        assert_eq!(w.rate_fp(), FP_ONE / 2, "saturated giant sample: half up");
        w.observe(big + (1 << 50), big + (1 << 50));
        assert!(w.rate_fp() <= FP_ONE);
    }

    #[test]
    fn half_life_floor_is_one_sample() {
        let w = ContentionWindow::new(0); // clamped to 1 → K = 2
        w.observe(100, 100);
        assert_eq!(w.rate_fp(), FP_ONE / 2, "first saturated sample: half up");
    }

    #[test]
    fn integer_decay_k_matches_the_closed_form() {
        // decay_k_for must agree with round(1 / (1 − 2^(−1/h))) — the
        // float formula the docs state — across the whole clamp range.
        for h in 1..=AUTO_HALF_LIFE_MAX {
            let exact = (1.0 / (1.0 - 0.5f64.powf(1.0 / h as f64))).round() as u64;
            assert_eq!(
                decay_k_for(h),
                exact.max(2),
                "integer K diverges from the closed form at h={h}"
            );
        }
    }

    /// Drives an auto window with one burst every `gap` active samples,
    /// continuing from the window's current cumulative watermarks so
    /// back-to-back drives model one monotone counter stream.
    fn drive_bursts(w: &ContentionWindow, gap: u64, bursts: u64) {
        let mut acq = w.last_acquisitions.load(Ordering::Relaxed);
        let mut cont = w.last_contended.load(Ordering::Relaxed);
        for _ in 0..bursts {
            for s in 0..gap {
                acq += 10;
                if s == 0 {
                    cont += 10;
                }
                w.observe(acq, cont);
            }
        }
    }

    #[test]
    fn auto_half_life_tracks_the_burst_cadence() {
        let w = ContentionWindow::new_auto(DEFAULT_HL);
        assert_eq!(w.half_life(), DEFAULT_HL as u64, "starts at the seed");
        drive_bursts(&w, 64, 128);
        assert_eq!(
            w.half_life(),
            32,
            "bursts every 64 active samples converge the half-life to 32"
        );
        // Cadence shift: denser bursts shrink the half-life again.
        drive_bursts(&w, 16, 256);
        assert_eq!(w.half_life(), 8);
    }

    #[test]
    fn auto_half_life_clamps_both_ends() {
        let fast = ContentionWindow::new_auto(32);
        drive_bursts(&fast, 1, 64); // continuous contention: gap 1
        assert_eq!(fast.half_life(), AUTO_HALF_LIFE_MIN);

        let slow = ContentionWindow::new_auto(32);
        drive_bursts(&slow, 3000, 64); // sparser than the ceiling admits
        assert_eq!(slow.half_life(), AUTO_HALF_LIFE_MAX);
    }

    #[test]
    fn fixed_window_never_adapts() {
        let w = ContentionWindow::new(DEFAULT_HL);
        drive_bursts(&w, 16, 128);
        assert_eq!(
            w.half_life(),
            DEFAULT_HL as u64,
            "the fixed constructor is the auto-tuning override"
        );
    }

    #[test]
    fn quiet_samples_do_not_move_the_gap_clock_backward() {
        // Quiet (burst-free) samples advance the sample clock but never
        // fold a gap; only the next burst does, measuring the whole quiet
        // stretch. A long quiet phase therefore *lengthens* the half-life
        // on the burst that ends it, never mid-phase.
        let w = ContentionWindow::new_auto(32);
        drive_bursts(&w, 8, 128);
        let before = w.half_life();
        let (mut acq, cont) = (10_240 * 10, 0); // past drive_bursts totals
        for _ in 0..512 {
            acq += 10;
            w.observe(acq, cont + 1280);
        }
        assert_eq!(w.half_life(), before, "no burst, no adaptation");
    }

    const DEFAULT_HL: u32 = 32;
}
