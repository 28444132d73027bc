//! Deterministic pseudo-random numbers for simulations.
//!
//! A self-contained SplitMix64: tiny state, excellent statistical quality for
//! simulation jitter, and — unlike thread-local or OS-seeded generators —
//! bit-for-bit reproducible across runs and platforms from a `u64` seed.

/// SplitMix64 PRNG (Steele, Lea & Flood, OOPSLA 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits into the mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection-free variant is overkill here;
        // simulations tolerate the negligible modulo bias for small bounds,
        // but use 128-bit multiply-shift anyway since it is one instruction.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Multiplicative jitter: a factor uniform in `[1-spread, 1+spread]`.
    /// Used by cost models to avoid artificial lockstep.
    #[inline]
    pub fn jitter(&mut self, spread: f64) -> f64 {
        1.0 + (self.next_f64() * 2.0 - 1.0) * spread
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn known_first_output() {
        // Reference value for seed 0 from the SplitMix64 reference code.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            let v = r.next_below(8) as usize;
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn jitter_within_spread() {
        let mut r = SplitMix64::new(11);
        for _ in 0..1_000 {
            let j = r.jitter(0.1);
            assert!((0.9..=1.1).contains(&j));
        }
    }

    #[test]
    fn mean_is_roughly_half() {
        let mut r = SplitMix64::new(5);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }
}
