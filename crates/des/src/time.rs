//! Simulated time: a nanosecond counter with convenient arithmetic.

use core::fmt;
use core::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in nanoseconds.
///
/// The same type is used for instants and durations — the simulation starts
/// at zero, so the distinction carries no information, and mixing them in
/// arithmetic is exactly what models do all day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero / the empty duration.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// From milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// As nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// As (fractional) microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Scales by a float factor, rounding to the nearest nanosecond.
    /// Negative factors clamp to zero.
    #[inline]
    pub fn scale(self, factor: f64) -> SimTime {
        SimTime((self.0 as f64 * factor).round().max(0.0) as u64)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

/// Displays with an auto-selected unit: `950 ns`, `1.100 µs`, `13.585 µs`,
/// `2.000 ms`, `1.500 s`.
impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns} ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.3} µs", ns as f64 / 1_000.0)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3} ms", ns as f64 / 1_000_000.0)
        } else {
            write!(f, "{:.3} s", ns as f64 / 1_000_000_000.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert_eq!(SimTime::from_ms(2).as_ns(), 2_000_000);
        assert_eq!(SimTime::from_secs(1).as_ns(), 1_000_000_000);
        assert_eq!(SimTime::from_us(1500).as_us_f64(), 1500.0);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(30);
        assert_eq!(a + b, SimTime::from_ns(130));
        assert_eq!(a - b, SimTime::from_ns(70));
        assert_eq!(b * 3, SimTime::from_ns(90));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn scaling() {
        assert_eq!(SimTime::from_ns(100).scale(1.5), SimTime::from_ns(150));
        assert_eq!(SimTime::from_ns(100).scale(0.0), SimTime::ZERO);
        assert_eq!(SimTime::from_ns(100).scale(-2.0), SimTime::ZERO);
        assert_eq!(
            SimTime::from_ns(3).scale(0.5),
            SimTime::from_ns(2),
            "rounds"
        );
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_ns(950).to_string(), "950 ns");
        assert_eq!(SimTime::from_ns(1_100).to_string(), "1.100 µs");
        assert_eq!(SimTime::from_ns(13_585).to_string(), "13.585 µs");
        assert_eq!(SimTime::from_ms(2).to_string(), "2.000 ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000 s");
    }
}
