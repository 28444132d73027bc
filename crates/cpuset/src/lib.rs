//! CPU sets for expressing task affinity.
//!
//! PIOMan tasks carry a *CPU set* restricting which cores may execute them
//! (Trahay & Denis, CLUSTER 2009, §III). This crate provides [`CpuSet`], a
//! fixed-size bitmask over logical CPU identifiers, with the set algebra the
//! scheduler needs to resolve a CPU set to the smallest covering topology
//! level: subset tests, intersection/union, iteration, and population counts.
//!
//! The mask is sixteen 64-bit words wide, i.e. up to [`CpuSet::MAX_CPUS`]
//! (1024) CPUs — wide enough for the simulated multi-socket fabrics of the
//! NUMA-scale stealing study (256–1024 cores) while keeping the type `Copy`
//! and allocation-free (a requirement inherited from the paper's embedding
//! of task structs inside packet wrappers, §IV-B). At 128 bytes a set is
//! still two cache lines; everything hot path-sensitive (the scheduler's
//! steal spans) mirrors the word layout atomically rather than copying
//! sets around.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;

mod iter;

pub use iter::CpuIter;

/// Number of 64-bit words backing a [`CpuSet`].
pub(crate) const WORDS: usize = 16;

/// A fixed-size set of logical CPU identifiers.
///
/// `CpuSet` is a value type: all operations are by value or shared reference,
/// it is `Copy`, and it never allocates. CPU ids are `usize` in the range
/// `0..CpuSet::MAX_CPUS`.
///
/// # Examples
///
/// ```
/// use piom_cpuset::CpuSet;
///
/// let a = CpuSet::from_iter([0, 1, 2, 3]);
/// let b = CpuSet::range(2..6);
/// assert_eq!(a & b, CpuSet::from_iter([2, 3]));
/// assert!(a.contains(1));
/// assert!(!a.is_subset(&b));
/// assert_eq!((a | b).count(), 6);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CpuSet {
    words: [u64; WORDS],
}

impl CpuSet {
    /// Maximum number of CPUs representable (ids `0..MAX_CPUS`).
    pub const MAX_CPUS: usize = WORDS * 64;

    /// The empty set.
    pub const EMPTY: CpuSet = CpuSet { words: [0; WORDS] };

    /// The full set containing every representable CPU id.
    pub const FULL: CpuSet = CpuSet {
        words: [u64::MAX; WORDS],
    };

    /// Creates an empty set.
    #[inline]
    pub const fn new() -> Self {
        Self::EMPTY
    }

    /// Creates a set containing a single CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpu >= CpuSet::MAX_CPUS`.
    #[inline]
    pub const fn single(cpu: usize) -> Self {
        assert!(cpu < Self::MAX_CPUS, "cpu id out of range");
        let mut words = [0u64; WORDS];
        words[cpu / 64] = 1u64 << (cpu % 64);
        CpuSet { words }
    }

    /// Creates a set containing every CPU in `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range end exceeds [`CpuSet::MAX_CPUS`].
    pub fn range(range: core::ops::Range<usize>) -> Self {
        assert!(range.end <= Self::MAX_CPUS, "cpu range out of bounds");
        let mut set = Self::new();
        for cpu in range {
            set.insert(cpu);
        }
        set
    }

    /// Creates a set of the first `n` CPUs (`0..n`).
    pub fn first_n(n: usize) -> Self {
        Self::range(0..n)
    }

    /// Inserts `cpu`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `cpu >= CpuSet::MAX_CPUS`.
    #[inline]
    pub fn insert(&mut self, cpu: usize) -> bool {
        assert!(cpu < Self::MAX_CPUS, "cpu id out of range");
        let word = &mut self.words[cpu / 64];
        let bit = 1u64 << (cpu % 64);
        let was_absent = *word & bit == 0;
        *word |= bit;
        was_absent
    }

    /// Removes `cpu`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, cpu: usize) -> bool {
        if cpu >= Self::MAX_CPUS {
            return false;
        }
        let word = &mut self.words[cpu / 64];
        let bit = 1u64 << (cpu % 64);
        let was_present = *word & bit != 0;
        *word &= !bit;
        was_present
    }

    /// Returns `true` if `cpu` is in the set.
    #[inline]
    pub const fn contains(&self, cpu: usize) -> bool {
        if cpu >= Self::MAX_CPUS {
            return false;
        }
        self.words[cpu / 64] & (1u64 << (cpu % 64)) != 0
    }

    /// Returns `true` if the set is empty.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        let mut i = 0;
        while i < WORDS {
            if self.words[i] != 0 {
                return false;
            }
            i += 1;
        }
        true
    }

    /// Number of CPUs in the set.
    #[inline]
    pub const fn count(&self) -> usize {
        let mut total = 0u32;
        let mut i = 0;
        while i < WORDS {
            total += self.words[i].count_ones();
            i += 1;
        }
        total as usize
    }

    /// Lowest CPU id in the set, if any.
    #[inline]
    pub fn first(&self) -> Option<usize> {
        for (i, word) in self.words.iter().enumerate() {
            if *word != 0 {
                return Some(i * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Highest CPU id in the set, if any.
    #[inline]
    pub fn last(&self) -> Option<usize> {
        for (i, word) in self.words.iter().enumerate().rev() {
            if *word != 0 {
                return Some(i * 64 + 63 - word.leading_zeros() as usize);
            }
        }
        None
    }

    /// Returns `true` if `self` is a subset of `other` (not necessarily proper).
    #[inline]
    pub fn is_subset(&self, other: &CpuSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if the two sets share no CPU.
    #[inline]
    pub fn is_disjoint(&self, other: &CpuSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Set intersection.
    #[inline]
    pub fn intersection(&self, other: &CpuSet) -> CpuSet {
        let mut out = *self;
        for (w, o) in out.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
        out
    }

    /// Set union.
    #[inline]
    pub fn union(&self, other: &CpuSet) -> CpuSet {
        let mut out = *self;
        for (w, o) in out.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        out
    }

    /// Set difference (`self \ other`).
    #[inline]
    pub fn difference(&self, other: &CpuSet) -> CpuSet {
        let mut out = *self;
        for (w, o) in out.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
        out
    }

    /// Symmetric difference.
    #[inline]
    pub fn symmetric_difference(&self, other: &CpuSet) -> CpuSet {
        let mut out = *self;
        for (w, o) in out.words.iter_mut().zip(&other.words) {
            *w ^= o;
        }
        out
    }

    /// Iterator over CPU ids in ascending order.
    #[inline]
    pub fn iter(&self) -> CpuIter {
        CpuIter::new(self.words)
    }

    /// Access to the raw backing words (for hashing / FFI-style uses).
    #[inline]
    pub const fn as_words(&self) -> &[u64; WORDS] {
        &self.words
    }

    /// Builds a set from raw backing words.
    #[inline]
    pub const fn from_words(words: [u64; WORDS]) -> Self {
        CpuSet { words }
    }
}

impl FromIterator<usize> for CpuSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut set = CpuSet::new();
        for cpu in iter {
            set.insert(cpu);
        }
        set
    }
}

impl IntoIterator for CpuSet {
    type Item = usize;
    type IntoIter = CpuIter;
    fn into_iter(self) -> CpuIter {
        self.iter()
    }
}

impl IntoIterator for &CpuSet {
    type Item = usize;
    type IntoIter = CpuIter;
    fn into_iter(self) -> CpuIter {
        self.iter()
    }
}

impl core::ops::BitAnd for CpuSet {
    type Output = CpuSet;
    fn bitand(self, rhs: CpuSet) -> CpuSet {
        self.intersection(&rhs)
    }
}

impl core::ops::BitOr for CpuSet {
    type Output = CpuSet;
    fn bitor(self, rhs: CpuSet) -> CpuSet {
        self.union(&rhs)
    }
}

impl core::ops::BitXor for CpuSet {
    type Output = CpuSet;
    fn bitxor(self, rhs: CpuSet) -> CpuSet {
        self.symmetric_difference(&rhs)
    }
}

impl core::ops::Sub for CpuSet {
    type Output = CpuSet;
    fn sub(self, rhs: CpuSet) -> CpuSet {
        self.difference(&rhs)
    }
}

impl core::ops::BitAndAssign for CpuSet {
    fn bitand_assign(&mut self, rhs: CpuSet) {
        *self = self.intersection(&rhs);
    }
}

impl core::ops::BitOrAssign for CpuSet {
    fn bitor_assign(&mut self, rhs: CpuSet) {
        *self = self.union(&rhs);
    }
}

impl fmt::Debug for CpuSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CpuSet{{{}}}", self)
    }
}

/// Formats as a compact cpulist, e.g. `0-3,8,10-11` (Linux `cpulist` syntax).
impl fmt::Display for CpuSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut run_start: Option<usize> = None;
        let mut prev: Option<usize> = None;
        let flush = |f: &mut fmt::Formatter<'_>,
                     start: usize,
                     end: usize,
                     first: &mut bool|
         -> fmt::Result {
            if !*first {
                write!(f, ",")?;
            }
            *first = false;
            if start == end {
                write!(f, "{start}")
            } else {
                write!(f, "{start}-{end}")
            }
        };
        for cpu in self.iter() {
            match (run_start, prev) {
                (Some(start), Some(p)) if cpu == p + 1 => {
                    let _ = start;
                }
                (Some(start), Some(p)) => {
                    flush(f, start, p, &mut first)?;
                    run_start = Some(cpu);
                }
                _ => run_start = Some(cpu),
            }
            prev = Some(cpu);
        }
        if let (Some(start), Some(p)) = (run_start, prev) {
            flush(f, start, p, &mut first)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        assert!(CpuSet::EMPTY.is_empty());
        assert_eq!(CpuSet::EMPTY.count(), 0);
        assert_eq!(CpuSet::FULL.count(), CpuSet::MAX_CPUS);
        assert!(CpuSet::EMPTY.is_subset(&CpuSet::FULL));
    }

    #[test]
    fn single_membership() {
        for cpu in [0, 1, 63, 64, 127, 128, 255] {
            let s = CpuSet::single(cpu);
            assert_eq!(s.count(), 1);
            assert!(s.contains(cpu));
            assert_eq!(s.first(), Some(cpu));
            assert_eq!(s.last(), Some(cpu));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn single_out_of_range_panics() {
        let _ = CpuSet::single(CpuSet::MAX_CPUS);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = CpuSet::new();
        assert!(s.insert(5));
        assert!(!s.insert(5), "second insert reports already present");
        assert!(s.contains(5));
        assert!(s.remove(5));
        assert!(!s.remove(5), "second remove reports already absent");
        assert!(s.is_empty());
    }

    #[test]
    fn remove_out_of_range_is_noop() {
        let mut s = CpuSet::FULL;
        assert!(!s.remove(CpuSet::MAX_CPUS));
        assert!(!s.remove(usize::MAX));
        assert_eq!(s.count(), CpuSet::MAX_CPUS);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        assert!(!CpuSet::FULL.contains(CpuSet::MAX_CPUS));
    }

    #[test]
    fn range_construction() {
        let s = CpuSet::range(4..12);
        assert_eq!(s.count(), 8);
        assert_eq!(s.first(), Some(4));
        assert_eq!(s.last(), Some(11));
        assert!(CpuSet::range(7..7).is_empty());
    }

    #[test]
    fn cross_word_range() {
        let s = CpuSet::range(60..70);
        assert_eq!(s.count(), 10);
        assert!(s.contains(63));
        assert!(s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), (60..70).collect::<Vec<_>>());
    }

    #[test]
    fn algebra_basics() {
        let a = CpuSet::from_iter([0, 1, 2, 3]);
        let b = CpuSet::from_iter([2, 3, 4, 5]);
        assert_eq!(a & b, CpuSet::from_iter([2, 3]));
        assert_eq!(a | b, CpuSet::range(0..6));
        assert_eq!(a - b, CpuSet::from_iter([0, 1]));
        assert_eq!(a ^ b, CpuSet::from_iter([0, 1, 4, 5]));
    }

    #[test]
    fn subset_superset_disjoint() {
        let small = CpuSet::from_iter([1, 2]);
        let big = CpuSet::range(0..8);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(small.is_disjoint(&CpuSet::from_iter([3, 4])));
        assert!(!small.is_disjoint(&CpuSet::from_iter([2, 9])));
    }

    #[test]
    fn first_last_across_words() {
        let s = CpuSet::from_iter([70, 130, 200]);
        assert_eq!(s.first(), Some(70));
        assert_eq!(s.last(), Some(200));
    }

    #[test]
    fn display_compacts_runs() {
        let s = CpuSet::from_iter([0, 1, 2, 3, 8, 10, 11]);
        assert_eq!(s.to_string(), "0-3,8,10-11");
        assert_eq!(CpuSet::EMPTY.to_string(), "");
        assert_eq!(CpuSet::single(7).to_string(), "7");
    }

    #[test]
    fn bitassign_operators() {
        let mut s = CpuSet::from_iter([0, 1]);
        s |= CpuSet::single(2);
        assert_eq!(s, CpuSet::range(0..3));
        s &= CpuSet::from_iter([1, 2, 3]);
        assert_eq!(s, CpuSet::from_iter([1, 2]));
    }

    #[test]
    fn words_roundtrip() {
        let s = CpuSet::from_iter([3, 64, 190]);
        let w = *s.as_words();
        assert_eq!(CpuSet::from_words(w), s);
    }
}
