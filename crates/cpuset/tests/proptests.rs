//! Property-based tests for CpuSet algebra laws.

use piom_cpuset::CpuSet;
use proptest::prelude::*;

fn arb_cpuset() -> impl Strategy<Value = CpuSet> {
    proptest::collection::vec(0usize..CpuSet::MAX_CPUS, 0..64).prop_map(|v| v.into_iter().collect())
}

proptest! {
    #[test]
    fn union_commutes(a in arb_cpuset(), b in arb_cpuset()) {
        prop_assert_eq!(a | b, b | a);
    }

    #[test]
    fn intersection_commutes(a in arb_cpuset(), b in arb_cpuset()) {
        prop_assert_eq!(a & b, b & a);
    }

    #[test]
    fn union_associates(a in arb_cpuset(), b in arb_cpuset(), c in arb_cpuset()) {
        prop_assert_eq!((a | b) | c, a | (b | c));
    }

    #[test]
    fn intersection_distributes_over_union(
        a in arb_cpuset(), b in arb_cpuset(), c in arb_cpuset()
    ) {
        prop_assert_eq!(a & (b | c), (a & b) | (a & c));
    }

    #[test]
    fn de_morgan_via_difference(a in arb_cpuset(), b in arb_cpuset()) {
        // FULL \ (a ∪ b) == (FULL \ a) ∩ (FULL \ b)
        prop_assert_eq!(
            CpuSet::FULL - (a | b),
            (CpuSet::FULL - a) & (CpuSet::FULL - b)
        );
    }

    #[test]
    fn subset_iff_union_absorbs(a in arb_cpuset(), b in arb_cpuset()) {
        prop_assert_eq!(a.is_subset(&b), (a | b) == b);
    }

    #[test]
    fn count_inclusion_exclusion(a in arb_cpuset(), b in arb_cpuset()) {
        prop_assert_eq!(
            (a | b).count() + (a & b).count(),
            a.count() + b.count()
        );
    }

    #[test]
    fn xor_is_union_minus_intersection(a in arb_cpuset(), b in arb_cpuset()) {
        prop_assert_eq!(a ^ b, (a | b) - (a & b));
    }

    #[test]
    fn iter_sorted_and_member(a in arb_cpuset()) {
        let v: Vec<_> = a.iter().collect();
        prop_assert!(v.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(v.len(), a.count());
        for cpu in &v {
            prop_assert!(a.contains(*cpu));
        }
    }

    #[test]
    fn insert_remove_restores(a in arb_cpuset(), cpu in 0usize..CpuSet::MAX_CPUS) {
        let mut s = a;
        let was_present = s.contains(cpu);
        s.insert(cpu);
        prop_assert!(s.contains(cpu));
        if !was_present {
            s.remove(cpu);
            prop_assert_eq!(s, a);
        }
    }

    #[test]
    fn first_last_consistent(a in arb_cpuset()) {
        match (a.first(), a.last()) {
            (Some(f), Some(l)) => {
                prop_assert!(f <= l);
                prop_assert!(a.contains(f));
                prop_assert!(a.contains(l));
            }
            (None, None) => prop_assert!(a.is_empty()),
            _ => prop_assert!(false, "first/last disagree"),
        }
    }
}

/// The per-bit construction the word-wise `range` and `first_n` must equal.
fn bit_by_bit(range: core::ops::Range<usize>) -> CpuSet {
    let mut set = CpuSet::new();
    for cpu in range {
        set.insert(cpu);
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Any two ends in `0..=MAX_CPUS`, in either order (a reversed range
    /// is empty, as iterating it is).
    #[test]
    fn range_and_first_n_are_bit_by_bit(
        a in 0usize..=CpuSet::MAX_CPUS,
        b in 0usize..=CpuSet::MAX_CPUS,
    ) {
        prop_assert_eq!(CpuSet::range(a..b), bit_by_bit(a..b));
        prop_assert_eq!(CpuSet::range(b..a), bit_by_bit(b..a));
        prop_assert_eq!(CpuSet::first_n(a), bit_by_bit(0..a));
    }
}

/// Every range `start..end` with `end <= MAX_CPUS` — the empty ones
/// (`0..0`, `64..64`, `1024..1024`), those across words 63/64/65 and those
/// ending at 1 024 among them — and every prefix.
#[test]
fn every_range_is_bit_by_bit() {
    for start in 0..=CpuSet::MAX_CPUS {
        let mut expect = CpuSet::new();
        for end in start..=CpuSet::MAX_CPUS {
            assert_eq!(CpuSet::range(start..end), expect, "{start}..{end}");
            if end < CpuSet::MAX_CPUS {
                expect.insert(end);
            }
        }
        assert_eq!(
            CpuSet::first_n(start),
            bit_by_bit(0..start),
            "first_n({start})"
        );
    }
}

#[test]
#[should_panic(expected = "cpu range out of bounds")]
fn range_past_max_cpus_panics() {
    let _ = CpuSet::range(1000..CpuSet::MAX_CPUS + 1);
}

#[test]
#[should_panic(expected = "cpu range out of bounds")]
fn first_n_past_max_cpus_panics() {
    let _ = CpuSet::first_n(CpuSet::MAX_CPUS + 1);
}
