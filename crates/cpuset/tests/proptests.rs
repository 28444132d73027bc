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
