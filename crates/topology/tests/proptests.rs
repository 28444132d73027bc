//! Property tests on topology invariants.

use piom_cpuset::CpuSet;
use piom_topology::{presets, Level, Topology, TopologyBuilder};
use proptest::prelude::*;

fn arb_topology() -> impl Strategy<Value = Topology> {
    (1usize..=4, 1usize..=3, 1usize..=2, 1usize..=4).prop_map(|(numa, chips, caches, cores)| {
        TopologyBuilder::new("prop")
            .numa_nodes(numa)
            .chips_per_numa(chips)
            .caches_per_chip(caches)
            .cores_per_cache(cores)
            .build()
    })
}

proptest! {
    #[test]
    fn every_core_path_reaches_global_queue(t in arb_topology()) {
        for cpu in 0..t.n_cores() {
            let path: Vec<_> = t.path_to_root(cpu).collect();
            prop_assert_eq!(t.node(path[0]).level, Level::Core);
            prop_assert_eq!(*path.last().unwrap(), t.root());
            // cpusets grow along the path; strictly so between internal
            // nodes (dedup collapses duplicate internal spans). The core
            // leaf itself may equal its parent's span on degenerate shapes
            // (e.g. one core per NUMA node).
            for w in path.windows(2) {
                let inner = t.node(w[0]).cpuset;
                let outer = t.node(w[1]).cpuset;
                prop_assert!(inner.is_subset(&outer));
                if t.node(w[0]).level != Level::Core {
                    prop_assert!(inner != outer, "duplicate span survived dedup");
                }
            }
        }
    }

    #[test]
    fn smallest_covering_is_minimal(t in arb_topology(), seed in any::<u64>()) {
        // Build a random nonempty subset of the machine's cores.
        let n = t.n_cores();
        let mut set = CpuSet::new();
        let mut s = seed;
        for cpu in 0..n {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if s >> 63 == 1 { set.insert(cpu); }
        }
        if set.is_empty() { set.insert(seed as usize % n); }

        let id = t.smallest_covering(&set).unwrap();
        let node = t.node(id);
        prop_assert!(set.is_subset(&node.cpuset));
        // Minimality: no child of the chosen node also covers the set.
        for &child in &node.children {
            prop_assert!(!set.is_subset(&t.node(child).cpuset));
        }
    }

    #[test]
    fn locality_is_symmetric_metriclike(t in arb_topology()) {
        let n = t.n_cores();
        for a in 0..n {
            prop_assert_eq!(t.distance(a, a), 0);
            for b in 0..n {
                prop_assert_eq!(t.distance(a, b), t.distance(b, a));
            }
        }
    }

    #[test]
    fn node_arena_parents_precede_children(t in arb_topology()) {
        for (id, node) in t.iter() {
            if let Some(p) = node.parent {
                prop_assert!(p < id);
                prop_assert!(t.node(p).children.contains(&id));
            }
        }
    }

    #[test]
    fn core_nodes_are_leaves_numbered_in_order(t in arb_topology()) {
        for cpu in 0..t.n_cores() {
            let leaf = t.node(t.core_node(cpu));
            prop_assert_eq!(leaf.level, Level::Core);
            prop_assert_eq!(leaf.ordinal, cpu);
            prop_assert_eq!(leaf.cpuset, CpuSet::single(cpu));
            prop_assert!(leaf.children.is_empty());
        }
    }

    #[test]
    fn common_ancestor_agrees_with_smallest_covering(t in arb_topology()) {
        let n = t.n_cores();
        for a in 0..n.min(6) {
            for b in 0..n.min(6) {
                let anc = t.common_ancestor(a, b);
                let cover = t
                    .smallest_covering(&CpuSet::from_iter([a, b]))
                    .unwrap();
                prop_assert_eq!(anc, cover);
            }
        }
    }
}

/// Machines for the word-wise lookup: kwak, random symmetric shapes (up
/// to 4 × 4 × 16 = 256 cores) and the 1024-core preset, where a set can
/// reach every word.
fn arb_machine() -> impl Strategy<Value = Topology> {
    (0u8..4, 1usize..=4, 1usize..=4, 1usize..=16).prop_map(
        |(kind, numa, chips, cores)| match kind {
            0 => presets::kwak(),
            1 => presets::quad_socket_1024(),
            _ => presets::symmetric(numa, chips, cores),
        },
    )
}

/// Sets of every shape the scheduler sees: single cores, ranges, sparse
/// sets in a window, random masks over all sixteen words, and the empty
/// set — some of them reaching past the machine's last core.
fn arb_set(n: usize, seed: u64) -> CpuSet {
    let lo = (seed >> 8) as usize % n;
    let hi = (lo + 1 + (seed >> 24) as usize % 300).min(CpuSet::MAX_CPUS);
    match seed % 6 {
        0 => CpuSet::single(lo),
        1 => CpuSet::range(lo..hi),
        2 => (lo..hi)
            .filter(|&c| seed.rotate_left(c as u32) & 1 == 1)
            .collect(),
        3 => CpuSet::from_words(core::array::from_fn(|i| seed.rotate_left(9 * i as u32))),
        4 => {
            CpuSet::from_words(core::array::from_fn(|i| seed.rotate_left(9 * i as u32)))
                & CpuSet::first_n(n)
        }
        _ => CpuSet::EMPTY,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The word-wise lookup finds the tree walk's node for the whole
    /// sixteen words, for the set's nonzero words alone, and for the
    /// two-word window a task keeps when the set fits one.
    #[test]
    fn word_lookup_is_the_tree_walk(t in arb_machine(), seed in any::<u64>()) {
        let set = arb_set(t.n_cores(), seed);
        let expect = t.smallest_covering(&set);
        let words = set.as_words();
        prop_assert_eq!(t.smallest_covering_words(0, words), expect, "{}", set);
        let (lo, hi) = match (set.first(), set.last()) {
            (Some(f), Some(l)) => (f / 64, l / 64),
            _ => (0, 0),
        };
        prop_assert_eq!(t.smallest_covering_words(lo, &words[lo..=hi]), expect, "{}", set);
        if hi <= lo + 1 {
            let base = lo.min(words.len() - 2);
            prop_assert_eq!(
                t.smallest_covering_words(base, &words[base..base + 2]),
                expect,
                "{}",
                set
            );
        }
    }
}
