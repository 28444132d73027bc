//! Scaling-study invariants for the topology crate, pinned from outside:
//!
//! * every builder preset up to the 1024-core quad-socket fabric produces
//!   a tree whose **children partition their parent's cpuset** exactly
//!   (no overlap, no gap) at every level;
//! * [`Topology::steal_order_with_distance`] is a **permutation of the off-path nodes**
//!   whose nearest-span distances are non-decreasing — the property the
//!   manager's distance-tiered victim scan rides on;
//! * random builder shapes (proptest) satisfy the same invariants, so the
//!   guarantees do not hinge on the preset dimensions being friendly.
//!
//! The distance checks recompute span distances from the public pairwise
//! [`Topology::distance`] metric over the whole span, independently of
//! [`Topology::node_distance`]'s O(1) shortcut, so a bug there cannot
//! vouch for itself.

use piom_cpuset::CpuSet;
use piom_topology::{presets, Level, Topology, TopologyBuilder};
use proptest::prelude::*;
use std::collections::HashSet;

/// All presets of the scaling ladder, smallest first.
fn ladder() -> Vec<Topology> {
    vec![
        presets::borderline(),
        presets::kwak(),
        presets::dual_socket_256(),
        presets::quad_socket_512(),
        presets::quad_socket_1024(),
    ]
}

/// Distance from `core` to the nearest core of `span`, recomputed from the
/// public pairwise metric (`usize::MAX` for an empty span).
fn span_distance(topo: &Topology, core: usize, span: &CpuSet) -> usize {
    span.iter()
        .map(|s| topo.distance(core, s))
        .min()
        .unwrap_or(usize::MAX)
}

/// Origins to check on a topology: exhaustive for small machines, a
/// deterministic structural sample (socket edges + middles) for the
/// many-core fabrics so the suite stays fast in debug builds.
fn sample_origins(topo: &Topology) -> Vec<usize> {
    let n = topo.n_cores();
    if n <= 64 {
        return (0..n).collect();
    }
    let mut picks = HashSet::new();
    for frac in 0..8 {
        let base = frac * n / 8;
        picks.insert(base);
        picks.insert(base + 1);
        picks.insert(base + n / 16);
    }
    picks.insert(n - 1);
    let mut v: Vec<_> = picks.into_iter().collect();
    v.sort_unstable();
    v
}

fn assert_steal_order_invariants(topo: &Topology, origin: usize) {
    let order = topo.steal_order_with_distance(origin);
    // Permutation: every node either lies on the origin's path or appears
    // in the steal order exactly once.
    let on_path: HashSet<usize> = topo.path_to_root(origin).map(|id| id.index()).collect();
    let seen: HashSet<usize> = order.iter().map(|(id, _)| id.index()).collect();
    assert_eq!(seen.len(), order.len(), "steal order repeats a victim");
    assert_eq!(
        seen.len() + on_path.len(),
        topo.n_nodes(),
        "steal order must cover every off-path node of {}",
        topo.name()
    );
    assert!(
        seen.is_disjoint(&on_path),
        "steal order must exclude the origin's own path"
    );
    // Distance consistency: the recorded tier distance matches the public
    // metric and never decreases along the order.
    let mut prev = 0usize;
    for &(id, dist) in &order {
        let recomputed = span_distance(topo, origin, &topo.node(id).cpuset);
        assert_eq!(
            dist,
            recomputed,
            "victim {id:?} distance mislabelled on {}",
            topo.name()
        );
        assert!(
            dist >= prev,
            "steal order of core {origin} jumps back from distance {prev} to {dist}"
        );
        prev = dist;
    }
}

#[test]
fn ladder_presets_build_with_expected_shapes() {
    let expect = [
        ("borderline", 8, 1),
        ("kwak", 16, 4),
        ("dual-socket-256", 256, 2),
        ("quad-socket-512", 512, 4),
        ("quad-socket-1024", 1024, 4),
    ];
    for (topo, (name, cores, numa)) in ladder().iter().zip(expect) {
        assert_eq!(topo.name(), name);
        assert_eq!(topo.n_cores(), cores);
        let numa_nodes = topo.nodes_at_level(Level::NumaNode).len();
        // Single-NUMA machines collapse the level entirely.
        assert_eq!(numa_nodes, if numa > 1 { numa } else { 0 });
        assert_eq!(topo.all_cores(), CpuSet::first_n(cores));
    }
    // The 1024-core fabric saturates the cpuset exactly: every core id is
    // representable and none beyond.
    assert_eq!(presets::quad_socket_1024().n_cores(), CpuSet::MAX_CPUS);
}

#[test]
fn children_partition_parent_on_every_ladder_preset() {
    for topo in ladder() {
        for (id, node) in topo.iter() {
            if node.children.is_empty() {
                assert_eq!(node.level, Level::Core, "only cores are leaves");
                assert_eq!(node.cpuset.count(), 1);
                continue;
            }
            let mut union = CpuSet::EMPTY;
            for &c in &node.children {
                let child = topo.node(c);
                assert_eq!(child.parent, Some(id));
                assert!(child.cpuset.is_subset(&node.cpuset));
                assert!(
                    union.is_disjoint(&child.cpuset),
                    "children of {id:?} overlap on {}",
                    topo.name()
                );
                union |= child.cpuset;
            }
            assert_eq!(
                union,
                node.cpuset,
                "children of {id:?} must cover the parent exactly on {}",
                topo.name()
            );
        }
    }
}

#[test]
fn steal_order_is_a_distance_sorted_permutation_up_to_1024_cores() {
    for topo in ladder() {
        for origin in sample_origins(&topo) {
            assert_steal_order_invariants(&topo, origin);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random builder shapes satisfy the same invariants as the presets,
    /// including shapes whose levels collapse (counts of 1 anywhere).
    #[test]
    fn random_shapes_hold_partition_and_order_invariants(
        numa in 1usize..=4,
        chips in 1usize..=3,
        caches in 1usize..=3,
        cores in 1usize..=6,
        origin_seed in 0usize..64,
    ) {
        let topo = TopologyBuilder::new("prop")
            .numa_nodes(numa)
            .chips_per_numa(chips)
            .caches_per_chip(caches)
            .cores_per_cache(cores)
            .build();
        prop_assert_eq!(topo.n_cores(), numa * chips * caches * cores);
        for (id, node) in topo.iter() {
            let mut union = CpuSet::EMPTY;
            for &c in &node.children {
                prop_assert!(union.is_disjoint(&topo.node(c).cpuset));
                union |= topo.node(c).cpuset;
            }
            if !node.children.is_empty() {
                prop_assert_eq!(union, node.cpuset);
            }
            let _ = id;
        }
        let origin = origin_seed % topo.n_cores();
        assert_steal_order_invariants(&topo, origin);
    }
}
