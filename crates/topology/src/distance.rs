//! Topological distance between cores.
//!
//! Cost models and the work-stealing victim order need to know "how far" two
//! cores are: same core, sharing a cache, sharing a chip, sharing a NUMA
//! node, or only sharing the machine. [`Locality`] classifies a pair of
//! cores; [`Topology::distance`] gives a small integer usable as a sort key
//! or cost-table index.

use crate::{Level, NodeId, Topology};

/// Classification of the relationship between two cores, from closest to
/// farthest. The discriminant doubles as a distance value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Locality {
    /// The same core.
    SelfCore = 0,
    /// Different cores sharing a cache.
    SharedCache = 1,
    /// Different cores on the same chip (no shared cache level between them).
    SameChip = 2,
    /// Different chips within the same NUMA node.
    SameNuma = 3,
    /// Different NUMA nodes: traffic crosses the interconnect.
    CrossNuma = 4,
}

impl Locality {
    /// Distance value (0 = same core, 4 = cross-NUMA).
    #[inline]
    pub fn distance(self) -> usize {
        self as usize
    }
}

impl Topology {
    /// Locality class of the pair `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if either core id is out of range.
    pub fn locality(&self, a: usize, b: usize) -> Locality {
        if a == b {
            return Locality::SelfCore;
        }
        let anc = self.common_ancestor(a, b);
        match self.node(anc).level {
            Level::Core => Locality::SelfCore,
            Level::Cache => Locality::SharedCache,
            Level::Chip => Locality::SameChip,
            Level::NumaNode => Locality::SameNuma,
            Level::Machine => {
                // On machines with a single NUMA node the root *is* the only
                // memory domain; treat root-level meetings as cross-NUMA only
                // when the tree actually has NUMA nodes. Short-circuiting
                // scan (a NUMA node sits right after the root in the arena)
                // keeps this O(1) on multi-socket fabrics — `distance` is
                // the inner loop of the steal order precomputation.
                if self.iter().any(|(_, n)| n.level == Level::NumaNode) {
                    Locality::CrossNuma
                } else {
                    Locality::SameNuma
                }
            }
        }
    }

    /// Integer distance between two cores (see [`Locality::distance`]).
    #[inline]
    pub fn distance(&self, a: usize, b: usize) -> usize {
        self.locality(a, b).distance()
    }

    /// Victim order for work stealing from `core`: every node *not* on
    /// `core`'s path to the root (those queues were already scanned by
    /// Algorithm 1), sorted nearest-first.
    ///
    /// "Nearest" is the [`Locality`] distance from `core` to the closest
    /// core the node spans, so a thief visits its siblings' Per-Core Queues
    /// before crossing a chip and long before crossing the NUMA
    /// interconnect — lock traffic from stealing stays as local as the
    /// hierarchy itself. Ties prefer deeper nodes (a sibling's Per-Core
    /// Queue over the cache queue spanning it), then lower node ids, so
    /// the order is fully deterministic.
    ///
    /// Each victim comes with that distance, which partitions the order
    /// into *tiers* of equally-near victims (a NUMA node's sibling per-core
    /// queues, for example). A scheduler is free to re-rank victims
    /// **within** a tier by a runtime signal — the task manager probes
    /// deeper backlogs first, so a thief skips hot-but-empty neighbours
    /// without ever paying a farther tier's interconnect crossing
    /// prematurely.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn steal_order_with_distance(&self, core: usize) -> Vec<(NodeId, usize)> {
        let on_path: Vec<NodeId> = self.path_to_root(core).collect();
        let mut victims: Vec<(NodeId, usize)> = self
            .node_ids()
            .filter(|id| !on_path.contains(id))
            .map(|id| (id, self.node_distance(core, id)))
            .collect();
        victims.sort_by_key(|&(id, nearest)| {
            (nearest, core::cmp::Reverse(self.node(id).depth), id.index())
        });
        victims
    }

    /// The [`Locality`] distance from `core` to the *nearest* core node
    /// `id` spans, in O(1): distance is the level of the common ancestor,
    /// so a subtree that contains `core` is at 0 (it contains `core`
    /// itself) and every core of one that does not shares the same common
    /// ancestor with `core` — the span's first core stands for all of
    /// them. The one kernel behind
    /// [`steal_order_with_distance`](Self::steal_order_with_distance)
    /// (victim queues around a thief) and the task manager's socket visit
    /// order, so the two can never disagree on what "near" means.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or `id` is outside the arena.
    pub fn node_distance(&self, core: usize, id: NodeId) -> usize {
        let span = &self.node(id).cpuset;
        if span.contains(core) {
            return 0;
        }
        let first = span.first().expect("a topology node spans a core");
        self.distance(core, first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn kwak_localities() {
        let t = presets::kwak();
        assert_eq!(t.locality(3, 3), Locality::SelfCore);
        // Cores 0..4 share NUMA node (chip+cache collapsed into it).
        assert_eq!(t.locality(0, 3), Locality::SameNuma);
        assert_eq!(t.locality(0, 4), Locality::CrossNuma);
        assert_eq!(t.locality(12, 15), Locality::SameNuma);
    }

    #[test]
    fn borderline_localities() {
        let t = presets::borderline();
        // Single NUMA domain: chip siblings are SameChip, strangers SameNuma.
        assert_eq!(t.locality(0, 1), Locality::SameChip);
        assert_eq!(t.locality(0, 2), Locality::SameNuma);
        assert_eq!(t.locality(6, 7), Locality::SameChip);
    }

    #[test]
    fn cache_level_detected() {
        let t = crate::TopologyBuilder::new("c")
            .numa_nodes(2)
            .caches_per_chip(2)
            .cores_per_cache(2)
            .build();
        assert_eq!(t.locality(0, 1), Locality::SharedCache);
        // Cores 0 and 2: different caches, chip collapsed -> meet at NUMA.
        assert_eq!(t.locality(0, 2), Locality::SameNuma);
        assert_eq!(t.locality(0, 4), Locality::CrossNuma);
    }

    /// The victims of [`Topology::steal_order_with_distance`], in order.
    fn victims(t: &Topology, core: usize) -> Vec<NodeId> {
        t.steal_order_with_distance(core)
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    #[test]
    fn steal_order_visits_siblings_before_remote_nodes() {
        let t = presets::kwak();
        let order = victims(&t, 5);
        // No node on core 5's own path appears.
        for id in t.path_to_root(5) {
            assert!(!order.contains(&id), "own path must not be a victim");
        }
        // Every other node appears exactly once.
        assert_eq!(order.len(), t.n_nodes() - t.path_to_root(5).count());
        // The first victims are the sibling per-core queues on NUMA #1
        // (cores 4, 6, 7), in core order.
        let first_cores: Vec<_> = order
            .iter()
            .take(3)
            .map(|&id| t.node(id).cpuset.first().unwrap())
            .collect();
        assert_eq!(first_cores, vec![4, 6, 7]);
        // Victims never get closer again as we walk the list.
        let dist_of = |id: &NodeId| {
            t.node(*id)
                .cpuset
                .iter()
                .map(|c| t.distance(5, c))
                .min()
                .unwrap()
        };
        for w in order.windows(2) {
            assert!(dist_of(&w[0]) <= dist_of(&w[1]));
        }
    }

    #[test]
    fn steal_order_prefers_deeper_nodes_on_ties() {
        let t = presets::borderline();
        // From core 0, its chip sibling core 1's per-core queue must come
        // before any other chip's node.
        let order = victims(&t, 0);
        assert_eq!(t.node(order[0]).cpuset.first().unwrap(), 1);
        assert_eq!(t.node(order[0]).level, Level::Core);
    }

    #[test]
    fn steal_order_with_distance_matches_and_tiers_are_monotone() {
        let t = presets::kwak();
        for core in [0, 5, 15] {
            let annotated = t.steal_order_with_distance(core);
            for (id, d) in &annotated {
                let nearest = t
                    .node(*id)
                    .cpuset
                    .iter()
                    .map(|c| t.distance(core, c))
                    .min()
                    .unwrap();
                assert_eq!(*d, nearest, "distance annotation is the tier key");
            }
            for w in annotated.windows(2) {
                assert!(w[0].1 <= w[1].1, "tiers never get closer again");
            }
        }
    }
}
