//! Topology construction: generic builder and the paper's testbed presets.

use crate::{Level, Node, NodeId, Topology};
use piom_cpuset::CpuSet;

/// Shape of one machine: how many of each component nest inside the parent.
///
/// A zero/one count or a grouping identical to the parent's collapses that
/// level (no duplicate queues for identical spans — matching the paper's
/// "depending on the machine architecture" clause in §III-A).
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    name: String,
    numa_nodes: usize,
    chips_per_numa: usize,
    caches_per_chip: usize,
    cores_per_cache: usize,
}

impl TopologyBuilder {
    /// Starts a builder with a single NUMA node, one chip, one cache group and
    /// one core — adjust with the setters.
    pub fn new(name: impl Into<String>) -> Self {
        TopologyBuilder {
            name: name.into(),
            numa_nodes: 1,
            chips_per_numa: 1,
            caches_per_chip: 1,
            cores_per_cache: 1,
        }
    }

    /// Number of NUMA nodes in the machine.
    pub fn numa_nodes(mut self, n: usize) -> Self {
        self.numa_nodes = n.max(1);
        self
    }

    /// Number of chips (sockets) per NUMA node.
    pub fn chips_per_numa(mut self, n: usize) -> Self {
        self.chips_per_numa = n.max(1);
        self
    }

    /// Number of shared-cache groups per chip.
    pub fn caches_per_chip(mut self, n: usize) -> Self {
        self.caches_per_chip = n.max(1);
        self
    }

    /// Number of cores per shared-cache group.
    pub fn cores_per_cache(mut self, n: usize) -> Self {
        self.cores_per_cache = n.max(1);
        self
    }

    /// Total cores this shape describes.
    pub fn total_cores(&self) -> usize {
        self.numa_nodes * self.chips_per_numa * self.caches_per_chip * self.cores_per_cache
    }

    /// Builds the topology tree, collapsing levels whose nodes would span
    /// exactly the same cpuset as their parent (e.g. a chip containing a
    /// single shared cache produces only one node).
    pub fn build(&self) -> Topology {
        let cores_per_chip = self.caches_per_chip * self.cores_per_cache;
        let cores_per_numa = self.chips_per_numa * cores_per_chip;
        let total = self.total_cores();

        let mut nodes: Vec<Node> = Vec::new();
        let push = |level: Level,
                    ordinal: usize,
                    cpuset: CpuSet,
                    parent: Option<NodeId>,
                    nodes: &mut Vec<Node>|
         -> NodeId {
            let depth = parent.map_or(0, |p| nodes[p.index()].depth + 1);
            let id = NodeId(nodes.len() as u32);
            nodes.push(Node {
                level,
                ordinal,
                cpuset,
                parent,
                children: Vec::new(),
                depth,
            });
            if let Some(p) = parent {
                nodes[p.index()].children.push(id);
            }
            id
        };

        let root = push(Level::Machine, 0, CpuSet::first_n(total), None, &mut nodes);

        let mut core_nodes = vec![NodeId(0); total];
        let mut cache_ordinal = 0usize;
        let mut chip_ordinal = 0usize;

        for numa in 0..self.numa_nodes {
            let numa_span = CpuSet::range(numa * cores_per_numa..(numa + 1) * cores_per_numa);
            // Collapse the NUMA level when there is only one NUMA node:
            // its span equals the machine's.
            let numa_parent = if self.numa_nodes > 1 {
                push(Level::NumaNode, numa, numa_span, Some(root), &mut nodes)
            } else {
                root
            };

            for chip in 0..self.chips_per_numa {
                let base = numa * cores_per_numa + chip * cores_per_chip;
                let chip_span = CpuSet::range(base..base + cores_per_chip);
                let chip_parent = if self.chips_per_numa > 1 || self.numa_nodes == 1 {
                    // A chip level is interesting either when a NUMA node has
                    // several chips, or when there is no NUMA level at all
                    // (plain SMP: machine -> chips).
                    if chip_span == nodes[numa_parent.index()].cpuset {
                        numa_parent
                    } else {
                        let id = push(
                            Level::Chip,
                            chip_ordinal,
                            chip_span,
                            Some(numa_parent),
                            &mut nodes,
                        );
                        chip_ordinal += 1;
                        id
                    }
                } else {
                    chip_ordinal += 1;
                    numa_parent
                };

                for cache in 0..self.caches_per_chip {
                    let cbase = base + cache * self.cores_per_cache;
                    let cache_span = CpuSet::range(cbase..cbase + self.cores_per_cache);
                    let cache_parent = if cache_span == nodes[chip_parent.index()].cpuset {
                        chip_parent
                    } else {
                        let id = push(
                            Level::Cache,
                            cache_ordinal,
                            cache_span,
                            Some(chip_parent),
                            &mut nodes,
                        );
                        cache_ordinal += 1;
                        id
                    };

                    for core in 0..self.cores_per_cache {
                        let cpu = cbase + core;
                        let id = push(
                            Level::Core,
                            cpu,
                            CpuSet::single(cpu),
                            Some(cache_parent),
                            &mut nodes,
                        );
                        core_nodes[cpu] = id;
                    }
                }
            }
        }

        Topology {
            nodes,
            root,
            core_nodes,
            name: self.name.clone(),
        }
    }
}

/// Ready-made topologies, including the paper's two evaluation machines.
pub mod presets {
    use super::TopologyBuilder;
    use crate::Topology;

    /// `borderline`: 4-socket dual-core AMD Opteron 8218, 8 cores total.
    ///
    /// "This CPU model does not feature L3 cache, thus sibling cores on a
    /// chip do not share cache, but they share physical memory banks" (§V-A).
    /// Tree: machine → 4 chips → 8 cores (no cache level, chip == memory
    /// bank grouping).
    pub fn borderline() -> Topology {
        TopologyBuilder::new("borderline")
            .numa_nodes(1)
            .chips_per_numa(4)
            .caches_per_chip(1)
            .cores_per_cache(2)
            .build()
    }

    /// `kwak`: 4-socket quad-core AMD Opteron 8347HE, 16 cores, 4 NUMA
    /// nodes, shared L3 per chip (§V-A, Fig. 3).
    ///
    /// Each socket is one NUMA node whose four cores share the L3, so the
    /// chip and cache levels collapse into the NUMA level:
    /// machine → 4 NUMA nodes → 16 cores.
    pub fn kwak() -> Topology {
        TopologyBuilder::new("kwak")
            .numa_nodes(4)
            .chips_per_numa(1)
            .caches_per_chip(1)
            .cores_per_cache(4)
            .build()
    }

    /// A generic symmetric machine, handy for scaling studies:
    /// `numa` NUMA nodes × `chips` chips × `cores` cores (no cache split).
    pub fn symmetric(numa: usize, chips: usize, cores: usize) -> Topology {
        TopologyBuilder::new(format!("sym-{numa}x{chips}x{cores}"))
            .numa_nodes(numa)
            .chips_per_numa(chips)
            .caches_per_chip(1)
            .cores_per_cache(cores)
            .build()
    }

    /// A single-core machine (degenerate tree: machine → core). Useful as a
    /// host-shaped fallback in tests on constrained machines.
    pub fn uniprocessor() -> Topology {
        TopologyBuilder::new("uniprocessor").build()
    }

    /// `dual-socket-256`: a simulated dual-socket 256-core fabric for the
    /// NUMA-scale stealing study — 2 NUMA nodes (one per socket) × 2 chips
    /// × 4 shared-cache groups × 16 cores. Every level survives collapsing,
    /// so steal orders cross four distance tiers before the interconnect.
    pub fn dual_socket_256() -> Topology {
        TopologyBuilder::new("dual-socket-256")
            .numa_nodes(2)
            .chips_per_numa(2)
            .caches_per_chip(4)
            .cores_per_cache(16)
            .build()
    }

    /// `quad-socket-512`: 4 NUMA nodes × 2 chips × 4 caches × 16 cores
    /// (512 cores) — the middle rung of the 256/512/1024 scaling ladder.
    pub fn quad_socket_512() -> Topology {
        TopologyBuilder::new("quad-socket-512")
            .numa_nodes(4)
            .chips_per_numa(2)
            .caches_per_chip(4)
            .cores_per_cache(16)
            .build()
    }

    /// `quad-socket-1024`: 4 NUMA nodes × 4 chips × 4 caches × 16 cores —
    /// the full 1024-core fabric, saturating
    /// [`CpuSet::MAX_CPUS`](piom_cpuset::CpuSet::MAX_CPUS). The
    /// hierarchical-stealing acceptance test drains a starved socket on
    /// this shape.
    pub fn quad_socket_1024() -> Topology {
        TopologyBuilder::new("quad-socket-1024")
            .numa_nodes(4)
            .chips_per_numa(4)
            .caches_per_chip(4)
            .cores_per_cache(16)
            .build()
    }

    /// A best-effort topology for the host this process runs on: a flat SMP
    /// machine with `std::thread::available_parallelism()` cores. The real
    /// PIOMan reads the MARCEL topology; portable Rust has no NUMA
    /// introspection in std, so the host is modelled as one chip.
    pub fn host() -> Topology {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        TopologyBuilder::new("host")
            .numa_nodes(1)
            .chips_per_numa(1)
            .caches_per_chip(1)
            .cores_per_cache(n)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniprocessor_collapses_everything() {
        let t = presets::uniprocessor();
        assert_eq!(t.n_cores(), 1);
        // machine + core only
        assert_eq!(t.n_nodes(), 2);
        assert_eq!(t.node(t.core_node(0)).parent, Some(t.root()));
    }

    #[test]
    fn symmetric_counts() {
        let t = presets::symmetric(2, 2, 2);
        assert_eq!(t.n_cores(), 8);
        assert_eq!(t.nodes_at_level(Level::NumaNode).len(), 2);
        assert_eq!(t.nodes_at_level(Level::Chip).len(), 4);
    }

    #[test]
    fn deep_tree_with_cache_level() {
        // 2 NUMA x 1 chip x 2 caches x 2 cores: cache level survives because
        // each cache spans half its chip.
        let t = TopologyBuilder::new("deep")
            .numa_nodes(2)
            .chips_per_numa(1)
            .caches_per_chip(2)
            .cores_per_cache(2)
            .build();
        assert_eq!(t.n_cores(), 8);
        assert_eq!(t.nodes_at_level(Level::Cache).len(), 4);
        // Each core's path: core -> cache -> numa -> machine.
        let path: Vec<_> = t.path_to_root(0).collect();
        let levels: Vec<_> = path.iter().map(|id| t.node(*id).level).collect();
        assert_eq!(
            levels,
            vec![Level::Core, Level::Cache, Level::NumaNode, Level::Machine]
        );
    }

    #[test]
    fn children_partition_parent() {
        for t in [
            presets::borderline(),
            presets::kwak(),
            presets::symmetric(2, 3, 2),
        ] {
            for (_, node) in t.iter() {
                if node.children.is_empty() {
                    assert_eq!(node.level, Level::Core);
                    continue;
                }
                let mut union = CpuSet::EMPTY;
                for &c in &node.children {
                    let child = t.node(c);
                    assert!(child.cpuset.is_subset(&node.cpuset));
                    assert!(union.is_disjoint(&child.cpuset), "children overlap");
                    union |= child.cpuset;
                }
                assert_eq!(union, node.cpuset, "children cover parent exactly");
            }
        }
    }

    #[test]
    fn host_topology_builds() {
        let t = presets::host();
        assert!(t.n_cores() >= 1);
        assert_eq!(t.name(), "host");
    }

    use crate::Level;
}
