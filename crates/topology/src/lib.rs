//! Hierarchical machine topology model.
//!
//! PIOMan maps its task queues onto the machine architecture: one queue per
//! core, per shared cache, per chip, per NUMA node, plus one global queue
//! (Trahay & Denis, CLUSTER 2009, §III-A and Fig. 2). This crate provides the
//! topology tree those queues attach to:
//!
//! * [`Topology`] — an immutable arena-backed tree of [`Node`]s, one per
//!   topology object, each carrying the [`CpuSet`] of cores it spans;
//! * [`Level`] — the depth classes (machine / NUMA node / chip / cache / core);
//! * builders: the paper's two testbeds [`presets::borderline`] and
//!   [`presets::kwak`], and a generic [`TopologyBuilder`];
//! * the *level resolution* query used at task submission: the smallest node
//!   whose span covers a given CPU set ([`Topology::smallest_covering`], and
//!   [`Topology::smallest_covering_words`] for a set kept as a few words);
//! * a topological distance metric between cores used by cost models and by
//!   the work-stealing victim order ([`Topology::steal_order_with_distance`]);
//! * an ASCII renderer reproducing the structure of the paper's Figs. 2–3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use piom_cpuset::CpuSet;

mod build;
mod distance;
mod render;

pub use build::{presets, TopologyBuilder};
pub use distance::Locality;

/// Depth class of a topology node, ordered from outermost to innermost.
///
/// The ordering (`Machine < NumaNode < ... < Core`) matches containment:
/// outer levels span supersets of inner levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// The whole machine (root; owns the Global Queue).
    Machine,
    /// A NUMA node: cores sharing a local memory bank.
    NumaNode,
    /// A chip / socket / package.
    Chip,
    /// A shared cache (e.g. an L3 shared by the cores of a chip).
    Cache,
    /// A single core (owns a Per-Core Queue).
    Core,
}

impl Level {
    /// All levels, outermost first.
    pub const ALL: [Level; 5] = [
        Level::Machine,
        Level::NumaNode,
        Level::Chip,
        Level::Cache,
        Level::Core,
    ];

    /// Human-readable queue name used by the paper ("Global Queue", ...).
    pub fn queue_name(self) -> &'static str {
        match self {
            Level::Machine => "Global Queue",
            Level::NumaNode => "Per-NUMA Node Queue",
            Level::Chip => "Per-Chip Queue",
            Level::Cache => "Per-Cache Queue",
            Level::Core => "Per-Core Queue",
        }
    }
}

impl core::fmt::Display for Level {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Level::Machine => "machine",
            Level::NumaNode => "numa",
            Level::Chip => "chip",
            Level::Cache => "cache",
            Level::Core => "core",
        };
        f.write_str(s)
    }
}

/// Index of a node within a [`Topology`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The arena index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One object in the topology tree.
#[derive(Debug, Clone)]
pub struct Node {
    /// Depth class of this node.
    pub level: Level,
    /// Ordinal of this node among nodes of the same level (e.g. NUMA #2).
    pub ordinal: usize,
    /// Set of cores this node spans.
    pub cpuset: CpuSet,
    /// Parent node (`None` for the machine root).
    pub parent: Option<NodeId>,
    /// Children, in ascending cpuset order.
    pub children: Vec<NodeId>,
    /// Depth in the tree (root = 0).
    pub depth: usize,
}

/// An immutable machine topology tree.
///
/// Constructed by [`TopologyBuilder`] or [`presets`].
/// Nodes live in an arena; [`NodeId`]s index into it. The root is always a
/// [`Level::Machine`] node spanning every core, and the leaves are exactly
/// the [`Level::Core`] nodes, one per core, numbered `0..n_cores` in cpuset
/// order.
#[derive(Debug, Clone)]
pub struct Topology {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    /// Leaf node of each core, indexed by core id.
    pub(crate) core_nodes: Vec<NodeId>,
    /// Optional human-readable name (e.g. "kwak").
    pub(crate) name: String,
}

impl Topology {
    /// The root (machine-level) node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Name given at construction ("borderline", "kwak", "custom", ...).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of cores.
    #[inline]
    pub fn n_cores(&self) -> usize {
        self.core_nodes.len()
    }

    /// Total number of topology nodes (hence of task queues).
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Shared view of a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterator over all node ids in arena order (parents precede children).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over `(NodeId, &Node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// The leaf node of core `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu >= n_cores()`.
    #[inline]
    pub fn core_node(&self, cpu: usize) -> NodeId {
        self.core_nodes[cpu]
    }

    /// All nodes of a given level, in ordinal order.
    pub fn nodes_at_level(&self, level: Level) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .iter()
            .filter(|(_, n)| n.level == level)
            .map(|(id, _)| id)
            .collect();
        v.sort_by_key(|id| self.node(*id).ordinal);
        v
    }

    /// The set of every core on the machine.
    #[inline]
    pub fn all_cores(&self) -> CpuSet {
        self.node(self.root).cpuset
    }

    /// Walks from the leaf of `cpu` up to the root, yielding each node id.
    ///
    /// This is the queue scan order of the paper's Algorithm 1: Per-Core
    /// Queue first, then each enclosing queue, ending at the Global Queue.
    pub fn path_to_root(&self, cpu: usize) -> PathToRoot<'_> {
        PathToRoot {
            topo: self,
            next: Some(self.core_node(cpu)),
        }
    }

    /// The smallest (deepest) node whose cpuset is a superset of `set`.
    ///
    /// This is the *level resolution* performed at task submission (§III-A):
    /// "this CPU set is examinated to find the corresponding task queue".
    /// Returns `None` if `set` is empty or contains cores outside the machine.
    pub fn smallest_covering(&self, set: &CpuSet) -> Option<NodeId> {
        if set.is_empty() || !set.is_subset(&self.all_cores()) {
            return None;
        }
        let mut current = self.root;
        'descend: loop {
            let node = self.node(current);
            for &child in &node.children {
                if set.is_subset(&self.node(child).cpuset) {
                    current = child;
                    continue 'descend;
                }
            }
            return Some(current);
        }
    }

    /// [`smallest_covering`](Self::smallest_covering) for the set whose
    /// words `first..first + words.len()` are `words` and whose others are
    /// empty: the form a scheduler keeps a task's set in, so placing the
    /// task needs no whole [`CpuSet`].
    ///
    /// It walks up from the set's lowest core and stops at the first node
    /// covering the set, testing only those words. A node's cores are its
    /// leaves and siblings' leaves are disjoint, so the child the tree
    /// walk descends into is the one on that core's path: both walks find
    /// the same node.
    #[inline]
    pub fn smallest_covering_words(&self, first: usize, words: &[u64]) -> Option<NodeId> {
        let low = words.iter().position(|&w| w != 0)?;
        let high = words.iter().rposition(|&w| w != 0)?;
        let lowest = (first + low) * 64 + words[low].trailing_zeros() as usize;
        let highest = (first + high) * 64 + 63 - words[high].leading_zeros() as usize;
        if highest >= self.n_cores() {
            return None;
        }
        let mut id = self.core_node(lowest);
        loop {
            let node = self.node(id);
            let span = &node.cpuset.as_words()[first..];
            if words.iter().zip(span).all(|(w, s)| w & !s == 0) {
                return Some(id);
            }
            // The root spans every core, so the walk ends there at last.
            id = node.parent?;
        }
    }

    /// The deepest common ancestor of cores `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either core id is out of range.
    pub fn common_ancestor(&self, a: usize, b: usize) -> NodeId {
        let mut na = self.core_node(a);
        let mut nb = self.core_node(b);
        while self.node(na).depth > self.node(nb).depth {
            na = self.node(na).parent.expect("non-root has parent");
        }
        while self.node(nb).depth > self.node(na).depth {
            nb = self.node(nb).parent.expect("non-root has parent");
        }
        while na != nb {
            na = self.node(na).parent.expect("walk meets at root");
            nb = self.node(nb).parent.expect("walk meets at root");
        }
        na
    }
}

/// Iterator produced by [`Topology::path_to_root`].
pub struct PathToRoot<'a> {
    topo: &'a Topology,
    next: Option<NodeId>,
}

impl Iterator for PathToRoot<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.topo.node(cur).parent;
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn borderline_shape() {
        let t = presets::borderline();
        assert_eq!(t.n_cores(), 8);
        assert_eq!(t.name(), "borderline");
        // Machine + 4 chips + 8 cores = 13 nodes (no shared-cache level).
        assert_eq!(t.n_nodes(), 13);
        assert_eq!(t.nodes_at_level(Level::Chip).len(), 4);
        assert_eq!(t.nodes_at_level(Level::Cache).len(), 0);
        assert_eq!(t.nodes_at_level(Level::Core).len(), 8);
    }

    #[test]
    fn kwak_shape() {
        let t = presets::kwak();
        assert_eq!(t.n_cores(), 16);
        // Machine + 4 NUMA + 16 cores: chip/cache levels collapse into the
        // NUMA level because they span identical cpusets.
        assert_eq!(t.n_nodes(), 21);
        assert_eq!(t.nodes_at_level(Level::NumaNode).len(), 4);
        for id in t.nodes_at_level(Level::NumaNode) {
            assert_eq!(t.node(id).cpuset.count(), 4);
        }
    }

    #[test]
    fn path_to_root_scans_core_first() {
        let t = presets::kwak();
        let path: Vec<_> = t.path_to_root(5).collect();
        assert_eq!(t.node(path[0]).level, Level::Core);
        assert_eq!(t.node(*path.last().unwrap()).level, Level::Machine);
        for w in path.windows(2) {
            assert!(t.node(w[0]).depth > t.node(w[1]).depth);
        }
        for id in &path {
            assert!(t.node(*id).cpuset.contains(5));
        }
    }

    #[test]
    fn smallest_covering_resolves_levels() {
        let t = presets::kwak();
        let n = t.smallest_covering(&CpuSet::single(6)).unwrap();
        assert_eq!(t.node(n).level, Level::Core);
        let n = t.smallest_covering(&CpuSet::range(4..8)).unwrap();
        assert_eq!(t.node(n).level, Level::NumaNode);
        assert_eq!(t.node(n).ordinal, 1);
        let n = t.smallest_covering(&CpuSet::from_iter([0, 9])).unwrap();
        assert_eq!(t.node(n).level, Level::Machine);
        assert!(t.smallest_covering(&CpuSet::EMPTY).is_none());
        assert!(t.smallest_covering(&CpuSet::single(200)).is_none());
    }

    #[test]
    fn common_ancestor_levels() {
        let t = presets::kwak();
        assert_eq!(t.node(t.common_ancestor(0, 0)).level, Level::Core);
        assert_eq!(t.node(t.common_ancestor(0, 3)).level, Level::NumaNode);
        assert_eq!(t.node(t.common_ancestor(0, 15)).level, Level::Machine);
    }
}
