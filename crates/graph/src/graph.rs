//! The legal-graph data structure (paper Definition 6).
//!
//! A [`Graph`] carries, for every node, both an **ID** and a **name**:
//!
//! * [`NodeId`] — the identifier component-stable algorithms may depend on.
//!   Legal graphs require IDs to be unique *within each connected component*
//!   (they may repeat across components).
//! * [`NodeName`] — a globally unique handle whose sole purpose is to let an
//!   MPC algorithm tell nodes apart as objects. Component-stable outputs must
//!   *not* depend on names.
//!
//! Internally nodes are indexed `0..n`; indices are an implementation detail
//! and never part of the model semantics. Adjacency is one
//! [`CsrAdjacency`] spine, ascending within every row.

use crate::csr::CsrAdjacency;
use std::collections::BTreeSet;
use std::fmt;

/// Component-unique node identifier (paper Definition 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u64);

/// Globally unique node name (paper Definition 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeName(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "id:{}", self.0)
    }
}

impl fmt::Display for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "name:{}", self.0)
    }
}

/// Error raised when assembling or validating a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referred to a node index that does not exist.
    UnknownNode {
        /// The offending node index.
        index: usize,
        /// Number of nodes in the graph under construction.
        n: usize,
    },
    /// A self-loop was supplied; the paper's graphs are simple.
    SelfLoop {
        /// The node index at both endpoints.
        index: usize,
    },
    /// The same undirected edge was supplied twice.
    DuplicateEdge {
        /// First endpoint index.
        u: usize,
        /// Second endpoint index.
        v: usize,
    },
    /// Two nodes share a name; names must be globally unique.
    DuplicateName {
        /// The repeated name.
        name: NodeName,
    },
    /// Two nodes in the same connected component share an ID.
    DuplicateIdInComponent {
        /// The repeated ID.
        id: NodeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode { index, n } => {
                write!(f, "edge endpoint {index} out of range for {n} nodes")
            }
            GraphError::SelfLoop { index } => write!(f, "self-loop at node index {index}"),
            GraphError::DuplicateEdge { u, v } => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::DuplicateName { name } => write!(f, "duplicate node {name}"),
            GraphError::DuplicateIdInComponent { id } => {
                write!(f, "duplicate {id} within a connected component")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected simple graph with per-node IDs and names.
///
/// Construct one with [`GraphBuilder`] or the generators in
/// [`crate::generators`].
///
/// # Examples
///
/// ```
/// use csmpc_graph::{Graph, GraphBuilder, NodeId, NodeName};
///
/// let mut b = GraphBuilder::new();
/// let u = b.add_node(NodeId(0), NodeName(100));
/// let v = b.add_node(NodeId(1), NodeName(101));
/// b.add_edge(u, v);
/// let g: Graph = b.build().unwrap();
/// assert_eq!(g.n(), 2);
/// assert_eq!(g.m(), 1);
/// assert!(g.is_legal());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    ids: Vec<NodeId>,
    names: Vec<NodeName>,
    csr: CsrAdjacency,
}

impl Graph {
    /// The empty graph.
    #[must_use]
    pub fn empty() -> Self {
        Graph::from_parts(
            Vec::new(),
            Vec::new(),
            CsrAdjacency::from_raw(vec![0], Vec::new()),
        )
    }

    /// Number of nodes `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.ids.len()
    }

    /// Number of undirected edges `m`.
    #[must_use]
    pub fn m(&self) -> usize {
        self.csr.directed_edges() / 2
    }

    /// Returns `true` when the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Degree of node index `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    pub fn degree(&self, v: usize) -> usize {
        self.csr.degree(v)
    }

    /// Maximum degree Δ (0 for the empty graph).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree (0 for the empty graph).
    #[must_use]
    pub fn min_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Sorted neighbor indices of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        self.csr.neighbors(v)
    }

    /// The adjacency spine: every neighbor list, in node order.
    #[must_use]
    pub fn csr(&self) -> &CsrAdjacency {
        &self.csr
    }

    /// The ID of node index `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    pub fn id(&self, v: usize) -> NodeId {
        self.ids[v]
    }

    /// The name of node index `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    pub fn name(&self, v: usize) -> NodeName {
        self.names[v]
    }

    /// All node IDs, indexed by node index.
    #[must_use]
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// All node names, indexed by node index.
    #[must_use]
    pub fn names(&self) -> &[NodeName] {
        &self.names
    }

    /// Whether nodes `u` and `v` are adjacent.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[must_use]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Iterates over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .map(move |&w| (u, w as usize))
                .filter(|&(u, w)| u < w)
        })
    }

    /// Looks up the node index carrying `name`, if any.
    #[must_use]
    pub fn index_of_name(&self, name: NodeName) -> Option<usize> {
        self.names.iter().position(|&x| x == name)
    }

    /// Looks up a node index carrying `id`, if any (IDs may repeat across
    /// components; the lowest matching index is returned).
    #[must_use]
    pub fn index_of_id(&self, id: NodeId) -> Option<usize> {
        self.ids.iter().position(|&x| x == id)
    }

    /// Component labels: `labels[v]` is the component number of `v`, with
    /// components numbered `0..` in order of their smallest node index.
    #[must_use]
    pub fn component_labels(&self) -> Vec<usize> {
        let n = self.n();
        let mut label = vec![usize::MAX; n];
        let mut next = 0usize;
        let mut stack = Vec::new();
        for s in 0..n {
            if label[s] != usize::MAX {
                continue;
            }
            label[s] = next;
            stack.push(s);
            while let Some(v) = stack.pop() {
                for &w in self.neighbors(v) {
                    let w = w as usize;
                    if label[w] == usize::MAX {
                        label[w] = next;
                        stack.push(w);
                    }
                }
            }
            next += 1;
        }
        label
    }

    /// Node indices grouped by connected component.
    #[must_use]
    pub fn components(&self) -> Vec<Vec<usize>> {
        let labels = self.component_labels();
        let k = labels.iter().copied().max().map_or(0, |x| x + 1);
        let mut comps = vec![Vec::new(); k];
        for (v, &c) in labels.iter().enumerate() {
            comps[c].push(v);
        }
        comps
    }

    /// Number of connected components.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.components().len()
    }

    /// Whether the graph is connected (the empty graph counts as connected).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.component_count() <= 1
    }

    /// Checks legality per Definition 6: names globally unique, IDs unique
    /// within every connected component.
    #[must_use]
    pub fn is_legal(&self) -> bool {
        self.check_legal().is_ok()
    }

    /// Like [`Graph::is_legal`] but reports the first violation found.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateName`] or
    /// [`GraphError::DuplicateIdInComponent`] on the first violation.
    pub fn check_legal(&self) -> Result<(), GraphError> {
        let mut names = BTreeSet::new();
        for &nm in &self.names {
            if !names.insert(nm) {
                return Err(GraphError::DuplicateName { name: nm });
            }
        }
        for comp in self.components() {
            let mut ids = BTreeSet::new();
            for v in comp {
                if !ids.insert(self.ids[v]) {
                    return Err(GraphError::DuplicateIdInComponent { id: self.ids[v] });
                }
            }
        }
        Ok(())
    }

    /// BFS distances from `src`; unreachable nodes get `usize::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `src >= n`.
    #[must_use]
    pub fn bfs_distances(&self, src: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.n()];
        let mut queue = std::collections::VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(v) = queue.pop_front() {
            for &w in self.neighbors(v) {
                let w = w as usize;
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Diameter of the graph, or `None` if it is disconnected or empty.
    #[must_use]
    pub fn diameter(&self) -> Option<usize> {
        if self.is_empty() || !self.is_connected() {
            return None;
        }
        let mut best = 0usize;
        for v in 0..self.n() {
            let d = self.bfs_distances(v);
            for x in d {
                if x == usize::MAX {
                    return None;
                }
                best = best.max(x);
            }
        }
        Some(best)
    }

    /// A canonical, name-independent fingerprint of the graph: sorted node
    /// IDs plus sorted ID-labeled edges.
    ///
    /// Two graphs with identical topology and IDs (regardless of names or
    /// index order) produce the same key. Used by the stability verifier to
    /// compare the "component view" of different embeddings.
    #[must_use]
    pub fn id_fingerprint(&self) -> Vec<u64> {
        let mut nodes: Vec<u64> = self.ids.iter().map(|i| i.0).collect();
        nodes.sort_unstable();
        let mut edges: Vec<(u64, u64)> = self
            .edges()
            .map(|(u, v)| {
                let a = self.ids[u].0;
                let b = self.ids[v].0;
                (a.min(b), a.max(b))
            })
            .collect();
        edges.sort_unstable();
        let mut out = Vec::with_capacity(1 + nodes.len() + 2 * edges.len());
        out.push(nodes.len() as u64);
        out.extend(nodes);
        for (a, b) in edges {
            out.push(a);
            out.push(b);
        }
        out
    }

    /// Internal constructor from parts. `csr` must be symmetric.
    pub(crate) fn from_parts(ids: Vec<NodeId>, names: Vec<NodeName>, csr: CsrAdjacency) -> Self {
        debug_assert!(ids.len() == names.len() && names.len() == csr.n());
        Graph { ids, names, csr }
    }
}

impl Default for Graph {
    fn default() -> Self {
        Graph::empty()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, Δ={}, components={})",
            self.n(),
            self.m(),
            self.max_degree(),
            self.component_count()
        )
    }
}

/// Incremental builder for [`Graph`] (non-consuming, per C-BUILDER).
///
/// # Examples
///
/// ```
/// use csmpc_graph::{GraphBuilder, NodeId, NodeName};
/// let mut b = GraphBuilder::new();
/// let a = b.add_node(NodeId(1), NodeName(1));
/// let c = b.add_node(NodeId(2), NodeName(2));
/// b.add_edge(a, c);
/// let g = b.build().unwrap();
/// assert!(g.has_edge(a, c));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    ids: Vec<NodeId>,
    names: Vec<NodeName>,
    edges: Vec<(usize, usize)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Creates a builder with `n` nodes whose IDs and names are both `0..n`.
    ///
    /// Convenient for generators; IDs can be remapped later with
    /// [`crate::ops::relabel_ids`].
    #[must_use]
    pub fn with_sequential_nodes(n: usize) -> Self {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_node(NodeId(i as u64), NodeName(i as u64));
        }
        b
    }

    /// Adds a node, returning its index.
    pub fn add_node(&mut self, id: NodeId, name: NodeName) -> usize {
        self.ids.push(id);
        self.names.push(name);
        self.ids.len() - 1
    }

    /// Number of nodes added so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Adds an undirected edge between node indices `u` and `v`.
    pub fn add_edge(&mut self, u: usize, v: usize) -> &mut Self {
        self.edges.push((u, v));
        self
    }

    /// Validates and assembles the graph.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] on out-of-range endpoints, self-loops or
    /// duplicate edges. Legality (Definition 6) is *not* enforced here —
    /// some constructions (e.g. simulation graphs mid-assembly) are checked
    /// separately via [`Graph::check_legal`].
    pub fn build(&self) -> Result<Graph, GraphError> {
        let csr = CsrAdjacency::from_builder_edges(self.ids.len(), &self.edges)?;
        Ok(Graph::from_parts(self.ids.clone(), self.names.clone(), csr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::with_sequential_nodes(3);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
        b.build().unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert!(g.is_connected());
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = triangle();
        for v in 0..3 {
            let nb = g.neighbors(v);
            assert!(nb.windows(2).all(|w| w[0] < w[1]));
            for &w in nb {
                assert!(g.has_edge(w as usize, v));
            }
        }
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::with_sequential_nodes(2);
        b.add_edge(0, 0);
        assert_eq!(b.build().unwrap_err(), GraphError::SelfLoop { index: 0 });
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = GraphBuilder::with_sequential_nodes(2);
        b.add_edge(0, 1).add_edge(1, 0);
        assert!(matches!(
            b.build().unwrap_err(),
            GraphError::DuplicateEdge { .. }
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::with_sequential_nodes(2);
        b.add_edge(0, 5);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::UnknownNode { index: 5, n: 2 }
        );
    }

    #[test]
    fn components_of_two_edges() {
        let mut b = GraphBuilder::with_sequential_nodes(4);
        b.add_edge(0, 1).add_edge(2, 3);
        let g = b.build().unwrap();
        assert_eq!(g.component_count(), 2);
        assert_eq!(g.components(), vec![vec![0, 1], vec![2, 3]]);
        assert!(!g.is_connected());
    }

    #[test]
    fn legality_duplicate_name() {
        let mut b = GraphBuilder::new();
        b.add_node(NodeId(0), NodeName(7));
        b.add_node(NodeId(1), NodeName(7));
        let g = b.build().unwrap();
        assert_eq!(
            g.check_legal().unwrap_err(),
            GraphError::DuplicateName { name: NodeName(7) }
        );
    }

    #[test]
    fn legality_duplicate_id_same_component() {
        let mut b = GraphBuilder::new();
        let u = b.add_node(NodeId(3), NodeName(0));
        let v = b.add_node(NodeId(3), NodeName(1));
        b.add_edge(u, v);
        let g = b.build().unwrap();
        assert!(!g.is_legal());
    }

    #[test]
    fn legality_duplicate_id_across_components_ok() {
        let mut b = GraphBuilder::new();
        b.add_node(NodeId(3), NodeName(0));
        b.add_node(NodeId(3), NodeName(1));
        let g = b.build().unwrap();
        assert!(g.is_legal(), "cross-component ID reuse is legal");
    }

    #[test]
    fn bfs_distances_path() {
        let mut b = GraphBuilder::with_sequential_nodes(4);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 3);
        let g = b.build().unwrap();
        assert_eq!(g.bfs_distances(0), vec![0, 1, 2, 3]);
        assert_eq!(g.diameter(), Some(3));
    }

    #[test]
    fn diameter_disconnected_is_none() {
        let b = GraphBuilder::with_sequential_nodes(3);
        let g = b.build().unwrap();
        assert_eq!(g.diameter(), None);
    }

    #[test]
    fn fingerprint_ignores_names_and_order() {
        let g1 = {
            let mut b = GraphBuilder::new();
            let u = b.add_node(NodeId(10), NodeName(0));
            let v = b.add_node(NodeId(20), NodeName(1));
            b.add_edge(u, v);
            b.build().unwrap()
        };
        let g2 = {
            let mut b = GraphBuilder::new();
            let v = b.add_node(NodeId(20), NodeName(999));
            let u = b.add_node(NodeId(10), NodeName(998));
            b.add_edge(v, u);
            b.build().unwrap()
        };
        assert_eq!(g1.id_fingerprint(), g2.id_fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_topology() {
        let mut b1 = GraphBuilder::with_sequential_nodes(3);
        b1.add_edge(0, 1);
        let mut b2 = GraphBuilder::with_sequential_nodes(3);
        b2.add_edge(0, 2);
        assert_ne!(
            b1.build().unwrap().id_fingerprint(),
            b2.build().unwrap().id_fingerprint()
        );
    }

    #[test]
    fn edges_iterator_matches_m() {
        let g = triangle();
        assert_eq!(g.edges().count(), g.m());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.is_connected());
        assert!(g.is_legal());
    }
}
