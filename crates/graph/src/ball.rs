//! Centered graphs, radius balls, and `D`-radius-identical comparison
//! (paper Definition 23).
//!
//! A *centered graph* is a connected graph with a designated center; two
//! centered graphs are `D`-radius-identical when the topologies and node
//! **IDs** (names are irrelevant) of the `D`-radius balls around their
//! centers coincide. This is the indistinguishability notion on which both
//! the LOCAL lower-bound machinery and the MPC lifting rest.
//!
//! # Hot-path layout
//!
//! Ball extraction runs once per vertex per repetition inside every ball
//! evaluator and MPC graph-exponentiation sweep, so it is the single
//! hottest routine in the codebase. The implementation is built around a
//! reusable [`BallWorkspace`]: a `u64`-word visited bitset plus flat
//! `dist`/`queue` arrays and a bounded BFS that touches only the ball
//! itself (not all of `G`), with no per-call `BTreeMap` and no
//! [`GraphBuilder`] revalidation.
//! The convenience free functions [`ball`] and [`radius_identical`] borrow
//! a thread-local workspace; sweeps that want explicit control (e.g. to
//! pair the workspace with a [`CsrAdjacency`]) use
//! [`with_thread_workspace`]. The pre-workspace implementation survives in
//! [`mod@reference`] as the differential-testing oracle.
//!
//! [`GraphBuilder`]: crate::GraphBuilder

use crate::csr::CsrAdjacency;
use crate::graph::{Graph, NodeId, NodeName};
use std::cell::RefCell;

/// A connected graph together with a designated center node index.
///
/// # Examples
///
/// ```
/// use csmpc_graph::{generators, ball::CenteredGraph};
/// let g = generators::path(5);
/// let c = CenteredGraph::new(g, 2).unwrap();
/// assert_eq!(c.radius_from_center(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CenteredGraph {
    graph: Graph,
    center: usize,
}

impl CenteredGraph {
    /// Wraps a graph with a chosen center.
    ///
    /// Returns `None` if the graph is disconnected or the center index is out
    /// of range (the paper's centered graphs are connected by definition).
    #[must_use]
    pub fn new(graph: Graph, center: usize) -> Option<Self> {
        if center >= graph.n() || !graph.is_connected() || graph.is_empty() {
            return None;
        }
        Some(CenteredGraph { graph, center })
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The center's node index.
    #[must_use]
    pub fn center(&self) -> usize {
        self.center
    }

    /// The center's ID.
    #[must_use]
    pub fn center_id(&self) -> NodeId {
        self.graph.id(self.center)
    }

    /// Maximum distance from the center to any node (its eccentricity).
    #[must_use]
    pub fn radius_from_center(&self) -> usize {
        self.graph
            .bfs_distances(self.center)
            .into_iter()
            .filter(|&d| d != usize::MAX)
            .max()
            .unwrap_or(0)
    }
}

/// Reusable scratch state for ball extraction and radius-identity checks.
///
/// All per-call bookkeeping lives in flat arrays indexed by original node
/// index. Visitation is a `u64`-word bitset — 1/32nd the memory traffic of
/// the former `u32` epoch-stamp array at million-vertex scale — kept
/// all-zero *between* calls: a call sets the bits of the nodes it visits
/// and zeroes exactly the words containing ball members before returning
/// (every set bit belongs to a ball member, so that restores all-zero).
/// Switching the workspace between graphs of any sizes therefore needs no
/// O(n) clearing and can never observe state from an earlier call (see the
/// reuse regression test in `tests/ball_workspace.rs`).
///
/// The workspace is deliberately `!Sync`; parallel sweeps give each worker
/// its own (the thread-local used by [`ball`] does exactly that).
#[derive(Debug, Default)]
pub struct BallWorkspace {
    /// Visited bitset (`n.div_ceil(64)` words), lazily grown to the
    /// largest `n` seen; all-zero except during a call.
    visited: Vec<u64>,
    /// BFS distance from the center; valid only where stamped.
    dist: Vec<u32>,
    /// BFS queue (flat, head-indexed — no `VecDeque` ring bookkeeping).
    queue: Vec<u32>,
    /// Ball members in BFS order, then sorted ascending.
    nodes: Vec<u32>,
    /// Original index → ball index; valid only where stamped.
    new_index: Vec<u32>,
    /// Scratch `(id, index)` correspondences for radius-identity.
    pairs_a: Vec<(u64, u32)>,
    /// Second correspondence buffer.
    pairs_b: Vec<(u64, u32)>,
    /// Scratch neighbor-ID sets for radius-identity.
    ids_a: Vec<u64>,
    /// Second neighbor-ID buffer.
    ids_b: Vec<u64>,
}

impl BallWorkspace {
    /// A fresh workspace; arrays grow on first use.
    #[must_use]
    pub fn new() -> Self {
        BallWorkspace::default()
    }

    /// Starts a new call on a graph of `n` nodes: grows the flat arrays if
    /// needed. The visited bitset is already all-zero (the previous call
    /// restored it on exit; fresh words are zeroed by `resize`).
    fn begin(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if self.visited.len() < words {
            self.visited.resize(words, 0);
        }
        if self.dist.len() < n {
            self.dist.resize(n, 0);
            self.new_index.resize(n, 0);
        }
    }

    /// The `r`-radius ball around node `v` of `g` — same contract and
    /// bit-identical output as the top-level [`ball`] function.
    ///
    /// # Panics
    ///
    /// Panics if `v >= g.n()`.
    // #[csmpc_hot]
    #[must_use]
    pub fn ball(&mut self, g: &Graph, v: usize, r: usize) -> (Graph, usize, Vec<usize>) {
        self.ball_inner(g, None, v, r)
    }

    /// [`BallWorkspace::ball`] reading adjacency from a packed CSR view —
    /// the fastest path for whole-graph sweeps that already built one.
    ///
    /// # Panics
    ///
    /// Panics if `v >= g.n()` or `csr.n() != g.n()`.
    // #[csmpc_hot]
    #[must_use]
    pub fn ball_csr(
        &mut self,
        g: &Graph,
        csr: &CsrAdjacency,
        v: usize,
        r: usize,
    ) -> (Graph, usize, Vec<usize>) {
        assert_eq!(csr.n(), g.n(), "CSR view does not match the graph");
        self.ball_inner(g, Some(csr), v, r)
    }

    // #[csmpc_hot]
    fn ball_inner(
        &mut self,
        g: &Graph,
        csr: Option<&CsrAdjacency>,
        v: usize,
        r: usize,
    ) -> (Graph, usize, Vec<usize>) {
        assert!(v < g.n(), "node index {v} out of range");
        self.begin(g.n());
        // Distances are < n ≤ u32::MAX (adjacency is u32-indexed), so a
        // clamped radius is exact for every reachable node.
        let r32 = u32::try_from(r).unwrap_or(u32::MAX);
        self.queue.clear();
        self.nodes.clear();
        self.visited[v >> 6] |= 1 << (v & 63);
        self.dist[v] = 0;
        self.queue.push(v as u32);
        self.nodes.push(v as u32);
        let mut head = 0usize;
        while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            let du = self.dist[u];
            if du == r32 {
                continue;
            }
            let nbrs = match csr {
                Some(c) => c.neighbors(u),
                None => g.neighbors(u),
            };
            for &w in nbrs {
                let wi = w as usize;
                if self.visited[wi >> 6] & (1 << (wi & 63)) == 0 {
                    self.visited[wi >> 6] |= 1 << (wi & 63);
                    self.dist[wi] = du + 1;
                    self.queue.push(w);
                    self.nodes.push(w);
                }
            }
        }
        // Ascending original order, matching `(0..n).filter(...)` of the
        // reference implementation bit-for-bit.
        self.nodes.sort_unstable();
        let k = self.nodes.len();
        for (i, &u) in self.nodes.iter().enumerate() {
            self.new_index[u as usize] = i as u32;
        }
        let mut ids: Vec<NodeId> = Vec::with_capacity(k);
        let mut names: Vec<NodeName> = Vec::with_capacity(k);
        let mut adj: Vec<Vec<u32>> = Vec::with_capacity(k);
        for &u in &self.nodes {
            let ui = u as usize;
            ids.push(g.id(ui));
            names.push(g.name(ui));
            let nbrs = match csr {
                Some(c) => c.neighbors(ui),
                None => g.neighbors(ui),
            };
            let mut row = Vec::new();
            for &w in nbrs {
                let wi = w as usize;
                if self.visited[wi >> 6] & (1 << (wi & 63)) != 0 {
                    // Ascending neighbors map through a monotone `new_index`,
                    // so each row stays sorted without re-sorting.
                    row.push(self.new_index[wi]);
                }
            }
            adj.push(row);
        }
        let center_pos = self.new_index[v] as usize;
        let original: Vec<usize> = self.nodes.iter().map(|&u| u as usize).collect();
        // Restore the all-zero invariant: every set bit belongs to a ball
        // member, so zeroing the members' words clears the whole set in
        // O(ball) rather than O(n).
        for &u in &self.nodes {
            self.visited[(u as usize) >> 6] = 0;
        }
        (Graph::from_parts(ids, names, adj), center_pos, original)
    }

    /// `d`-radius-identity of two centered graphs — same contract as the
    /// top-level [`radius_identical`], with flat sorted `(id, index)`
    /// correspondences in place of the reference `BTreeMap`s.
    // #[csmpc_hot]
    #[must_use]
    pub fn radius_identical(
        &mut self,
        g1: &Graph,
        c1: usize,
        g2: &Graph,
        c2: usize,
        d: usize,
    ) -> bool {
        let (b1, ctr1, _) = self.ball(g1, c1, d);
        let (b2, ctr2, _) = self.ball(g2, c2, d);
        if b1.id(ctr1) != b2.id(ctr2) || b1.n() != b2.n() || b1.m() != b2.m() {
            return false;
        }
        // ID → index correspondences as sorted flat pairs; duplicate IDs
        // inside a ball mean an ambiguous correspondence (illegal input).
        self.pairs_a.clear();
        self.pairs_b.clear();
        self.pairs_a
            .extend((0..b1.n()).map(|i| (b1.id(i).0, i as u32)));
        self.pairs_b
            .extend((0..b2.n()).map(|i| (b2.id(i).0, i as u32)));
        self.pairs_a.sort_unstable();
        self.pairs_b.sort_unstable();
        if self.pairs_a.windows(2).any(|w| w[0].0 == w[1].0)
            || self.pairs_b.windows(2).any(|w| w[0].0 == w[1].0)
        {
            return false;
        }
        for k in 0..self.pairs_a.len() {
            if self.pairs_a[k].0 != self.pairs_b[k].0 {
                return false;
            }
        }
        for k in 0..self.pairs_a.len() {
            let i1 = self.pairs_a[k].1 as usize;
            let i2 = self.pairs_b[k].1 as usize;
            self.ids_a.clear();
            self.ids_b.clear();
            self.ids_a
                .extend(b1.neighbors(i1).iter().map(|&w| b1.id(w as usize).0));
            self.ids_b
                .extend(b2.neighbors(i2).iter().map(|&w| b2.id(w as usize).0));
            self.ids_a.sort_unstable();
            self.ids_b.sort_unstable();
            if self.ids_a != self.ids_b {
                return false;
            }
        }
        // Distances from the centers must also agree: the ball of radius d
        // could otherwise match as a graph while nodes sit at different
        // depths. Balls are small, so the O(ball) distance vectors are cheap.
        let d1 = b1.bfs_distances(ctr1);
        let d2 = b2.bfs_distances(ctr2);
        for k in 0..self.pairs_a.len() {
            if d1[self.pairs_a[k].1 as usize] != d2[self.pairs_b[k].1 as usize] {
                return false;
            }
        }
        true
    }
}

thread_local! {
    static THREAD_WS: RefCell<BallWorkspace> = RefCell::new(BallWorkspace::new());
}

/// Runs `f` with this thread's shared [`BallWorkspace`].
///
/// Sweeps that extract many balls (optionally via
/// [`BallWorkspace::ball_csr`]) use this instead of constructing a fresh
/// workspace per call; the buffers persist for the life of the thread.
///
/// # Panics
///
/// Panics if called re-entrantly from within `f` (the workspace is a
/// single exclusive borrow).
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut BallWorkspace) -> R) -> R {
    THREAD_WS.with(|ws| f(&mut ws.borrow_mut()))
}

/// The `r`-radius ball around node `v` of `g`: the induced subgraph on all
/// nodes within distance `r`, returned as a graph plus the center's new index
/// and the original indices of the ball's nodes.
///
/// Borrows the calling thread's [`BallWorkspace`]; output is bit-identical
/// to [`reference::ball`].
///
/// # Panics
///
/// Panics if `v >= g.n()`.
#[must_use]
pub fn ball(g: &Graph, v: usize, r: usize) -> (Graph, usize, Vec<usize>) {
    with_thread_workspace(|ws| ws.ball(g, v, r))
}

/// Tests whether the `d`-radius balls around `(g1, c1)` and `(g2, c2)` are
/// identical in topology and IDs (Definition 23). Names are ignored.
///
/// Because IDs are component-unique, the correspondence between the two
/// balls — if one exists — is forced: nodes must match by ID. The check is
/// therefore exact, not an isomorphism search. Borrows the calling thread's
/// [`BallWorkspace`]; agrees exactly with [`reference::radius_identical`].
#[must_use]
pub fn radius_identical(g1: &Graph, c1: usize, g2: &Graph, c2: usize, d: usize) -> bool {
    with_thread_workspace(|ws| ws.radius_identical(g1, c1, g2, c2, d))
}

/// Constructs the canonical pair of `D`-radius-identical centered graphs the
/// lifting argument uses in spirit: two long paths whose centers see
/// identical `D`-balls but whose far ends differ (in ID), so any problem
/// whose output at the center must reflect the far end forces sensitivity.
///
/// Returns `(G, center, G', center')` with both graphs paths of `2d + 1 + k`
/// nodes; IDs agree on the `d`-ball around the centers and differ beyond.
#[must_use]
pub fn identical_ball_path_pair(d: usize, k: usize) -> (Graph, usize, Graph, usize) {
    use crate::generators::path;
    use crate::ops::relabel_ids;
    let n = 2 * d + 1 + k;
    let center = d;
    let g = path(n);
    // g' alters IDs strictly outside the d-ball around the center.
    let gp = relabel_ids(&g, |v, id| {
        if v > 2 * d {
            NodeId(id.0 + 1_000_000)
        } else {
            id
        }
    });
    (g, center, gp, center)
}

/// The pre-workspace implementations, kept verbatim as the differential-
/// testing oracle: full-graph BFS plus [`crate::ops::induced`] for balls,
/// `BTreeMap` ID maps for radius-identity. Property tests assert the
/// workspace path agrees with these exactly on random graphs.
pub mod reference {
    use super::{Graph, NodeId};
    use crate::ops::induced;
    use std::collections::BTreeMap;

    /// Oracle implementation of [`super::ball`]: full-`n` BFS, filter,
    /// induced-subgraph rebuild through the validating builder.
    ///
    /// # Panics
    ///
    /// Panics if `v >= g.n()`.
    #[must_use]
    pub fn ball(g: &Graph, v: usize, r: usize) -> (Graph, usize, Vec<usize>) {
        let dist = g.bfs_distances(v);
        let nodes: Vec<usize> = (0..g.n()).filter(|&u| dist[u] <= r).collect();
        let center_pos = nodes
            .iter()
            .position(|&u| u == v)
            .expect("center is within its own ball");
        let (sub, original) = induced(g, &nodes);
        (sub, center_pos, original)
    }

    /// Oracle implementation of [`super::radius_identical`] over `BTreeMap`
    /// ID → index maps.
    #[must_use]
    pub fn radius_identical(g1: &Graph, c1: usize, g2: &Graph, c2: usize, d: usize) -> bool {
        let (b1, ctr1, _) = ball(g1, c1, d);
        let (b2, ctr2, _) = ball(g2, c2, d);
        if b1.id(ctr1) != b2.id(ctr2) || b1.n() != b2.n() || b1.m() != b2.m() {
            return false;
        }
        // Build ID -> index maps; duplicate IDs inside a ball are impossible
        // for legal graphs (a ball is within one component).
        let map1: BTreeMap<NodeId, usize> = (0..b1.n()).map(|i| (b1.id(i), i)).collect();
        let map2: BTreeMap<NodeId, usize> = (0..b2.n()).map(|i| (b2.id(i), i)).collect();
        if map1.len() != b1.n() || map2.len() != b2.n() {
            return false; // illegal input: ambiguous correspondence
        }
        for (id, &i1) in &map1 {
            let Some(&i2) = map2.get(id) else {
                return false;
            };
            // Compare neighbor ID sets.
            let mut n1: Vec<NodeId> = b1
                .neighbors(i1)
                .iter()
                .map(|&w| b1.id(w as usize))
                .collect();
            let mut n2: Vec<NodeId> = b2
                .neighbors(i2)
                .iter()
                .map(|&w| b2.id(w as usize))
                .collect();
            n1.sort_unstable();
            n2.sort_unstable();
            if n1 != n2 {
                return false;
            }
        }
        // Distances from the centers must also agree: the ball of radius d
        // could otherwise match as a graph while nodes sit at different
        // depths.
        let d1 = b1.bfs_distances(ctr1);
        let d2 = b2.bfs_distances(ctr2);
        for (id, &i1) in &map1 {
            if d1[i1] != d2[map2[id]] {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn ball_of_path() {
        let g = generators::path(9);
        let (b, c, orig) = ball(&g, 4, 2);
        assert_eq!(b.n(), 5);
        assert_eq!(b.m(), 4);
        assert_eq!(orig, vec![2, 3, 4, 5, 6]);
        assert_eq!(b.id(c), g.id(4));
    }

    #[test]
    fn ball_radius_zero() {
        let g = generators::cycle(5);
        let (b, c, _) = ball(&g, 3, 0);
        assert_eq!(b.n(), 1);
        assert_eq!(b.id(c), g.id(3));
    }

    #[test]
    fn ball_covers_component() {
        let g = generators::cycle(6);
        let (b, _, _) = ball(&g, 0, 10);
        assert_eq!(b.n(), 6);
        assert_eq!(b.m(), 6);
    }

    #[test]
    fn ball_matches_reference_on_generators() {
        let seeds = [3u64, 17, 99];
        for &s in &seeds {
            let g = generators::random_tree(30, crate::rng::Seed(s));
            for v in 0..g.n() {
                for r in 0..4 {
                    assert_eq!(ball(&g, v, r), reference::ball(&g, v, r), "v={v} r={r}");
                }
            }
        }
    }

    #[test]
    fn ball_csr_matches_plain_ball() {
        let g = generators::random_tree(25, crate::rng::Seed(8));
        let csr = crate::CsrAdjacency::from_graph(&g);
        let mut ws = BallWorkspace::new();
        for v in 0..g.n() {
            assert_eq!(ws.ball_csr(&g, &csr, v, 2), ws.ball(&g, v, 2));
        }
    }

    #[test]
    fn identical_pair_is_identical_up_to_d() {
        let d = 3;
        let (g, c, gp, cp) = identical_ball_path_pair(d, 4);
        for r in 0..=d {
            assert!(radius_identical(&g, c, &gp, cp, r), "radius {r}");
        }
        assert!(!radius_identical(&g, c, &gp, cp, d + 1));
    }

    #[test]
    fn different_topology_not_identical() {
        let p = generators::path(5);
        let c5 = generators::cycle(5);
        assert!(!radius_identical(&p, 2, &c5, 2, 2));
    }

    #[test]
    fn same_graph_identical_at_all_radii() {
        let g = generators::random_tree(20, crate::rng::Seed(11));
        for r in 0..5 {
            assert!(radius_identical(&g, 7, &g, 7, r));
        }
    }

    #[test]
    fn different_center_ids_not_identical() {
        let g = generators::path(5);
        assert!(!radius_identical(&g, 1, &g, 3, 0));
    }

    #[test]
    fn centered_graph_rejects_disconnected() {
        let g = generators::two_cycles(8);
        assert!(CenteredGraph::new(g, 0).is_none());
    }

    #[test]
    fn centered_graph_radius() {
        let g = generators::path(7);
        let c = CenteredGraph::new(g, 0).unwrap();
        assert_eq!(c.radius_from_center(), 6);
    }

    #[test]
    fn names_are_ignored() {
        let g = generators::path(5);
        let renamed = crate::ops::with_fresh_names(&g, 10_000);
        assert!(radius_identical(&g, 2, &renamed, 2, 2));
    }

    #[test]
    fn depth_mismatch_detected() {
        // A 6-cycle and a 6-path can have balls with equal node/edge counts
        // at radius 3 from suitable centers, but depths differ.
        let cyc = generators::cycle(6);
        let p = generators::path(6);
        assert!(!radius_identical(&cyc, 0, &p, 0, 3));
    }
}
