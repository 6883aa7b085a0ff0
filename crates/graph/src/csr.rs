//! Compressed-sparse-row adjacency: a flat, cache-friendly view of a
//! [`Graph`]'s neighbor lists.
//!
//! [`Graph`] stores one `Vec<u32>` per node, which is convenient to build
//! but scatters neighbor lists across the heap. Hot sweeps (ball
//! collection, per-vertex LOCAL evaluation) traverse every adjacency list
//! once per vertex per repetition; packing all targets into a single
//! array with per-node offsets removes a pointer indirection per node and
//! keeps consecutive lists on the same cache lines.
//!
//! A `CsrAdjacency` is a *view*: it copies the neighbor structure once at
//! construction and is immutable afterwards. Neighbor order is preserved
//! exactly (ascending, as [`Graph::neighbors`] guarantees), so any
//! traversal that swaps `g.neighbors(v)` for `csr.neighbors(v)` visits
//! nodes in the identical order — bit-for-bit determinism is unaffected.

use crate::graph::Graph;
use csmpc_parallel::{par_map_mut, ParallelismMode};

/// Flat adjacency of a graph: `targets[offsets[v]..offsets[v + 1]]` are the
/// neighbors of node `v`, in the same ascending order as
/// [`Graph::neighbors`].
///
/// # Examples
///
/// ```
/// use csmpc_graph::{generators, CsrAdjacency};
/// let g = generators::cycle(5);
/// let csr = CsrAdjacency::from_graph(&g);
/// assert_eq!(csr.n(), 5);
/// assert_eq!(csr.neighbors(0), g.neighbors(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrAdjacency {
    /// `n + 1` prefix offsets into `targets`.
    offsets: Vec<u32>,
    /// Concatenated neighbor lists (`2m` entries for an undirected graph).
    targets: Vec<u32>,
}

impl CsrAdjacency {
    /// Packs `g`'s adjacency lists into CSR form.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` directed edges (far
    /// beyond any instance the substrate can hold in memory).
    #[must_use]
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total: usize = 0;
        offsets.push(0);
        for v in 0..n {
            total += g.neighbors(v).len();
            offsets.push(u32::try_from(total).expect("edge count fits u32"));
        }
        let mut targets = Vec::with_capacity(total);
        for v in 0..n {
            targets.extend_from_slice(g.neighbors(v));
        }
        CsrAdjacency { offsets, targets }
    }

    /// Builds the CSR adjacency directly from an undirected edge stream —
    /// the million-vertex ingestion path that never materializes the
    /// intermediate [`Graph`] (no per-node `Vec`s, no builder validation).
    ///
    /// Two passes over the (cheaply cloneable) stream: pass 1 counts
    /// degrees, pass 2 scatters and sorts exactly as
    /// [`CsrAdjacency::from_degrees`] does. The result is bit-identical to
    /// [`CsrAdjacency::from_graph`] on the graph with the same edge set.
    ///
    /// The stream must describe a *simple* undirected graph on nodes
    /// `0..n`: every endpoint `< n`, no self-loops, each undirected edge
    /// emitted exactly once, and both clones of the stream must yield the
    /// same sequence.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n` or the directed edge count
    /// (`2 × edges`) exceeds `u32::MAX`.
    #[must_use]
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: Iterator<Item = (u32, u32)> + Clone,
    {
        let mut counts = vec![0u32; n + 1];
        for (u, v) in edges.clone() {
            counts[u as usize] += 1;
            counts[v as usize] += 1;
        }
        Self::scatter_sorted(counts, edges)
    }

    /// Builds the CSR adjacency from known node degrees and one pass over
    /// the undirected edge stream, for streams whose degrees are known up
    /// front (a Prüfer sequence's occurrence counts give a random tree's).
    ///
    /// The degrees are prefix-summed into `offsets`, both endpoints of
    /// every edge are scattered through per-node cursors, and rows are
    /// then sorted ascending in parallel over contiguous row blocks,
    /// making the result bit-identical to [`CsrAdjacency::from_graph`]
    /// ([`Graph::neighbors`] is ascending). The sort output is a pure
    /// per-row function, so the worker count cannot affect the bytes
    /// produced.
    ///
    /// The stream must describe a simple undirected graph on nodes
    /// `0..degrees.len()` whose degree sequence is exactly `degrees`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the directed edge count
    /// exceeds `u32::MAX`; debug builds also panic when a node receives
    /// more edges than its degree.
    #[must_use]
    pub fn from_degrees<I>(degrees: &[u32], edges: I) -> Self
    where
        I: Iterator<Item = (u32, u32)>,
    {
        let mut counts = Vec::with_capacity(degrees.len() + 1);
        counts.extend_from_slice(degrees);
        counts.push(0);
        Self::scatter_sorted(counts, edges)
    }

    /// The shared tail of [`CsrAdjacency::from_edges`] and
    /// [`CsrAdjacency::from_degrees`]: `counts[v]` is node `v`'s degree
    /// (`counts[n]` is 0). Prefix-scans the counts into offsets in place,
    /// scatters the edges, and sorts every row.
    fn scatter_sorted<I>(mut offsets: Vec<u32>, edges: I) -> Self
    where
        I: Iterator<Item = (u32, u32)>,
    {
        let n = offsets.len() - 1;
        if n == 0 {
            return CsrAdjacency {
                offsets,
                targets: Vec::new(),
            };
        }
        // Exclusive prefix scan: offsets[v] = directed edges of nodes < v.
        let mut acc: u64 = 0;
        for slot in &mut offsets {
            let d = u64::from(*slot);
            *slot = u32::try_from(acc).expect("directed edge count fits u32");
            acc += d;
        }
        let total = offsets[n] as usize;
        // Scatter both endpoints through per-node write cursors.
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; total];
        for (u, v) in edges {
            let (ui, vi) = (u as usize, v as usize);
            debug_assert!(
                cursor[ui] < offsets[ui + 1] && cursor[vi] < offsets[vi + 1],
                "edge ({u}, {v}) exceeds its endpoints' degrees"
            );
            targets[cursor[ui] as usize] = v;
            cursor[ui] += 1;
            targets[cursor[vi] as usize] = u;
            cursor[vi] += 1;
        }
        // Per-row ascending sort, parallel over contiguous row blocks:
        // `split_at_mut` at row boundaries keeps the blocks disjoint.
        let blocks = (4 * rayon::current_num_threads()).min(n);
        let mut parts: Vec<(usize, usize, &mut [u32])> = Vec::with_capacity(blocks);
        let mut rest: &mut [u32] = &mut targets;
        let mut consumed = 0usize;
        for b in 0..blocks {
            let r0 = b * n / blocks;
            let r1 = (b + 1) * n / blocks;
            let end = offsets[r1] as usize;
            let (head, tail) = rest.split_at_mut(end - consumed);
            parts.push((r0, r1, head));
            consumed = end;
            rest = tail;
        }
        let offs = &offsets;
        let _: Vec<()> = par_map_mut(ParallelismMode::auto(), &mut parts, |_, part| {
            let (r0, r1, block) = part;
            let base = offs[*r0] as usize;
            for r in *r0..*r1 {
                let lo = offs[r] as usize - base;
                let hi = offs[r + 1] as usize - base;
                block[lo..hi].sort_unstable();
            }
        });
        CsrAdjacency { offsets, targets }
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total directed edge slots (`2m` for an undirected graph).
    #[must_use]
    pub fn directed_edges(&self) -> usize {
        self.targets.len()
    }

    /// Neighbors of `v`, ascending — identical content and order to
    /// [`Graph::neighbors`].
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    #[must_use]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        let lo = self.offsets[v] as usize;
        let hi = self.offsets[v + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    #[must_use]
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::rng::Seed;

    #[test]
    fn matches_graph_adjacency_exactly() {
        for g in [
            generators::path(7),
            generators::cycle(9),
            generators::random_tree(40, Seed(3)),
            generators::path(1),
        ] {
            let csr = CsrAdjacency::from_graph(&g);
            assert_eq!(csr.n(), g.n());
            assert_eq!(csr.directed_edges(), 2 * g.m());
            for v in 0..g.n() {
                assert_eq!(csr.neighbors(v), g.neighbors(v), "node {v}");
                assert_eq!(csr.degree(v), g.neighbors(v).len());
            }
        }
    }

    #[test]
    fn from_edges_matches_from_graph() {
        for g in [
            generators::path(7),
            generators::cycle(9),
            generators::random_tree(40, Seed(3)),
            generators::star(12),
            generators::hypercube(5),
        ] {
            let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u as u32, v as u32)).collect();
            let streamed = CsrAdjacency::from_edges(g.n(), edges.iter().copied());
            assert_eq!(streamed, CsrAdjacency::from_graph(&g));
        }
    }

    #[test]
    fn from_edges_empty_and_isolated() {
        let none: Vec<(u32, u32)> = Vec::new();
        let csr = CsrAdjacency::from_edges(0, none.iter().copied());
        assert_eq!(csr.n(), 0);
        // Isolated nodes: n = 3, no edges.
        let csr = CsrAdjacency::from_edges(3, none.iter().copied());
        assert_eq!(csr.n(), 3);
        assert_eq!(csr.degree(1), 0);
    }

    #[test]
    fn empty_graph() {
        let g = generators::path(0);
        let csr = CsrAdjacency::from_graph(&g);
        assert_eq!(csr.n(), 0);
        assert_eq!(csr.directed_edges(), 0);
    }
}
