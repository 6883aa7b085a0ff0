//! Compressed-sparse-row adjacency: the one adjacency format of the
//! workspace.
//!
//! Every [`Graph`](crate::Graph) stores its neighbor lists as a
//! `CsrAdjacency` (see [`Graph::csr`](crate::Graph::csr)), and the
//! million-vertex scale path streams seeded families straight into one
//! without building a `Graph` at all. All targets sit in a single array
//! with per-node offsets, so a sweep that visits every adjacency list
//! once per vertex per repetition (ball collection, per-vertex LOCAL
//! evaluation, the scale kernels) follows no per-node pointer and reads
//! consecutive lists from the same cache lines.
//!
//! Rows are ascending and immutable once built, so any two constructors
//! that see the same edge set produce the same bytes: a traversal visits
//! nodes in the same order whichever path built its adjacency. The
//! streaming constructor is generic over its edge iterator, so each
//! stream family gets its own compiled count and scatter loops, and its
//! row sort orders a two-element row (every row of a cycle) with one
//! `min`/`max` pair.

use crate::graph::GraphError;
use csmpc_parallel::{par_map_mut, ParallelismMode};

/// Fewest directed edges whose CSR row sort goes to the worker pool.
const PARALLEL_SORT_MIN: usize = 1 << 14;

/// Flat adjacency of a graph: `targets[offsets[v]..offsets[v + 1]]` are the
/// neighbors of node `v`, ascending.
///
/// # Examples
///
/// ```
/// use csmpc_graph::{generators, CsrAdjacency};
/// let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
/// let csr = CsrAdjacency::from_edges(5, edges.iter().copied());
/// assert_eq!(&csr, generators::cycle(5).csr());
/// assert_eq!(csr.neighbors(0), [1, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrAdjacency {
    /// `n + 1` prefix offsets into `targets`.
    offsets: Vec<u32>,
    /// Concatenated neighbor lists (`2m` entries for an undirected graph).
    targets: Vec<u32>,
}

impl CsrAdjacency {
    /// Wraps prebuilt arrays: `offsets` holds `n + 1` prefix offsets
    /// starting at 0, and every row of `targets` is already ascending.
    pub(crate) fn from_raw(offsets: Vec<u32>, targets: Vec<u32>) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(targets.len()));
        CsrAdjacency { offsets, targets }
    }

    /// The validating path behind [`crate::GraphBuilder::build`]: checks
    /// every endpoint and self-loop in edge order, scatters both
    /// endpoints, then sorts each row and rejects the first repeated
    /// neighbor in node order. Sequential: it runs once per built graph,
    /// and most graphs are too small to repay a parallel row sort.
    pub(crate) fn from_builder_edges(
        n: usize,
        edges: &[(usize, usize)],
    ) -> Result<Self, GraphError> {
        let mut counts = vec![0u32; n + 1];
        for &(u, v) in edges {
            for w in [u, v] {
                if w >= n {
                    return Err(GraphError::UnknownNode { index: w, n });
                }
            }
            if u == v {
                return Err(GraphError::SelfLoop { index: u });
            }
            counts[u] += 1;
            counts[v] += 1;
        }
        let mut csr = Self::scatter(counts, edges.iter().map(|&(u, v)| (u as u32, v as u32)));
        for u in 0..n {
            let (lo, hi) = (csr.offsets[u] as usize, csr.offsets[u + 1] as usize);
            let row = &mut csr.targets[lo..hi];
            row.sort_unstable();
            if let Some(w) = row.windows(2).find(|w| w[0] == w[1]) {
                return Err(GraphError::DuplicateEdge {
                    u,
                    v: w[0] as usize,
                });
            }
        }
        Ok(csr)
    }

    /// Builds the CSR adjacency directly from an undirected edge stream —
    /// the million-vertex ingestion path that never materializes the
    /// intermediate [`Graph`](crate::Graph) (no builder edge list, no
    /// validation).
    ///
    /// Two passes over the (cheaply cloneable) stream: pass 1 counts
    /// degrees, pass 2 scatters both endpoints of every edge, and rows are
    /// then sorted ascending in parallel over contiguous row blocks. The
    /// sort output is a pure per-row function, so the worker count cannot
    /// affect the bytes produced: the result is bit-identical to
    /// [`Graph::csr`](crate::Graph::csr) of the graph with the same edge
    /// set.
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
        edges.clone().for_each(|(u, v)| {
            counts[u as usize] += 1;
            counts[v as usize] += 1;
        });
        Self::scatter_sorted(counts, edges)
    }

    /// The shared tail of [`CsrAdjacency::from_edges`] and the random-tree
    /// ingest, whose degrees are the Prüfer occurrence counts: scatters the
    /// edges, then sorts every row in parallel (a two-element row with one
    /// `min`/`max` pair). `counts` holds the `n` degrees and a trailing 0,
    /// and `edges` must describe a simple undirected graph with exactly
    /// that degree sequence. Below [`PARALLEL_SORT_MIN`] directed edges the
    /// same row blocks are sorted inline: a pool dispatch would cost more
    /// than the sort.
    pub(crate) fn scatter_sorted<I>(counts: Vec<u32>, edges: I) -> Self
    where
        I: Iterator<Item = (u32, u32)>,
    {
        let mut csr = Self::scatter(counts, edges);
        let n = csr.n();
        // Per-row ascending sort, parallel over contiguous row blocks:
        // `split_at_mut` at row boundaries keeps the blocks disjoint.
        let blocks = (4 * csmpc_parallel::current_num_threads()).min(n);
        let mut parts: Vec<(usize, usize, &mut [u32])> = Vec::with_capacity(blocks);
        let mut rest: &mut [u32] = &mut csr.targets;
        let mut consumed = 0usize;
        for b in 0..blocks {
            let r0 = b * n / blocks;
            let r1 = (b + 1) * n / blocks;
            let end = csr.offsets[r1] as usize;
            let (head, tail) = rest.split_at_mut(end - consumed);
            parts.push((r0, r1, head));
            consumed = end;
            rest = tail;
        }
        let offs = &csr.offsets;
        let mode = if offs[n] as usize >= PARALLEL_SORT_MIN {
            ParallelismMode::auto()
        } else {
            ParallelismMode::Sequential
        };
        let _: Vec<()> = par_map_mut(mode, &mut parts, |_, part| {
            let (r0, r1, block) = part;
            let base = offs[*r0] as usize;
            for r in *r0..*r1 {
                let lo = offs[r] as usize - base;
                let hi = offs[r + 1] as usize - base;
                let row = &mut block[lo..hi];
                if let [a, b] = row {
                    (*a, *b) = ((*a).min(*b), (*a).max(*b));
                } else {
                    row.sort_unstable();
                }
            }
        });
        csr
    }

    /// `counts[v]` is node `v`'s degree (`counts[n]` is 0). Prefix-sums the
    /// counts in place into row *ends* and places both endpoints of every
    /// edge by decrementing its row's end, so once every edge is placed
    /// `offsets[v]` is where row `v` starts: no cursor array. Rows come
    /// out in reverse stream order, which every caller sorts away. Panics
    /// on an endpoint `>= n`; debug builds also catch most degree
    /// mismatches.
    fn scatter<I>(mut offsets: Vec<u32>, edges: I) -> Self
    where
        I: Iterator<Item = (u32, u32)>,
    {
        let n = offsets.len() - 1;
        // Inclusive prefix sum: offsets[v] = directed edges of nodes <= v.
        let mut acc: u64 = 0;
        for slot in &mut offsets {
            acc += u64::from(*slot);
            *slot = u32::try_from(acc).expect("directed edge count fits u32");
        }
        let mut targets = vec![0u32; offsets[n] as usize];
        let ends = &mut offsets[..n];
        edges.for_each(|(u, v)| {
            ends[u as usize] -= 1;
            targets[ends[u as usize] as usize] = v;
            ends[v as usize] -= 1;
            targets[ends[v as usize] as usize] = u;
        });
        debug_assert!(
            offsets.first() == Some(&0) && offsets.windows(2).all(|w| w[0] <= w[1]),
            "the edges do not match the degrees"
        );
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

    /// Neighbors of `v`, ascending.
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

    /// The rows of nodes `lo..hi` in node order: `rows(lo, hi)` yields
    /// `neighbors(v)` for every `v` in `lo..hi`. One walk over `targets`
    /// with a running start, so a sweep over a block of consecutive nodes
    /// reads each offset once instead of twice and does one bounds check
    /// per row.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > self.n()`.
    pub fn rows(&self, lo: usize, hi: usize) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        let offs = &self.offsets[lo..=hi];
        let mut rest = &self.targets[offs[0] as usize..];
        offs.windows(2).map(move |w| {
            let (row, tail) = rest.split_at((w[1] - w[0]) as usize);
            rest = tail;
            row
        })
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
    fn from_edges_matches_the_graph_spine() {
        for g in [
            generators::path(7),
            generators::cycle(9),
            generators::random_tree(40, Seed(3)),
            generators::star(12),
            generators::hypercube(5),
        ] {
            let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u as u32, v as u32)).collect();
            let streamed = CsrAdjacency::from_edges(g.n(), edges.iter().copied());
            assert_eq!(&streamed, g.csr());
            assert_eq!(streamed.directed_edges(), 2 * g.m());
            for v in 0..g.n() {
                assert!(streamed.neighbors(v).windows(2).all(|w| w[0] < w[1]));
                assert_eq!(streamed.degree(v), g.degree(v));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rows_past_the_last_node_panic() {
        let _ = generators::path(3).csr().rows(1, 4);
    }

    #[test]
    fn from_edges_empty_and_isolated() {
        let none: Vec<(u32, u32)> = Vec::new();
        let csr = CsrAdjacency::from_edges(0, none.iter().copied());
        assert_eq!(csr.n(), 0);
        assert_eq!(csr.directed_edges(), 0);
        assert_eq!(&csr, generators::path(0).csr());
        // Isolated nodes: n = 3, no edges.
        let csr = CsrAdjacency::from_edges(3, none.iter().copied());
        assert_eq!(csr.n(), 3);
        assert_eq!(csr.degree(1), 0);
    }
}
