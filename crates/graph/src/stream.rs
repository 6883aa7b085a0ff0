//! Streaming seeded graph families: edge iterators that feed
//! [`CsrAdjacency::from_edges`] directly, never materializing the
//! intermediate [`Graph`].
//!
//! At million-vertex scale the [`Graph`] representation (builder edge
//! list and validation, ID/name tables) costs more to build than the
//! algorithms cost to run. A [`StreamFamily`] is a *spec* — family
//! plus size plus seed — whose [`StreamFamily::edges`] iterator emits the
//! exact edge multiset of the corresponding `generators::*` call with O(1)
//! state for the deterministic families and O(n) decoder state (no
//! adjacency) for random trees. [`StreamFamily::stream_csr`] is therefore
//! bit-identical to `family.materialize().csr()` —
//! property-tested in `tests/stream_csr.rs` — while allocating only the
//! CSR arrays themselves.
//!
//! Each family has its own iterator type ([`PathEdges`], [`RingEdges`],
//! [`StarEdges`], [`HypercubeEdges`], [`TreeEdges`]; two cycles are two
//! chained rings), so each edge formula is written once. [`EdgeStream`]
//! delegates to them, and [`StreamFamily::stream_csr`] passes the
//! concrete iterator to the CSR builder, whose passes then compile to one
//! loop per family with no per-edge `match` and no division.

use crate::csr::CsrAdjacency;
use crate::generators;
use crate::graph::Graph;
use crate::rng::{FastRange, Seed, SplitMix64};
use std::iter::{self, Chain, Once};

/// A seeded graph-family spec that can stream its edges.
///
/// Size constraints mirror the materializing generators: `Cycle` needs
/// `n >= 3`, `TwoCycles` needs even `n >= 6` (checked when the edges are
/// consumed or the family is materialized).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFamily {
    /// Path on `n` nodes ([`generators::path`]).
    Path {
        /// Node count.
        n: usize,
    },
    /// Cycle on `n >= 3` nodes ([`generators::cycle`]).
    Cycle {
        /// Node count.
        n: usize,
    },
    /// Two disjoint `n/2`-cycles, even `n >= 6` ([`generators::two_cycles`]).
    TwoCycles {
        /// Node count.
        n: usize,
    },
    /// Star `K_{1,k}` ([`generators::star`]).
    Star {
        /// Leaf count (`n = leaves + 1`).
        leaves: usize,
    },
    /// `dim`-dimensional hypercube ([`generators::hypercube`]).
    Hypercube {
        /// Dimension (`n = 2^dim`).
        dim: u32,
    },
    /// Uniformly random labeled tree ([`generators::random_tree`]).
    RandomTree {
        /// Node count.
        n: usize,
        /// Prüfer-sequence seed.
        seed: Seed,
    },
}

impl StreamFamily {
    /// Node count of the described graph.
    ///
    /// # Panics
    ///
    /// If the count overflows `usize` (see [`StreamFamily::checked_n`]).
    #[must_use]
    pub fn n(&self) -> usize {
        self.checked_n().expect("node count overflows usize")
    }

    /// Undirected edge count of the described graph.
    ///
    /// # Panics
    ///
    /// If the count overflows `usize` (see [`StreamFamily::checked_m`]).
    #[must_use]
    pub fn m(&self) -> usize {
        self.checked_m().expect("edge count overflows usize")
    }

    /// Node count in closed form, or `None` if it overflows `usize`.
    #[must_use]
    pub fn checked_n(&self) -> Option<usize> {
        match *self {
            StreamFamily::Path { n }
            | StreamFamily::Cycle { n }
            | StreamFamily::TwoCycles { n }
            | StreamFamily::RandomTree { n, .. } => Some(n),
            StreamFamily::Star { leaves } => leaves.checked_add(1),
            StreamFamily::Hypercube { dim } => 1usize.checked_shl(dim),
        }
    }

    /// Undirected edge count in closed form, or `None` if it overflows
    /// `usize`.
    #[must_use]
    pub fn checked_m(&self) -> Option<usize> {
        match *self {
            StreamFamily::Path { n } | StreamFamily::RandomTree { n, .. } => {
                Some(n.saturating_sub(1))
            }
            StreamFamily::Cycle { n } | StreamFamily::TwoCycles { n } => Some(n),
            StreamFamily::Star { leaves } => Some(leaves),
            StreamFamily::Hypercube { dim: 0 } => Some(0),
            StreamFamily::Hypercube { dim } => {
                1usize.checked_shl(dim - 1)?.checked_mul(dim as usize)
            }
        }
    }

    /// Short display name of the family.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            StreamFamily::Path { .. } => "path",
            StreamFamily::Cycle { .. } => "cycle",
            StreamFamily::TwoCycles { .. } => "two-cycles",
            StreamFamily::Star { .. } => "star",
            StreamFamily::Hypercube { .. } => "hypercube",
            StreamFamily::RandomTree { .. } => "random-tree",
        }
    }

    /// The edge stream: emits each undirected edge exactly once, with the
    /// same edge multiset as [`StreamFamily::materialize`]. Cloneable so
    /// [`CsrAdjacency::from_edges`] can take its two passes.
    ///
    /// # Panics
    ///
    /// Panics on the same size constraints as the materializing
    /// generators (`Cycle` with `n < 3`, `TwoCycles` with odd or `< 6` n).
    #[must_use]
    pub fn edges(&self) -> EdgeStream {
        match *self {
            StreamFamily::Path { n } => EdgeStream::Path(PathEdges { k: 0, end: n }),
            StreamFamily::Cycle { n } => {
                assert!(n >= 3, "cycle needs at least 3 nodes, got {n}");
                EdgeStream::Cycle(ring(0, n))
            }
            StreamFamily::TwoCycles { n } => {
                assert!(n >= 6 && n.is_multiple_of(2), "need even n >= 6, got {n}");
                let half = n / 2;
                EdgeStream::TwoCycles(ring(0, half).chain(ring(half, half)))
            }
            StreamFamily::Star { leaves } => EdgeStream::Star(StarEdges { k: 0, leaves }),
            StreamFamily::Hypercube { dim } => {
                EdgeStream::Hypercube(HypercubeEdges { dim, v: 0, bit: 0 })
            }
            StreamFamily::RandomTree { n, seed } => EdgeStream::Tree(TreeEdges::new(n, seed)),
        }
    }

    /// Builds the CSR adjacency straight from the stream — bit-identical
    /// to `self.materialize().csr()`, without the
    /// intermediate graph. The family is matched once, and its own
    /// iterator type goes to the CSR builder, so the count and scatter
    /// passes each run one loop compiled for that family. A random tree
    /// is decoded once: its degrees are the Prüfer occurrence counts,
    /// copied once, into the CSR offsets.
    #[must_use]
    pub fn stream_csr(&self) -> CsrAdjacency {
        let n = self.n();
        match self.edges() {
            EdgeStream::Path(e) => CsrAdjacency::from_edges(n, e),
            EdgeStream::Cycle(e) => CsrAdjacency::from_edges(n, e),
            EdgeStream::TwoCycles(e) => CsrAdjacency::from_edges(n, e),
            EdgeStream::Star(e) => CsrAdjacency::from_edges(n, e),
            EdgeStream::Hypercube(e) => CsrAdjacency::from_edges(n, e),
            EdgeStream::Tree(tree) => {
                let counts = tree.deg.iter().copied().chain([0]).collect();
                CsrAdjacency::scatter_sorted(counts, tree)
            }
        }
    }

    /// The materialized [`Graph`] (the test oracle; O(n) `Vec`s + builder
    /// validation).
    #[must_use]
    pub fn materialize(&self) -> Graph {
        match *self {
            StreamFamily::Path { n } => generators::path(n),
            StreamFamily::Cycle { n } => generators::cycle(n),
            StreamFamily::TwoCycles { n } => generators::two_cycles(n),
            StreamFamily::Star { leaves } => generators::star(leaves),
            StreamFamily::Hypercube { dim } => generators::hypercube(dim),
            StreamFamily::RandomTree { n, seed } => generators::random_tree(n, seed),
        }
    }
}

/// Edge iterator of a [`StreamFamily`]: one variant per family, each
/// wrapping that family's own iterator type, so every edge formula is
/// written once. [`StreamFamily::stream_csr`] unwraps the variant and
/// hands the concrete iterator to the CSR builder, so its two passes run
/// a loop specialized to one family instead of matching on every edge.
#[derive(Debug, Clone)]
pub enum EdgeStream {
    /// Path edges `(k, k+1)`.
    Path(PathEdges),
    /// One cycle over all `n` nodes.
    Cycle(RingEdges),
    /// Two cycles of `n/2` nodes each, the second one after the first.
    TwoCycles(Chain<RingEdges, RingEdges>),
    /// Star edges `(0, k+1)`.
    Star(StarEdges),
    /// Hypercube edges `(v, v | 1 << bit)` for each clear bit of `v`.
    Hypercube(HypercubeEdges),
    /// Linear-time Prüfer decode of a random tree.
    Tree(TreeEdges),
}

impl Iterator for EdgeStream {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        match self {
            EdgeStream::Path(e) => e.next(),
            EdgeStream::Cycle(e) => e.next(),
            EdgeStream::TwoCycles(e) => e.next(),
            EdgeStream::Star(e) => e.next(),
            EdgeStream::Hypercube(e) => e.next(),
            EdgeStream::Tree(e) => e.next(),
        }
    }
}

/// Edges `(k, k+1)` from the starting `k` while `k + 1 < end`: a path
/// over the nodes `k..end`.
#[derive(Debug, Clone)]
pub struct PathEdges {
    k: usize,
    end: usize,
}

impl Iterator for PathEdges {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.k + 1 >= self.end {
            return None;
        }
        let e = (self.k as u32, (self.k + 1) as u32);
        self.k += 1;
        Some(e)
    }
}

/// Edges of the cycle on nodes `off..off + len` (`len >= 3`): the path
/// edges `(k, k+1)`, then the closing edge `(off + len - 1, off)`.
pub type RingEdges = Chain<PathEdges, Once<(u32, u32)>>;

fn ring(off: usize, len: usize) -> RingEdges {
    let end = off + len;
    PathEdges { k: off, end }.chain(iter::once(((end - 1) as u32, off as u32)))
}

/// Star edges `(0, k+1)` for `k < leaves`.
#[derive(Debug, Clone)]
pub struct StarEdges {
    k: usize,
    leaves: usize,
}

impl Iterator for StarEdges {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.k >= self.leaves {
            return None;
        }
        self.k += 1;
        Some((0, self.k as u32))
    }
}

/// Hypercube edges `(v, v | 1 << bit)` for each clear bit of `v`, in
/// node order and then bit order.
#[derive(Debug, Clone)]
pub struct HypercubeEdges {
    dim: u32,
    /// Current node.
    v: usize,
    /// Next bit to inspect.
    bit: u32,
}

impl Iterator for HypercubeEdges {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        let n = 1usize << self.dim;
        loop {
            if self.v >= n {
                return None;
            }
            if self.bit >= self.dim {
                self.v += 1;
                self.bit = 0;
                continue;
            }
            let b = self.bit;
            self.bit += 1;
            if self.v & (1usize << b) == 0 {
                return Some((self.v as u32, (self.v | (1usize << b)) as u32));
            }
        }
    }
}

/// Streaming linear-time Prüfer decoder: a `ptr` sweeps upward to the
/// smallest unused leaf, and a vertex `x < ptr` freed by the sequence is
/// chained in directly as the next leaf. It always takes the minimum leaf,
/// so it emits the classic decoding's `(leaf, prufer[i])` pairs and final
/// `(leaf, n-1)` edge, holding only the sequence and the degree array.
#[derive(Debug, Clone)]
pub struct TreeEdges {
    /// The Prüfer sequence (`n − 2` entries).
    prufer: Vec<u32>,
    pos: usize,
    /// Remaining degrees: the tree degree (`1 +` Prüfer occurrences) until
    /// the decode starts consuming them.
    deg: Vec<u32>,
    /// Smallest vertex the leaf scan has not passed yet.
    ptr: usize,
    /// The current minimum leaf.
    leaf: u32,
    tail_done: bool,
}

impl TreeEdges {
    fn new(n: usize, seed: Seed) -> Self {
        if n < 2 {
            return TreeEdges {
                prufer: Vec::new(),
                pos: 0,
                deg: vec![0; n],
                ptr: 0,
                leaf: 0,
                tail_done: true,
            };
        }
        let mut rng = SplitMix64::new(seed);
        // Bit-identical to `rng.index(n)`, without a division per draw.
        let draw = FastRange::index(n);
        let prufer: Vec<u32> = (0..n - 2).map(|_| draw.sample(&mut rng) as u32).collect();
        let mut deg = vec![1u32; n];
        for &x in &prufer {
            deg[x as usize] += 1;
        }
        let ptr = deg.iter().position(|&d| d == 1).expect("tree has a leaf");
        TreeEdges {
            prufer,
            pos: 0,
            deg,
            ptr,
            leaf: ptr as u32,
            tail_done: false,
        }
    }
}

impl Iterator for TreeEdges {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.pos < self.prufer.len() {
            let x = self.prufer[self.pos];
            self.pos += 1;
            let edge = (self.leaf, x);
            self.deg[x as usize] -= 1;
            if self.deg[x as usize] == 1 && (x as usize) < self.ptr {
                self.leaf = x;
            } else {
                self.ptr += 1;
                while self.deg[self.ptr] != 1 {
                    self.ptr += 1;
                }
                self.leaf = self.ptr as u32;
            }
            return Some(edge);
        }
        if !self.tail_done {
            self.tail_done = true;
            return Some((self.leaf, (self.deg.len() - 1) as u32));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_streamed_matches(fam: StreamFamily) {
        let streamed = fam.stream_csr();
        let g = fam.materialize();
        assert_eq!(&streamed, g.csr(), "{} n={}", fam.name(), fam.n());
        assert_eq!(streamed.directed_edges(), 2 * fam.m(), "{}", fam.name());
    }

    #[test]
    fn deterministic_families_match_materialized() {
        assert_streamed_matches(StreamFamily::Path { n: 0 });
        assert_streamed_matches(StreamFamily::Path { n: 1 });
        assert_streamed_matches(StreamFamily::Path { n: 17 });
        assert_streamed_matches(StreamFamily::Cycle { n: 3 });
        assert_streamed_matches(StreamFamily::Cycle { n: 100 });
        assert_streamed_matches(StreamFamily::TwoCycles { n: 6 });
        assert_streamed_matches(StreamFamily::TwoCycles { n: 42 });
        assert_streamed_matches(StreamFamily::Star { leaves: 0 });
        assert_streamed_matches(StreamFamily::Star { leaves: 23 });
        assert_streamed_matches(StreamFamily::Hypercube { dim: 0 });
        assert_streamed_matches(StreamFamily::Hypercube { dim: 6 });
    }

    #[test]
    fn random_trees_match_materialized() {
        for n in [0usize, 1, 2, 3, 10, 64, 257] {
            for s in [0u64, 7, 0xDEAD] {
                assert_streamed_matches(StreamFamily::RandomTree { n, seed: Seed(s) });
            }
        }
    }

    #[test]
    fn tree_stream_clone_replays_identically() {
        let fam = StreamFamily::RandomTree {
            n: 50,
            seed: Seed(9),
        };
        let a: Vec<(u32, u32)> = fam.edges().collect();
        let stream = fam.edges();
        let b: Vec<(u32, u32)> = stream.clone().collect();
        let c: Vec<(u32, u32)> = stream.collect();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }
}
