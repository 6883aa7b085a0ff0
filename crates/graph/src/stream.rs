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

use crate::csr::CsrAdjacency;
use crate::generators;
use crate::graph::Graph;
use crate::rng::{FastRange, Seed, SplitMix64};

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
    #[must_use]
    pub fn n(&self) -> usize {
        match *self {
            StreamFamily::Path { n }
            | StreamFamily::Cycle { n }
            | StreamFamily::TwoCycles { n }
            | StreamFamily::RandomTree { n, .. } => n,
            StreamFamily::Star { leaves } => leaves + 1,
            StreamFamily::Hypercube { dim } => 1usize << dim,
        }
    }

    /// Undirected edge count of the described graph.
    #[must_use]
    pub fn m(&self) -> usize {
        match *self {
            StreamFamily::Path { n } | StreamFamily::RandomTree { n, .. } => n.saturating_sub(1),
            StreamFamily::Cycle { n } | StreamFamily::TwoCycles { n } => n,
            StreamFamily::Star { leaves } => leaves,
            StreamFamily::Hypercube { dim } => (dim as usize) << (dim.saturating_sub(1)),
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
            StreamFamily::Path { n } => EdgeStream::Path { n, k: 0 },
            StreamFamily::Cycle { n } => {
                assert!(n >= 3, "cycle needs at least 3 nodes, got {n}");
                EdgeStream::Cycle { n, k: 0 }
            }
            StreamFamily::TwoCycles { n } => {
                assert!(n >= 6 && n.is_multiple_of(2), "need even n >= 6, got {n}");
                EdgeStream::TwoCycles { n, k: 0 }
            }
            StreamFamily::Star { leaves } => EdgeStream::Star { leaves, k: 0 },
            StreamFamily::Hypercube { dim } => EdgeStream::Hypercube { dim, v: 0, bit: 0 },
            StreamFamily::RandomTree { n, seed } => EdgeStream::Tree(TreeEdges::new(n, seed)),
        }
    }

    /// Builds the CSR adjacency straight from the stream — bit-identical
    /// to `self.materialize().csr()`, without the
    /// intermediate graph. A random tree is decoded once: its degrees are
    /// the Prüfer occurrence counts, copied once, into the CSR offsets.
    #[must_use]
    pub fn stream_csr(&self) -> CsrAdjacency {
        match self.edges() {
            EdgeStream::Tree(tree) => {
                let counts = tree.deg.iter().copied().chain([0]).collect();
                CsrAdjacency::scatter_sorted(counts, tree)
            }
            edges => CsrAdjacency::from_edges(self.n(), edges),
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

/// Edge iterator of a [`StreamFamily`]: index arithmetic for the
/// deterministic families, a streaming Prüfer decode for random trees.
#[derive(Debug, Clone)]
pub enum EdgeStream {
    /// Path edges `(k, k+1)`.
    Path {
        /// Node count.
        n: usize,
        /// Next edge index.
        k: usize,
    },
    /// Cycle edges `(k, k+1)` plus the closing `(n-1, 0)`.
    Cycle {
        /// Node count.
        n: usize,
        /// Next edge index.
        k: usize,
    },
    /// Two cycles, edge `k` living in cycle `k / (n/2)`.
    TwoCycles {
        /// Node count.
        n: usize,
        /// Next edge index.
        k: usize,
    },
    /// Star edges `(0, k+1)`.
    Star {
        /// Leaf count.
        leaves: usize,
        /// Next edge index.
        k: usize,
    },
    /// Hypercube edges `(v, v | 1 << bit)` for each clear bit of `v`.
    Hypercube {
        /// Dimension.
        dim: u32,
        /// Current node.
        v: usize,
        /// Next bit to inspect.
        bit: u32,
    },
    /// Linear-time Prüfer decode of a random tree.
    Tree(TreeEdges),
}

impl Iterator for EdgeStream {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        match self {
            EdgeStream::Path { n, k } => {
                if *k + 1 >= *n {
                    return None;
                }
                let e = (*k as u32, (*k + 1) as u32);
                *k += 1;
                Some(e)
            }
            EdgeStream::Cycle { n, k } => {
                if *k >= *n {
                    return None;
                }
                let e = if *k + 1 < *n {
                    (*k as u32, (*k + 1) as u32)
                } else {
                    ((*n - 1) as u32, 0)
                };
                *k += 1;
                Some(e)
            }
            EdgeStream::TwoCycles { n, k } => {
                if *k >= *n {
                    return None;
                }
                let half = *n / 2;
                let (c, i) = (*k / half, *k % half);
                let off = c * half;
                let e = if i + 1 < half {
                    ((off + i) as u32, (off + i + 1) as u32)
                } else {
                    ((off + half - 1) as u32, off as u32)
                };
                *k += 1;
                Some(e)
            }
            EdgeStream::Star { leaves, k } => {
                if *k >= *leaves {
                    return None;
                }
                let e = (0, (*k + 1) as u32);
                *k += 1;
                Some(e)
            }
            EdgeStream::Hypercube { dim, v, bit } => {
                let n = 1usize << *dim;
                loop {
                    if *v >= n {
                        return None;
                    }
                    if *bit >= *dim {
                        *v += 1;
                        *bit = 0;
                        continue;
                    }
                    let b = *bit;
                    *bit += 1;
                    if *v & (1usize << b) == 0 {
                        return Some((*v as u32, (*v | (1usize << b)) as u32));
                    }
                }
            }
            EdgeStream::Tree(t) => t.next(),
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
