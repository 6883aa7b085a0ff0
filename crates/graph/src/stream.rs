//! Seeded graph families, from spec to CSR: the one description of each
//! family the paper's arguments run on (one `n`-cycle against two
//! `n/2`-cycles, paths, stars, hypercubes, random trees).
//!
//! A [`StreamFamily`] is a *spec* — family plus size plus seed. It holds
//! every rule about the family in one place:
//! - [`StreamFamily::validate`] checks the family's shape and that its
//!   CSR fits the `u32` rank space, from the spec alone;
//! - [`StreamFamily::checked_n`] and [`StreamFamily::checked_m`] give its
//!   sizes in closed form;
//! - [`StreamFamily::stream_csr`] streams its edges straight into a
//!   [`CsrAdjacency`], never materializing an edge list or a [`Graph`];
//! - [`StreamFamily::materialize`] wraps that CSR in a [`Graph`] with
//!   sequential IDs and names. The `generators` functions for these
//!   families and the job service's `GraphSpec` build through it.
//!
//! Each family has its own private edge iterator (paths, rings, stars,
//! hypercubes, and a linear-time Prüfer decode for random trees; two
//! cycles are two chained rings), so each edge formula is written once.
//! [`StreamFamily::stream_csr`] matches the family once and hands its
//! iterator to the CSR builder, whose passes then compile to one loop per
//! family with no per-edge `match` and no division. The deterministic
//! families keep O(1) iterator state; a random tree holds its Prüfer
//! sequence and degrees. `tests/stream_csr.rs` checks both paths against
//! a builder-loop oracle on every family.

use crate::csr::CsrAdjacency;
use crate::graph::{Graph, NodeId, NodeName};
use crate::rng::{FastRange, Seed, SplitMix64};
use std::fmt;
use std::iter::{self, Chain, Once};

/// A seeded graph-family spec: the one description of the family, from
/// its validity rules to its CSR.
///
/// `Cycle` needs `n >= 3` and `TwoCycles` an even `n >= 6`, and every
/// family must fit the `u32` rank space ([`StreamFamily::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFamily {
    /// Path `0 – 1 – … – n−1` on `n` nodes.
    Path {
        /// Node count.
        n: usize,
    },
    /// Cycle on `n >= 3` nodes: the path plus the edge `(n−1, 0)`.
    Cycle {
        /// Node count.
        n: usize,
    },
    /// Two disjoint `n/2`-cycles, even `n >= 6`: the NO-instance of the
    /// connectivity conjecture ("one `n`-cycle vs two `n/2`-cycles").
    TwoCycles {
        /// Node count.
        n: usize,
    },
    /// Star `K_{1,k}`: center 0, leaves `1..=k`.
    Star {
        /// Leaf count (`n = leaves + 1`).
        leaves: usize,
    },
    /// `dim`-dimensional hypercube (`2^dim` nodes, degree `dim`).
    Hypercube {
        /// Dimension (`n = 2^dim`).
        dim: u32,
    },
    /// Uniformly random labeled tree: the Prüfer sequence drawn from
    /// `seed`, decoded by always taking the smallest leaf.
    RandomTree {
        /// Node count.
        n: usize,
        /// Prüfer-sequence seed.
        seed: Seed,
    },
}

/// Why [`StreamFamily::validate`] refuses a family. Its text names the
/// broken rule; callers prefix their own context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidFamily {
    /// The family's shape rule is broken: a cycle on fewer than 3 nodes,
    /// or two cycles on an odd or fewer-than-6 node count.
    Malformed(String),
    /// The CSR's `u32` offsets cannot index the `2m` directed edges.
    TooLarge(String),
}

impl fmt::Display for InvalidFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidFamily::Malformed(reason) | InvalidFamily::TooLarge(reason) => {
                f.write_str(reason)
            }
        }
    }
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

    /// Checks the spec alone, without building anything: the family's
    /// shape, then the `u32` rank space. The CSR's `u32` offsets must
    /// index all `2m` directed edges. Every family has `n <= m + 1`, so
    /// that bound also lets a `u32` rank name every node.
    ///
    /// # Errors
    ///
    /// [`InvalidFamily::Malformed`] for a cycle on fewer than 3 nodes or
    /// two cycles on an odd or fewer-than-6 node count;
    /// [`InvalidFamily::TooLarge`] for more than `u32::MAX / 2` edges.
    pub fn validate(&self) -> Result<(), InvalidFamily> {
        match *self {
            StreamFamily::Cycle { n } if n < 3 => Err(InvalidFamily::Malformed(format!(
                "a cycle needs at least 3 nodes, got {n}"
            ))),
            StreamFamily::TwoCycles { n } if n < 6 || !n.is_multiple_of(2) => {
                Err(InvalidFamily::Malformed(format!(
                    "two cycles need an even node count of at least 6, got {n}"
                )))
            }
            _ => match self.checked_m() {
                Some(m) if m <= (u32::MAX / 2) as usize => Ok(()),
                Some(m) => Err(InvalidFamily::TooLarge(format!(
                    "{m} edges need more than the {} directed edge slots a CSR can index",
                    u32::MAX
                ))),
                None => Err(InvalidFamily::TooLarge(
                    "more edges than usize can count".to_string(),
                )),
            },
        }
    }

    /// Builds the CSR adjacency straight from the family's edge iterator,
    /// without an intermediate edge list or graph. The family is matched
    /// once and its own iterator goes to the CSR builder, so the count and
    /// scatter passes each run one loop compiled for that family. A random
    /// tree is decoded once: its degrees are the Prüfer occurrence counts,
    /// copied once, into the CSR offsets.
    ///
    /// # Panics
    ///
    /// If [`StreamFamily::validate`] refuses the family.
    #[must_use]
    pub fn stream_csr(&self) -> CsrAdjacency {
        if let Err(e) = self.validate() {
            panic!("{} family: {e}", self.name());
        }
        let n = self.n();
        match *self {
            StreamFamily::Path { n } => CsrAdjacency::from_edges(n, PathEdges { k: 0, end: n }),
            StreamFamily::Cycle { n } => CsrAdjacency::from_edges(n, ring(0, n)),
            StreamFamily::TwoCycles { n } => {
                let half = n / 2;
                CsrAdjacency::from_edges(n, ring(0, half).chain(ring(half, half)))
            }
            StreamFamily::Star { leaves } => {
                CsrAdjacency::from_edges(n, StarEdges { k: 0, leaves })
            }
            StreamFamily::Hypercube { dim } => {
                CsrAdjacency::from_edges(n, HypercubeEdges { dim, v: 0, bit: 0 })
            }
            StreamFamily::RandomTree { n, seed } => {
                let tree = TreeEdges::new(n, seed);
                let counts = tree.deg.iter().copied().chain([0]).collect();
                CsrAdjacency::scatter_sorted(counts, tree)
            }
        }
    }

    /// The [`Graph`] of the family: [`StreamFamily::stream_csr`] with
    /// IDs and names `0..n`.
    ///
    /// # Panics
    ///
    /// If [`StreamFamily::validate`] refuses the family.
    #[must_use]
    pub fn materialize(&self) -> Graph {
        let csr = self.stream_csr();
        let n = csr.n() as u64;
        Graph::from_parts(
            (0..n).map(NodeId).collect(),
            (0..n).map(NodeName).collect(),
            csr,
        )
    }
}

/// Edges `(k, k+1)` from the starting `k` while `k + 1 < end`: a path
/// over the nodes `k..end`.
#[derive(Debug, Clone)]
struct PathEdges {
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
type RingEdges = Chain<PathEdges, Once<(u32, u32)>>;

fn ring(off: usize, len: usize) -> RingEdges {
    let end = off + len;
    PathEdges { k: off, end }.chain(iter::once(((end - 1) as u32, off as u32)))
}

/// Star edges `(0, k+1)` for `k < leaves`.
#[derive(Debug, Clone)]
struct StarEdges {
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
struct HypercubeEdges {
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
#[derive(Debug)]
struct TreeEdges {
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
        let g = fam.materialize();
        assert_eq!(g.n(), fam.n(), "{}", fam.name());
        assert_eq!(g.m(), fam.m(), "{}", fam.name());
        assert_eq!(g.csr(), &fam.stream_csr(), "{}", fam.name());
        assert!((0..g.n()).all(|v| g.id(v).0 == v as u64 && g.name(v).0 == v as u64));
    }

    #[test]
    fn deterministic_families_match_their_sizes() {
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
    fn random_trees_match_their_sizes() {
        for n in [0usize, 1, 2, 3, 10, 64, 257] {
            for s in [0u64, 7, 0xDEAD] {
                let fam = StreamFamily::RandomTree { n, seed: Seed(s) };
                assert_streamed_matches(fam);
                assert!(n == 0 || fam.materialize().is_connected());
            }
        }
    }

    #[test]
    fn validate_refuses_malformed_shapes() {
        for n in [0, 1, 2] {
            assert_eq!(
                StreamFamily::Cycle { n }.validate(),
                Err(InvalidFamily::Malformed(format!(
                    "a cycle needs at least 3 nodes, got {n}"
                )))
            );
        }
        // The shape is reported before the size.
        for n in [0, 4, 5, 7, (1 << 33) + 1] {
            let err = StreamFamily::TwoCycles { n }.validate().unwrap_err();
            assert!(matches!(err, InvalidFamily::Malformed(_)), "{n}: {err}");
            assert_eq!(
                err.to_string(),
                format!("two cycles need an even node count of at least 6, got {n}")
            );
        }
        assert_eq!(StreamFamily::Cycle { n: 3 }.validate(), Ok(()));
        assert_eq!(StreamFamily::TwoCycles { n: 6 }.validate(), Ok(()));
    }

    #[test]
    fn validate_bounds_the_rank_space_at_the_largest_fitting_inputs() {
        let half = (u32::MAX / 2) as usize;
        // The largest inputs that fit: 2m <= u32::MAX, hence n <= u32::MAX.
        for fam in [
            StreamFamily::Path { n: half + 1 },
            StreamFamily::Cycle { n: half },
            StreamFamily::TwoCycles { n: half - 1 },
            StreamFamily::Star { leaves: half },
            StreamFamily::Hypercube { dim: 27 },
            StreamFamily::RandomTree {
                n: half + 1,
                seed: Seed(1),
            },
        ] {
            assert_eq!(fam.validate(), Ok(()), "{fam:?}");
            assert!(fam.n() <= u32::MAX as usize && 2 * fam.m() <= u32::MAX as usize);
        }
        for fam in [
            StreamFamily::Path { n: half + 2 },
            StreamFamily::Cycle { n: half + 1 },
            StreamFamily::TwoCycles { n: half + 1 },
            StreamFamily::Star { leaves: half + 1 },
            StreamFamily::Hypercube { dim: 28 },
            StreamFamily::RandomTree {
                n: usize::MAX,
                seed: Seed(1),
            },
            StreamFamily::Star { leaves: usize::MAX },
        ] {
            let err = fam.validate().unwrap_err();
            let m = fam.m();
            assert_eq!(
                err,
                InvalidFamily::TooLarge(format!(
                    "{m} edges need more than the 4294967295 directed edge slots a CSR can index"
                )),
                "{fam:?}"
            );
        }
        assert_eq!(
            StreamFamily::Hypercube { dim: 64 }.validate(),
            Err(InvalidFamily::TooLarge(
                "more edges than usize can count".to_string()
            ))
        );
    }

    #[test]
    #[should_panic(expected = "two-cycles family: two cycles need an even node count")]
    fn stream_csr_refuses_an_invalid_family() {
        let _ = StreamFamily::TwoCycles { n: 7 }.stream_csr();
    }
}
