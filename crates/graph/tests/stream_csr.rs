//! Property tests: the streaming ingestion path
//! (`StreamFamily::stream_csr`, i.e. `CsrAdjacency::from_edges`, or
//! `CsrAdjacency::from_degrees` for random trees) is bit-identical to the
//! materialized `Graph` → `CsrAdjacency::from_graph` path for every seeded
//! family, at arbitrary sizes and seeds. Random trees are checked against
//! an independent min-heap Prüfer decoder kept here as the oracle, since
//! `generators::random_tree` itself decodes through the stream.
//!
//! Thread counts cannot appear as a proptest dimension (the worker count
//! is resolved once per process), so ci.sh runs this suite under forced
//! `RAYON_NUM_THREADS=4` via the workspace test run plus the equivalence
//! step; the parallel row-sort inside `from_edges` is a pure per-row
//! function either way.

use csmpc_graph::rng::{Seed, SplitMix64};
use csmpc_graph::{CsrAdjacency, GraphBuilder, StreamFamily};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn assert_stream_matches(fam: StreamFamily) {
    let streamed = fam.stream_csr();
    let oracle = CsrAdjacency::from_graph(&fam.materialize());
    assert_eq!(
        streamed,
        oracle,
        "family {} n={} diverged from the materialized path",
        fam.name(),
        fam.n()
    );
}

/// The textbook O(n log n) Prüfer decode: repeatedly pop the smallest
/// leaf from a min-heap. Same seed → same sequence as the stream.
fn heap_prufer_tree_csr(n: usize, seed: Seed) -> CsrAdjacency {
    let mut b = GraphBuilder::with_sequential_nodes(n);
    if n >= 2 {
        let mut rng = SplitMix64::new(seed);
        let prufer: Vec<usize> = (0..n - 2).map(|_| rng.index(n)).collect();
        let mut deg = vec![1usize; n];
        for &x in &prufer {
            deg[x] += 1;
        }
        let mut heap: BinaryHeap<Reverse<usize>> =
            (0..n).filter(|&v| deg[v] == 1).map(Reverse).collect();
        for &x in &prufer {
            let Reverse(leaf) = heap.pop().expect("tree always has a leaf");
            b.add_edge(leaf, x);
            deg[x] -= 1;
            if deg[x] == 1 {
                heap.push(Reverse(x));
            }
        }
        let Reverse(u) = heap.pop().expect("two nodes remain");
        let Reverse(v) = heap.pop().expect("two nodes remain");
        b.add_edge(u, v);
    }
    CsrAdjacency::from_graph(&b.build().expect("prufer decoding yields a tree"))
}

fn assert_tree_matches_heap_oracle(n: usize, seed: u64) {
    let fam = StreamFamily::RandomTree {
        n,
        seed: Seed(seed),
    };
    let oracle = heap_prufer_tree_csr(n, Seed(seed));
    assert_eq!(fam.stream_csr(), oracle, "stream_csr n={n} seed={seed}");
    let materialized = CsrAdjacency::from_graph(&fam.materialize());
    assert_eq!(materialized, oracle, "random_tree n={n} seed={seed}");
}

#[test]
fn tiny_random_trees_match_heap_oracle() {
    for n in [0usize, 1, 2, 3] {
        for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
            assert_tree_matches_heap_oracle(n, seed);
        }
    }
}

proptest! {
    #[test]
    fn path_streams_identically(n in 0usize..400) {
        assert_stream_matches(StreamFamily::Path { n });
    }

    #[test]
    fn cycle_streams_identically(n in 3usize..400) {
        assert_stream_matches(StreamFamily::Cycle { n });
    }

    #[test]
    fn two_cycles_streams_identically(half in 3usize..200) {
        assert_stream_matches(StreamFamily::TwoCycles { n: 2 * half });
    }

    #[test]
    fn star_streams_identically(leaves in 0usize..400) {
        assert_stream_matches(StreamFamily::Star { leaves });
    }

    #[test]
    fn hypercube_streams_identically(dim in 0u32..9) {
        assert_stream_matches(StreamFamily::Hypercube { dim });
    }

    #[test]
    fn random_tree_streams_identically(n in 0usize..5000, seed in 0u64..1_000_000_000_000) {
        assert_tree_matches_heap_oracle(n, seed);
    }
}
