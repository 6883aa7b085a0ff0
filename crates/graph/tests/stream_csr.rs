//! Property tests: the streaming ingestion path
//! (`StreamFamily::stream_csr`, i.e. `CsrAdjacency::from_edges`, or one
//! scatter from the Prüfer degrees for random trees) is bit-identical to the
//! materialized `Graph`'s CSR spine (`Graph::csr`) for every seeded
//! family, at arbitrary sizes and seeds. Random trees are checked against
//! an independent min-heap Prüfer decoder kept here as the oracle, since
//! `generators::random_tree` itself decodes through the stream.
//!
//! Thread counts cannot appear as a proptest dimension (the worker count
//! is resolved once per process), so ci.sh runs this suite a second time,
//! under forced `RAYON_NUM_THREADS=4`, in its scale-equivalence step; the
//! parallel row-sort inside `from_edges` is a pure per-row function
//! either way. The proptests stop below 400 nodes, so path, cycle, both
//! two-cycles parities and star are also pinned at sizes past 2¹⁶, where
//! each of the 16 row-sort blocks of 4 workers holds thousands of rows.
//!
//! The block row walk `CsrAdjacency::rows(lo, hi)` is checked against
//! per-node `neighbors(v)` on the same families, over random ranges and
//! the empty and last-row edge cases.

use csmpc_graph::rng::{Seed, SplitMix64};
use csmpc_graph::{CsrAdjacency, GraphBuilder, StreamFamily};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn assert_stream_matches(fam: StreamFamily) {
    let streamed = fam.stream_csr();
    let g = fam.materialize();
    assert_eq!(
        &streamed,
        g.csr(),
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
    b.build()
        .expect("prufer decoding yields a tree")
        .csr()
        .clone()
}

fn assert_tree_matches_heap_oracle(n: usize, seed: u64) {
    let fam = StreamFamily::RandomTree {
        n,
        seed: Seed(seed),
    };
    let oracle = heap_prufer_tree_csr(n, Seed(seed));
    assert_eq!(fam.stream_csr(), oracle, "stream_csr n={n} seed={seed}");
    let materialized = fam.materialize();
    assert_eq!(materialized.csr(), &oracle, "random_tree n={n} seed={seed}");
}

#[test]
fn tiny_random_trees_match_heap_oracle() {
    for n in [0usize, 1, 2, 3] {
        for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
            assert_tree_matches_heap_oracle(n, seed);
        }
    }
}

/// `rows(lo, hi)` yields exactly `neighbors(v)` for `v in lo..hi`.
fn assert_rows_match(csr: &CsrAdjacency, lo: usize, hi: usize, what: &str) {
    let rows = csr.rows(lo, hi);
    assert_eq!(rows.len(), hi - lo, "{what}: rows({lo}, {hi}) length");
    for (v, row) in (lo..hi).zip(rows) {
        assert_eq!(
            row,
            csr.neighbors(v),
            "{what}: rows({lo}, {hi}) at node {v}"
        );
    }
}

#[test]
fn rows_match_neighbors_on_every_family() {
    let mut families = vec![
        StreamFamily::Hypercube { dim: 0 },
        StreamFamily::Hypercube { dim: 1 },
        StreamFamily::Hypercube { dim: 6 },
    ];
    for n in [0usize, 1, 2, 5, 64, 301] {
        families.push(StreamFamily::Path { n });
        families.push(StreamFamily::Star { leaves: n });
        families.push(StreamFamily::RandomTree {
            n,
            seed: Seed(n as u64 + 9),
        });
    }
    for n in [3usize, 4, 97] {
        families.push(StreamFamily::Cycle { n });
    }
    for n in [6usize, 8, 120] {
        families.push(StreamFamily::TwoCycles { n });
    }
    let mut rng = SplitMix64::new(Seed(0x0005_70e5));
    for fam in families {
        let csr = fam.stream_csr();
        let n = csr.n();
        let what = format!("{} n={n}", fam.name());
        // The whole graph, the empty range at both ends, and the last row.
        for (lo, hi) in [(0, n), (0, 0), (n, n), (n.saturating_sub(1), n)] {
            assert_rows_match(&csr, lo, hi, &what);
        }
        for _ in 0..40 {
            let a = rng.index(n + 1);
            let b = rng.index(n + 1);
            assert_rows_match(&csr, a.min(b), a.max(b), &what);
        }
    }
}

#[test]
fn families_past_two_to_the_sixteen_stream_identically() {
    for fam in [
        StreamFamily::Path { n: 70_001 },
        StreamFamily::Cycle { n: 65_537 },
        // Cycles of odd and of even length.
        StreamFamily::TwoCycles { n: 2 * 33_333 },
        StreamFamily::TwoCycles { n: 2 * 40_000 },
        StreamFamily::Star { leaves: 70_000 },
    ] {
        assert_stream_matches(fam);
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
