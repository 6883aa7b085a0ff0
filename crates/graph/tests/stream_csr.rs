//! Property tests: the streaming ingestion path
//! (`StreamFamily::stream_csr`, i.e. `CsrAdjacency::from_edges`, or one
//! scatter from the Prüfer degrees for random trees) and the materialized
//! `Graph` (`StreamFamily::materialize`, behind the `generators` calls)
//! are bit-identical to the builder-loop oracle in `oracle/mod.rs` for
//! every seeded family, at arbitrary sizes and seeds: IDs, names, CSR
//! offsets and targets. The oracle writes each family out through
//! `GraphBuilder` and decodes random trees with the textbook min-heap
//! Prüfer decode.
//!
//! Thread counts cannot appear as a proptest dimension (the worker count
//! is resolved once per process), so ci.sh runs this suite a second time,
//! under forced `RAYON_NUM_THREADS=4`, in its scale-equivalence step; the
//! parallel row-sort inside `from_edges` is a pure per-row function
//! either way, and below 2¹⁴ directed edges it sorts the same row blocks
//! inline. Most proptests stop below 400 nodes, so path, cycle, both
//! two-cycles parities, star and a random tree are also pinned at sizes
//! past 2¹⁶, where each of the 16 row-sort blocks of 4 workers holds
//! thousands of rows.
//!
//! The block row walk `CsrAdjacency::rows(lo, hi)` is checked against
//! per-node `neighbors(v)` on the same families, over random ranges and
//! the empty and last-row edge cases.

use csmpc_graph::rng::{Seed, SplitMix64};
use csmpc_graph::{CsrAdjacency, StreamFamily};
use proptest::prelude::*;

mod oracle;

/// The streamed CSR and the materialized graph both equal the
/// builder-loop oracle: IDs, names, offsets and targets.
fn assert_stream_matches(fam: StreamFamily) {
    let oracle = oracle::build(fam);
    let what = format!("family {} n={}", fam.name(), fam.n());
    assert_eq!(&fam.stream_csr(), oracle.csr(), "stream_csr: {what}");
    assert_eq!(fam.materialize(), oracle, "materialize: {what}");
}

fn assert_tree_matches_heap_oracle(n: usize, seed: u64) {
    assert_stream_matches(StreamFamily::RandomTree {
        n,
        seed: Seed(seed),
    });
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
        StreamFamily::RandomTree {
            n: 70_001,
            seed: Seed(3),
        },
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
