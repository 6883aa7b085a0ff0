//! Builder-loop oracle for the seeded graph families: every
//! [`StreamFamily`] written out edge by edge through [`GraphBuilder`],
//! with sequential IDs and names, and random trees decoded by the
//! textbook min-heap Prüfer decode. `StreamFamily::materialize` (and the
//! `generators` and `GraphSpec::build` calls that go through it) must
//! equal this graph on IDs, names, offsets and targets.
//!
//! Shared as a module by `stream_csr.rs` and by the job service's
//! `graph_spec` suite (which includes it by path).

use csmpc_graph::rng::{Seed, SplitMix64};
use csmpc_graph::{Graph, GraphBuilder, StreamFamily};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The graph `family` describes, built by the builder loops.
///
/// # Panics
///
/// On a cycle below 3 nodes or two cycles on an odd or fewer-than-6
/// node count.
pub fn build(family: StreamFamily) -> Graph {
    let n = family.n();
    let mut b = GraphBuilder::with_sequential_nodes(n);
    match family {
        StreamFamily::Path { n } => {
            for i in 1..n {
                b.add_edge(i - 1, i);
            }
        }
        StreamFamily::Cycle { n } => {
            assert!(n >= 3, "cycle needs at least 3 nodes, got {n}");
            for i in 1..n {
                b.add_edge(i - 1, i);
            }
            b.add_edge(n - 1, 0);
        }
        StreamFamily::TwoCycles { n } => {
            assert!(n >= 6 && n.is_multiple_of(2), "need even n >= 6, got {n}");
            let half = n / 2;
            for c in 0..2 {
                let off = c * half;
                for i in 1..half {
                    b.add_edge(off + i - 1, off + i);
                }
                b.add_edge(off + half - 1, off);
            }
        }
        StreamFamily::Star { leaves } => {
            for leaf in 1..=leaves {
                b.add_edge(0, leaf);
            }
        }
        StreamFamily::Hypercube { dim } => {
            for v in 0..n {
                for bit in 0..dim {
                    let w = v ^ (1 << bit);
                    if v < w {
                        b.add_edge(v, w);
                    }
                }
            }
        }
        StreamFamily::RandomTree { n, seed } => heap_prufer_decode(&mut b, n, seed),
    }
    b.build().expect("every seeded family is a valid graph")
}

/// The textbook O(n log n) Prüfer decode: repeatedly pop the smallest
/// leaf from a min-heap. Draws the same sequence as the stream from the
/// same seed.
fn heap_prufer_decode(b: &mut GraphBuilder, n: usize, seed: Seed) {
    if n < 2 {
        return;
    }
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
