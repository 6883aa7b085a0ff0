//! Graph generators for the families the paper's arguments run on: paths,
//! cycles (the connectivity conjecture's instances), forests, regular graphs
//! (sinkless orientation), triangle-free graphs, and random graphs.
//!
//! All generators produce *legal* graphs (Definition 6) with `IDs = names =
//! 0..n` unless noted; use [`crate::ops::relabel_ids`] /
//! [`crate::ops::with_fresh_names`] or [`shuffle_identity`] to vary them.

use crate::graph::{Graph, GraphBuilder, NodeId, NodeName};
use crate::rng::{Seed, SplitMix64};
use crate::stream::StreamFamily;

/// Path on `n` nodes, `0 – 1 – … – n−1`, with consecutive IDs.
#[must_use]
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::with_sequential_nodes(n);
    for i in 1..n {
        b.add_edge(i - 1, i);
    }
    b.build().expect("path is valid")
}

/// Cycle on `n ≥ 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 nodes, got {n}");
    let mut b = GraphBuilder::with_sequential_nodes(n);
    for i in 1..n {
        b.add_edge(i - 1, i);
    }
    b.add_edge(n - 1, 0);
    b.build().expect("cycle is valid")
}

/// Two disjoint cycles of `n/2` nodes each — the NO-instance of the
/// connectivity conjecture ("one `n`-cycle vs two `n/2`-cycles").
///
/// # Panics
///
/// Panics if `n < 6` or `n` is odd.
#[must_use]
pub fn two_cycles(n: usize) -> Graph {
    assert!(n >= 6 && n.is_multiple_of(2), "need even n >= 6, got {n}");
    let half = n / 2;
    let mut b = GraphBuilder::with_sequential_nodes(n);
    for c in 0..2 {
        let off = c * half;
        for i in 1..half {
            b.add_edge(off + i - 1, off + i);
        }
        b.add_edge(off + half - 1, off);
    }
    b.build().expect("two cycles are valid")
}

/// Complete graph `K_n`.
#[must_use]
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::with_sequential_nodes(n);
    for u in 0..n {
        for v in u + 1..n {
            b.add_edge(u, v);
        }
    }
    b.build().expect("complete graph is valid")
}

/// Star `K_{1,k}`: center index 0, leaves `1..=k`.
#[must_use]
pub fn star(k: usize) -> Graph {
    let mut b = GraphBuilder::with_sequential_nodes(k + 1);
    for leaf in 1..=k {
        b.add_edge(0, leaf);
    }
    b.build().expect("star is valid")
}

/// `rows × cols` grid graph.
#[must_use]
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut b = GraphBuilder::with_sequential_nodes(rows * cols);
    let at = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(at(r, c), at(r, c + 1));
            }
            if r + 1 < rows {
                b.add_edge(at(r, c), at(r + 1, c));
            }
        }
    }
    b.build().expect("grid is valid")
}

/// `d`-regular circulant graph on `n` nodes: node `i` is adjacent to
/// `i ± 1, i ± 2, …, i ± d/2` (mod `n`); for odd `d`, also to `i + n/2`.
///
/// Deterministic, triangle-containing in general; used where any regular
/// graph will do (e.g. sinkless orientation inputs).
///
/// # Panics
///
/// Panics if the parameters cannot produce a simple `d`-regular graph
/// (`d >= n`, or odd `d` with odd `n`, or `d/2 * 2 + (d odd) != d`).
#[must_use]
pub fn circulant(n: usize, d: usize) -> Graph {
    assert!(d < n, "degree {d} must be below n={n}");
    if d % 2 == 1 {
        assert!(n.is_multiple_of(2), "odd degree needs even n");
    }
    let half = d / 2;
    assert!(half <= (n - 1) / 2, "offset overlap for n={n}, d={d}");
    let mut b = GraphBuilder::with_sequential_nodes(n);
    for i in 0..n {
        for k in 1..=half {
            let j = (i + k) % n;
            b.add_edge(i, j);
        }
    }
    if d % 2 == 1 {
        for i in 0..n / 2 {
            b.add_edge(i, i + n / 2);
        }
    }
    let g = b.build().expect("circulant is valid");
    debug_assert!(g.max_degree() == d && g.min_degree() == d);
    g
}

/// Erdős–Rényi `G(n, p)` random graph.
#[must_use]
pub fn random_gnp(n: usize, p: f64, seed: Seed) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let mut b = GraphBuilder::with_sequential_nodes(n);
    for u in 0..n {
        for v in u + 1..n {
            if rng.bernoulli(p) {
                b.add_edge(u, v);
            }
        }
    }
    b.build().expect("gnp is valid")
}

/// Uniformly random labeled tree on `n` nodes: the Prüfer-sequence
/// decoding streamed by [`StreamFamily::RandomTree`].
#[must_use]
pub fn random_tree(n: usize, seed: Seed) -> Graph {
    let mut b = GraphBuilder::with_sequential_nodes(n);
    for (u, v) in (StreamFamily::RandomTree { n, seed }).edges() {
        b.add_edge(u as usize, v as usize);
    }
    b.build().expect("prufer decoding yields a tree")
}

/// Random forest: `parts` independent random trees of the given sizes,
/// disjointly unioned with globally unique names and per-component IDs
/// `0..size` (legal, and exercising cross-component ID reuse).
#[must_use]
pub fn random_forest(sizes: &[usize], seed: Seed) -> Graph {
    let mut parts: Vec<Graph> = Vec::with_capacity(sizes.len());
    let mut name_base = 0u64;
    for (i, &s) in sizes.iter().enumerate() {
        let t = random_tree(s, seed.derive(i as u64));
        let t = crate::ops::with_fresh_names(&t, name_base);
        name_base += s as u64;
        parts.push(t);
    }
    let refs: Vec<&Graph> = parts.iter().collect();
    crate::ops::disjoint_union(&refs)
}

/// Random `d`-regular graph via the configuration model followed by
/// switch-based repair: conflicting pairings (self-loops, parallel edges)
/// are resolved by double edge swaps, which preserve all degrees.
///
/// # Panics
///
/// Panics if `n * d` is odd, `d >= n`, or the (astronomically unlikely)
/// repair loop fails to converge.
#[must_use]
pub fn random_regular(n: usize, d: usize, seed: Seed) -> Graph {
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    assert!(d < n, "degree {d} must be below n={n}");
    if n == 0 || d == 0 {
        return GraphBuilder::with_sequential_nodes(n).build().unwrap();
    }
    let mut rng = SplitMix64::new(seed);
    let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
    rng.shuffle(&mut stubs);
    let mut edges: Vec<(usize, usize)> = stubs.chunks(2).map(|p| (p[0], p[1])).collect();
    let key = |u: usize, v: usize| (u.min(v), u.max(v));
    let mut multiset: std::collections::BTreeMap<(usize, usize), usize> = Default::default();
    for &(u, v) in &edges {
        *multiset.entry(key(u, v)).or_insert(0) += 1;
    }
    let conflicting =
        |ms: &std::collections::BTreeMap<(usize, usize), usize>, u: usize, v: usize| {
            u == v || ms.get(&key(u, v)).copied().unwrap_or(0) > 1
        };
    let total = edges.len();
    let mut budget = 1_000_000usize.max(100 * total);
    loop {
        // Collect indices of conflicting edges.
        let bad: Vec<usize> = (0..total)
            .filter(|&i| conflicting(&multiset, edges[i].0, edges[i].1))
            .collect();
        if bad.is_empty() {
            break;
        }
        for &i in &bad {
            if budget == 0 {
                panic!("failed to sample a simple {d}-regular graph on {n} nodes");
            }
            budget -= 1;
            let j = rng.index(total);
            if i == j {
                continue;
            }
            let (a, bnode) = edges[i];
            let (c, dnode) = edges[j];
            // Proposed swap: (a,d) and (c,b).
            if a == dnode || c == bnode {
                continue;
            }
            let new1 = key(a, dnode);
            let new2 = key(c, bnode);
            let count = |ms: &std::collections::BTreeMap<(usize, usize), usize>, k| {
                ms.get(&k).copied().unwrap_or(0)
            };
            let extra = usize::from(new1 == new2);
            if count(&multiset, new1) + extra > 0 || count(&multiset, new2) > 0 {
                continue;
            }
            // Apply the swap.
            for k in [key(a, bnode), key(c, dnode)] {
                let e = multiset.get_mut(&k).expect("edge present");
                *e -= 1;
                if *e == 0 {
                    multiset.remove(&k);
                }
            }
            *multiset.entry(new1).or_insert(0) += 1;
            *multiset.entry(new2).or_insert(0) += 1;
            edges[i] = (a, dnode);
            edges[j] = (c, bnode);
        }
    }
    let mut b = GraphBuilder::with_sequential_nodes(n);
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    b.build().expect("repaired matching yields a simple graph")
}

/// Random bipartite graph between two sides of `n/2` nodes with edge
/// probability `p` — triangle-free by construction (for the Theorem 43
/// vertex-coloring experiments).
#[must_use]
pub fn random_bipartite(n: usize, p: f64, seed: Seed) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let left = n / 2;
    let mut b = GraphBuilder::with_sequential_nodes(n);
    for u in 0..left {
        for v in left..n {
            if rng.bernoulli(p) {
                b.add_edge(u, v);
            }
        }
    }
    b.build().expect("bipartite is valid")
}

/// Path with **consecutive IDs in path order** — the YES-instance of the
/// Section 2.1 counterexample problem ("output YES iff the whole graph is a
/// simple path with consecutive node IDs").
#[must_use]
pub fn consecutive_id_path(n: usize) -> Graph {
    path(n)
}

/// The Section 2.1 NO-instance: the same path but with one endpoint's ID
/// altered, detectable only from the far endpoint after `n−1` LOCAL rounds.
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn consecutive_id_path_broken(n: usize) -> Graph {
    assert!(n >= 2);
    let g = path(n);
    crate::ops::relabel_ids(&g, |v, id| {
        if v == n - 1 {
            NodeId(id.0 + 10_000)
        } else {
            id
        }
    })
}

/// Re-draws IDs as a random permutation of `base..base+n` and names as a
/// random permutation of `name_base..name_base+n` (both still legal).
#[must_use]
pub fn shuffle_identity(g: &Graph, base: u64, name_base: u64, seed: Seed) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let idp = rng.permutation(g.n());
    let namep = rng.permutation(g.n());
    let mut b = GraphBuilder::new();
    for v in 0..g.n() {
        b.add_node(
            NodeId(base + idp[v] as u64),
            NodeName(name_base + namep[v] as u64),
        );
    }
    for (u, v) in g.edges() {
        b.add_edge(u, v);
    }
    b.build().expect("identity shuffle preserves validity")
}

/// Caterpillar tree: a spine path of `spine` nodes, each with `legs` pendant
/// leaves. Useful as a high-degree forest instance.
#[must_use]
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine + spine * legs;
    let mut b = GraphBuilder::with_sequential_nodes(n);
    for i in 1..spine {
        b.add_edge(i - 1, i);
    }
    for s in 0..spine {
        for l in 0..legs {
            b.add_edge(s, spine + s * legs + l);
        }
    }
    b.build().expect("caterpillar is valid")
}

/// The `dim`-dimensional hypercube (`2^dim` nodes, degree `dim`).
#[must_use]
pub fn hypercube(dim: u32) -> Graph {
    let n = 1usize << dim;
    let mut b = GraphBuilder::with_sequential_nodes(n);
    for v in 0..n {
        for bit in 0..dim {
            let w = v ^ (1 << bit);
            if v < w {
                b.add_edge(v, w);
            }
        }
    }
    b.build().expect("hypercube is valid")
}

/// Complete bipartite graph `K_{a,b}` (left side first).
#[must_use]
pub fn complete_bipartite(a: usize, bsize: usize) -> Graph {
    let mut b = GraphBuilder::with_sequential_nodes(a + bsize);
    for u in 0..a {
        for v in a..a + bsize {
            b.add_edge(u, v);
        }
    }
    b.build().expect("complete bipartite is valid")
}

/// Complete binary tree with `depth` levels below the root
/// (`2^(depth+1) − 1` nodes).
#[must_use]
pub fn binary_tree(depth: u32) -> Graph {
    let n = (1usize << (depth + 1)) - 1;
    let mut b = GraphBuilder::with_sequential_nodes(n);
    for v in 1..n {
        b.add_edge(v, (v - 1) / 2);
    }
    b.build().expect("binary tree is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!(g.n(), 16);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.m(), 32);
        assert!(g.is_connected());
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 12);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(3);
        assert_eq!(g.n(), 15);
        assert_eq!(g.m(), 14);
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn path_shape() {
        let g = path(6);
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 5);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 1);
        assert!(g.is_connected());
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(7);
        assert_eq!(g.m(), 7);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert!(g.is_connected());
    }

    #[test]
    fn two_cycles_shape() {
        let g = two_cycles(12);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 12);
        assert_eq!(g.component_count(), 2);
    }

    #[test]
    fn complete_counts() {
        let g = complete(5);
        assert_eq!(g.m(), 10);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn circulant_even_degree() {
        let g = circulant(10, 4);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.m(), 20);
    }

    #[test]
    fn circulant_odd_degree() {
        let g = circulant(10, 5);
        assert_eq!(g.max_degree(), 5);
        assert_eq!(g.min_degree(), 5);
    }

    #[test]
    fn random_tree_is_tree() {
        for n in [1usize, 2, 3, 10, 50] {
            let g = random_tree(n, Seed(n as u64));
            assert_eq!(g.n(), n);
            assert_eq!(g.m(), n.saturating_sub(1));
            assert!(g.is_connected());
        }
    }

    #[test]
    fn random_forest_component_structure() {
        let g = random_forest(&[5, 7, 3], Seed(1));
        assert_eq!(g.n(), 15);
        assert_eq!(g.component_count(), 3);
        assert_eq!(g.m(), 4 + 6 + 2);
        assert!(g.is_legal());
    }

    #[test]
    fn random_regular_is_regular() {
        for (n, d) in [(10, 3), (20, 4), (16, 5)] {
            let g = random_regular(n, d, Seed(7));
            assert_eq!(g.max_degree(), d);
            assert_eq!(g.min_degree(), d);
            assert_eq!(g.m(), n * d / 2);
        }
    }

    #[test]
    fn bipartite_triangle_free() {
        let g = random_bipartite(20, 0.5, Seed(3));
        // Check no triangles: for each edge (u,v), neighborhoods are disjoint.
        for (u, v) in g.edges() {
            for &w in g.neighbors(u) {
                assert!(
                    !g.has_edge(w as usize, v),
                    "triangle found at ({u},{v},{w})"
                );
            }
        }
    }

    #[test]
    fn gnp_determinism() {
        let a = random_gnp(30, 0.2, Seed(9));
        let b = random_gnp(30, 0.2, Seed(9));
        assert_eq!(a, b);
    }

    #[test]
    fn broken_path_differs_only_at_endpoint() {
        let good = consecutive_id_path(8);
        let bad = consecutive_id_path_broken(8);
        for v in 0..7 {
            assert_eq!(good.id(v), bad.id(v));
        }
        assert_ne!(good.id(7), bad.id(7));
    }

    #[test]
    fn shuffle_identity_stays_legal() {
        let g = cycle(9);
        let h = shuffle_identity(&g, 100, 200, Seed(4));
        assert!(h.is_legal());
        assert_eq!(h.m(), g.m());
        // Topology preserved under the index mapping (identity here).
        for (u, v) in g.edges() {
            assert!(h.has_edge(u, v));
        }
    }

    #[test]
    fn caterpillar_is_tree() {
        let g = caterpillar(4, 3);
        assert_eq!(g.n(), 16);
        assert_eq!(g.m(), 15);
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 5); // inner spine node: 2 spine + 3 legs
    }
}
