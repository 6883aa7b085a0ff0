//! Differential tests for the flat `BallWorkspace` hot path against the
//! pre-workspace implementation kept below as [`reference`], plus the
//! epoch regression test: a workspace reused across different graphs must
//! never leak visitation state from an earlier call.

use csmpc_graph::ball::{self, BallWorkspace};
use csmpc_graph::{generators, Graph, GraphBuilder};
use proptest::collection;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The pre-workspace implementations, kept verbatim as the oracle:
/// full-graph BFS plus [`csmpc_graph::ops::induced`] for balls,
/// `BTreeMap` ID maps for radius-identity.
mod reference {
    use csmpc_graph::ops::induced;
    use csmpc_graph::{Graph, NodeId};
    use std::collections::BTreeMap;

    /// Oracle for [`csmpc_graph::ball::ball`]: full-`n` BFS, filter,
    /// induced-subgraph rebuild through the validating builder.
    pub fn ball(g: &Graph, v: usize, r: usize) -> (Graph, usize, Vec<usize>) {
        let dist = g.bfs_distances(v);
        let nodes: Vec<usize> = (0..g.n()).filter(|&u| dist[u] <= r).collect();
        let center_pos = nodes
            .iter()
            .position(|&u| u == v)
            .expect("center is within its own ball");
        let (sub, original) = induced(g, &nodes);
        (sub, center_pos, original)
    }

    /// Oracle for [`csmpc_graph::ball::radius_identical`] over `BTreeMap`
    /// ID → index maps.
    pub fn radius_identical(g1: &Graph, c1: usize, g2: &Graph, c2: usize, d: usize) -> bool {
        let (b1, ctr1, _) = ball(g1, c1, d);
        let (b2, ctr2, _) = ball(g2, c2, d);
        if b1.id(ctr1) != b2.id(ctr2) || b1.n() != b2.n() || b1.m() != b2.m() {
            return false;
        }
        // Build ID -> index maps; duplicate IDs inside a ball are impossible
        // for legal graphs (a ball is within one component).
        let map1: BTreeMap<NodeId, usize> = (0..b1.n()).map(|i| (b1.id(i), i)).collect();
        let map2: BTreeMap<NodeId, usize> = (0..b2.n()).map(|i| (b2.id(i), i)).collect();
        if map1.len() != b1.n() || map2.len() != b2.n() {
            return false; // illegal input: ambiguous correspondence
        }
        for (id, &i1) in &map1 {
            let Some(&i2) = map2.get(id) else {
                return false;
            };
            // Compare neighbor ID sets.
            let mut n1: Vec<NodeId> = b1
                .neighbors(i1)
                .iter()
                .map(|&w| b1.id(w as usize))
                .collect();
            let mut n2: Vec<NodeId> = b2
                .neighbors(i2)
                .iter()
                .map(|&w| b2.id(w as usize))
                .collect();
            n1.sort_unstable();
            n2.sort_unstable();
            if n1 != n2 {
                return false;
            }
        }
        // Distances from the centers must also agree: the ball of radius d
        // could otherwise match as a graph while nodes sit at different
        // depths.
        let d1 = b1.bfs_distances(ctr1);
        let d2 = b2.bfs_distances(ctr2);
        for (id, &i1) in &map1 {
            if d1[i1] != d2[map2[id]] {
                return false;
            }
        }
        true
    }
}

/// Builds an arbitrary (possibly disconnected) legal graph on `n`
/// sequential nodes from raw endpoint draws, deduplicating edges.
fn build_graph(n: usize, raw_edges: &[(usize, usize)]) -> Graph {
    let mut b = GraphBuilder::with_sequential_nodes(n);
    let mut seen = BTreeSet::new();
    for &(a, c) in raw_edges {
        let (u, w) = (a % n, c % n);
        let (u, w) = (u.min(w), u.max(w));
        if u != w && seen.insert((u, w)) {
            b.add_edge(u, w);
        }
    }
    b.build().expect("sequential-node graph is legal")
}

/// Strategy for the raw material of [`build_graph`].
fn edges_strategy() -> collection::VecStrategy<(std::ops::Range<usize>, std::ops::Range<usize>)> {
    collection::vec((0usize..10_000, 0usize..10_000), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn workspace_ball_matches_reference(
        n in 1usize..=28,
        edges in edges_strategy(),
        v_raw in 0usize..10_000,
        r in 0usize..6,
    ) {
        let g = build_graph(n, &edges);
        let v = v_raw % g.n();
        let got = ball::ball(&g, v, r);
        let want = reference::ball(&g, v, r);
        // Same node set, ids, names, edges, and center — the tuples are
        // compared structurally, so this is bit-exact agreement.
        prop_assert_eq!(got, want);
    }

    #[test]
    fn workspace_radius_identical_matches_reference(
        dims in (1usize..=28, 1usize..=28),
        edge_sets in (edges_strategy(), edges_strategy()),
        centers in (0usize..10_000, 0usize..10_000),
        d in 0usize..5,
    ) {
        let g1 = build_graph(dims.0, &edge_sets.0);
        let g2 = build_graph(dims.1, &edge_sets.1);
        let c1 = centers.0 % g1.n();
        let c2 = centers.1 % g2.n();
        prop_assert_eq!(
            ball::radius_identical(&g1, c1, &g2, c2, d),
            reference::radius_identical(&g1, c1, &g2, c2, d)
        );
        // Reflexivity survives the workspace path too.
        prop_assert!(ball::radius_identical(&g1, c1, &g1, c1, d));
    }
}

/// Epoch regression: one workspace serving graphs of very different sizes,
/// in both directions (large → small → large), produces exactly what a
/// fresh workspace produces. A stale `stamp`/`dist`/`new_index` slot from
/// the earlier, larger graph would corrupt the smaller graph's ball (or
/// vice versa after regrowth).
#[test]
fn workspace_reuse_across_graphs_never_leaks_state() {
    let big = generators::random_tree(120, csmpc_graph::rng::Seed(41));
    let small = generators::cycle(5);
    let medium = generators::random_tree(37, csmpc_graph::rng::Seed(7));
    let mut shared = BallWorkspace::new();
    let schedule: &[(&Graph, usize, usize)] = &[
        (&big, 60, 3),
        (&small, 2, 1),
        (&big, 0, 2),
        (&medium, 36, 4),
        (&small, 4, 9),
        (&big, 119, 1),
        (&medium, 0, 0),
    ];
    for &(g, v, r) in schedule {
        let got = shared.ball(g, v, r);
        let fresh = BallWorkspace::new().ball(g, v, r);
        assert_eq!(got, fresh, "reused workspace diverged at v={v} r={r}");
        assert_eq!(got, reference::ball(g, v, r));
    }
    // Radius-identity calls interleaved with ball calls share the same
    // scratch buffers; they must be equally immune to reuse.
    assert!(shared.radius_identical(&big, 3, &big, 3, 2));
    assert_eq!(
        shared.radius_identical(&small, 1, &medium, 1, 2),
        reference::radius_identical(&small, 1, &medium, 1, 2)
    );
    let after = shared.ball(&small, 0, 2);
    assert_eq!(after, reference::ball(&small, 0, 2));
}

/// Every ball of seeded random trees, at radii 0–3, matches the oracle.
#[test]
fn ball_matches_reference_on_generators() {
    for s in [3u64, 17, 99] {
        let g = generators::random_tree(30, csmpc_graph::rng::Seed(s));
        for v in 0..g.n() {
            for r in 0..4 {
                assert_eq!(
                    ball::ball(&g, v, r),
                    reference::ball(&g, v, r),
                    "v={v} r={r}"
                );
            }
        }
    }
}

/// The thread-local convenience path and an owned workspace agree.
#[test]
fn thread_workspace_matches_owned() {
    let g = generators::random_tree(50, csmpc_graph::rng::Seed(13));
    let mut owned = BallWorkspace::new();
    for v in [0usize, 7, 49] {
        assert_eq!(ball::ball(&g, v, 3), owned.ball(&g, v, 3));
    }
    assert_eq!(
        ball::with_thread_workspace(|ws| ws.ball(&g, 11, 2)),
        owned.ball(&g, 11, 2)
    );
}
