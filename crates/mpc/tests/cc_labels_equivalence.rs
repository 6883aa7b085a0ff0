//! Differential tests for both cc-labels paths.
//!
//! `DistributedGraph::cc_labels` is checked against the name-map
//! pointer-jumping loop it grew out of, and both it and `scale::cc_labels`
//! against the three-buffer rank-space sweep the shared `hook_jump` ran
//! before its jump was fused in place.
//!
//! The name-map oracle keeps that loop verbatim: labels start as node names,
//! the hook takes the minimum over the closed neighborhood, and the jump
//! resolves a label through a `BTreeMap` from name to node. Built by
//! `collect`, the map keeps the *last* node carrying each name, so graphs
//! with duplicate names pin that overwrite rule too. Over seeded random
//! graphs with shuffled and duplicate names, in both parallelism modes
//! and with and without an armed crash plan, the primitive must equal the
//! oracle on labels, iteration count and the whole `Stats` ledger.
//!
//! Scale cc hooks into the result buffer the MIS and coloring kernels
//! also use, so the kernels must leave the same results on one shared
//! warm workspace as on fresh ones. The scale path's iteration counts on
//! two cycles are pinned here too (EXPERIMENTS E11).

use csmpc_graph::rng::{Seed, SplitMix64};
use csmpc_graph::{generators, CsrAdjacency, Graph, GraphBuilder, NodeName, StreamFamily};
use csmpc_mpc::{
    graph_words, scale, Cluster, DistributedGraph, FaultPlan, MpcConfig, MpcError, ParallelismMode,
    RecoveryPolicy, ScaleWorkspace,
};
use std::collections::BTreeMap;

/// The name-map loop: same charges (`2d` rounds per iteration, through
/// `advance_rounds`), same hook, jump through `by_name`.
fn oracle_cc_labels(g: &Graph, cluster: &mut Cluster) -> Result<(Vec<u64>, usize), MpcError> {
    let n = g.n();
    let d = cluster
        .config()
        .tree_depth(cluster.input_n(), cluster.num_machines());
    let mut label: Vec<u64> = (0..n).map(|v| g.name(v).0).collect();
    let by_name: BTreeMap<u64, usize> = (0..n).map(|v| (g.name(v).0, v)).collect();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        cluster.advance_rounds(2 * d)?;
        let next: Vec<u64> = (0..n)
            .map(|v| {
                g.neighbors(v)
                    .iter()
                    .fold(label[v], |nv, &w| nv.min(label[w as usize]))
            })
            .collect();
        let jumped: Vec<u64> = (0..n)
            .map(|v| {
                let mut jv = next[v];
                if let Some(&rep) = by_name.get(&next[v]) {
                    jv = jv.min(label[rep]).min(next[rep]);
                }
                jv
            })
            .collect();
        if jumped == label {
            return Ok((label, iterations));
        }
        label = jumped;
    }
}

/// The three-buffer rank-space sweep: each iteration hooks `label` into
/// `next`, jumps into a separate `jumped` buffer through the node
/// `node_of(next[v])` names, reading `label` there as well as `next`, and
/// stops when `jumped == label`. Same charges as the primitives.
fn three_buffer_sweep<F>(
    cluster: &mut Cluster,
    csr: &CsrAdjacency,
    mut label: Vec<u64>,
    node_of: F,
) -> Result<(Vec<u64>, usize), MpcError>
where
    F: Fn(u64) -> usize,
{
    let n = csr.n();
    let d = cluster
        .config()
        .tree_depth(cluster.input_n(), cluster.num_machines());
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        cluster.advance_rounds(2 * d)?;
        let next: Vec<u64> = (0..n)
            .map(|v| {
                csr.neighbors(v)
                    .iter()
                    .fold(label[v], |nv, &w| nv.min(label[w as usize]))
            })
            .collect();
        let jumped: Vec<u64> = (0..n)
            .map(|v| {
                let t = node_of(next[v]);
                next[v].min(label[t]).min(next[t])
            })
            .collect();
        if jumped == label {
            return Ok((label, iterations));
        }
        label = jumped;
    }
}

/// `DistributedGraph::cc_labels` through [`three_buffer_sweep`]: labels
/// are ranks of the sorted distinct names, and a rank points at the last
/// node carrying its name.
fn rank_oracle_cc_labels(g: &Graph, cluster: &mut Cluster) -> Result<(Vec<u64>, usize), MpcError> {
    let names: Vec<u64> = g
        .names()
        .iter()
        .map(|nm| nm.0)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let rank = |v: usize| names.binary_search(&g.name(v).0).expect("a node's name") as u64;
    let mut node_of = vec![0usize; names.len()];
    for v in 0..g.n() {
        node_of[rank(v) as usize] = v;
    }
    let label = (0..g.n()).map(rank).collect();
    let (ranks, iterations) = three_buffer_sweep(cluster, g.csr(), label, |r| node_of[r as usize])?;
    Ok((
        ranks.iter().map(|&r| names[r as usize]).collect(),
        iterations,
    ))
}

/// A random topology (sparse G(n, p) or a random forest, so several
/// components are common) carrying shuffled, spread-out names, some of
/// them duplicated within or across components.
fn named_graph(rng: &mut SplitMix64) -> Graph {
    let n = 1 + rng.index(96);
    let topo = if rng.bit() {
        let p = (0.5 + 2.5 * rng.f64()) / n as f64;
        generators::random_gnp(n, p.min(1.0), Seed(rng.next_u64()))
    } else {
        let mut sizes = Vec::new();
        let mut left = n;
        while left > 0 {
            let s = 1 + rng.index(left);
            sizes.push(s);
            left -= s;
        }
        generators::random_forest(&sizes, Seed(rng.next_u64()))
    };
    let stride = 1 + rng.range(0, 1_000);
    let offset = rng.range(0, 1 << 40);
    let mut names: Vec<u64> = rng
        .permutation(n)
        .into_iter()
        .map(|r| offset + r as u64 * stride)
        .collect();
    for _ in 0..rng.index(n / 3 + 1) {
        let (a, b) = (rng.index(n), rng.index(n));
        names[a] = names[b];
    }
    let mut b = GraphBuilder::new();
    for (v, &name) in names.iter().enumerate() {
        b.add_node(topo.id(v), NodeName(name));
    }
    for (u, w) in topo.edges() {
        b.add_edge(u, w);
    }
    b.build().expect("same edge set as a valid graph")
}

/// A fresh cluster for `g`.
fn cluster_for(g: &Graph, mode: ParallelismMode) -> Cluster {
    let cfg = MpcConfig {
        parallelism: mode,
        ..MpcConfig::with_phi(0.5)
    };
    Cluster::new(cfg, g.n(), graph_words(g), Seed(7))
}

/// Schedules a crash a few rounds into the labeling, under restart
/// recovery.
fn arm_crash(cl: &mut Cluster, s: u64) {
    let machine = (s as usize) % cl.num_machines();
    let at = cl.stats().rounds + 1 + (s as usize) % 6;
    cl.arm_faults(
        FaultPlan::quiet(Seed(s)).crash(machine, at),
        RecoveryPolicy::restart(4),
    );
}

#[test]
fn cc_labels_matches_the_name_map_oracle() {
    let mut rng = SplitMix64::new(Seed(0x00cc_1abe));
    let mut duplicated = 0usize;
    let mut recoveries = 0usize;
    for case in 0..400u64 {
        let g = named_graph(&mut rng);
        let names: std::collections::BTreeSet<_> = g.names().iter().collect();
        duplicated += usize::from(names.len() < g.n());
        let crash = case % 4 == 3;
        for mode in [ParallelismMode::Sequential, ParallelismMode::Parallel] {
            let mut rank_cl = cluster_for(&g, mode);
            DistributedGraph::distribute(&g, &mut rank_cl).expect("small inputs fit");
            let mut got_cl = cluster_for(&g, mode);
            let dg = DistributedGraph::distribute(&g, &mut got_cl).expect("small inputs fit");
            let mut want_cl = cluster_for(&g, mode);
            DistributedGraph::distribute(&g, &mut want_cl).expect("small inputs fit");
            if crash {
                arm_crash(&mut got_cl, case);
                arm_crash(&mut want_cl, case);
                arm_crash(&mut rank_cl, case);
            }
            let got = dg.cc_labels(&mut got_cl);
            let want = oracle_cc_labels(&g, &mut want_cl);
            assert_eq!(got, want, "case {case} ({mode:?}): labels or iterations");
            let by_rank = rank_oracle_cc_labels(&g, &mut rank_cl);
            assert_eq!(got, by_rank, "case {case} ({mode:?}): three-buffer sweep");
            assert_eq!(
                got_cl.stats().model_words(),
                rank_cl.stats().model_words(),
                "case {case} ({mode:?}): three-buffer Stats ledger"
            );
            assert_eq!(
                got_cl.recovery_log(),
                rank_cl.recovery_log(),
                "case {case} ({mode:?}): three-buffer recovery log"
            );
            assert_eq!(
                got_cl.stats().model_words(),
                want_cl.stats().model_words(),
                "case {case} ({mode:?}): Stats ledger"
            );
            assert_eq!(
                got_cl.recovery_log(),
                want_cl.recovery_log(),
                "case {case} ({mode:?}): recovery log"
            );
            recoveries += got_cl.recovery_log().len();
        }
    }
    assert!(
        duplicated > 100,
        "only {duplicated} graphs with duplicate names"
    );
    assert!(recoveries > 50, "only {recoveries} crash recoveries");
}

/// Every [`StreamFamily`] member at a few sizes, so both the identity and
/// the random-tree ingest paths are covered.
fn stream_families() -> Vec<StreamFamily> {
    let mut out = Vec::new();
    for n in [1usize, 2, 17, 160] {
        out.push(StreamFamily::Path { n });
        out.push(StreamFamily::Star { leaves: n });
        for s in [3u64, 0xbeef] {
            out.push(StreamFamily::RandomTree { n, seed: Seed(s) });
        }
    }
    for n in [3usize, 8, 97] {
        out.push(StreamFamily::Cycle { n });
    }
    for n in [6usize, 40, 150] {
        out.push(StreamFamily::TwoCycles { n });
    }
    for dim in [0u32, 1, 4, 7] {
        out.push(StreamFamily::Hypercube { dim });
    }
    out
}

#[test]
fn scale_cc_labels_matches_the_three_buffer_sweep() {
    let mut recoveries = 0usize;
    for (case, family) in stream_families().into_iter().enumerate() {
        let words = 2 * family.n() + 2 * family.m();
        for crash in [false, true] {
            for mode in [ParallelismMode::Sequential, ParallelismMode::Parallel] {
                let cfg = MpcConfig {
                    parallelism: mode,
                    ..MpcConfig::with_phi(0.5)
                };
                let mut got_cl = Cluster::new(cfg, family.n(), words, Seed(7));
                let mut want_cl = Cluster::new(cfg, family.n(), words, Seed(7));
                let csr = scale::ingest(family, &mut got_cl).expect("small inputs fit");
                scale::ingest(family, &mut want_cl).expect("small inputs fit");
                if crash {
                    arm_crash(&mut got_cl, case as u64);
                    arm_crash(&mut want_cl, case as u64);
                }
                // A workspace holding another family's output must not leak
                // into this run.
                let mut ws = ScaleWorkspace::new();
                ws.label = vec![u64::MAX; 3];
                let got = scale::cc_labels(&mut got_cl, &csr, &mut ws).map(|i| (ws.label, i));
                let identity = (0..csr.n() as u64).collect();
                let want = three_buffer_sweep(&mut want_cl, &csr, identity, |r| r as usize);
                let what = format!(
                    "{} n={} crash={crash} ({mode:?})",
                    family.name(),
                    family.n()
                );
                assert_eq!(got, want, "{what}: labels or iterations");
                assert_eq!(
                    got_cl.stats().model_words(),
                    want_cl.stats().model_words(),
                    "{what}: Stats ledger"
                );
                assert_eq!(
                    got_cl.recovery_log(),
                    want_cl.recovery_log(),
                    "{what}: recovery log"
                );
                recoveries += got_cl.recovery_log().len();
            }
        }
    }
    assert!(recoveries > 20, "only {recoveries} crash recoveries");
}

/// What one order of the three scale kernels leaves behind: the cc
/// labels, MIS states and colors, each kernel's return value, and the
/// cluster's ledger.
type KernelRun = (Vec<u64>, Vec<u8>, Vec<u32>, Vec<(usize, usize)>, [u64; 8]);

/// Runs the scale kernels on `family` in `order` (0 cc, 1 MIS, 2
/// coloring) over one cluster. With `warm`, all three share that
/// workspace; without, each kernel gets a fresh one.
fn kernels_in_order(
    family: StreamFamily,
    mode: ParallelismMode,
    order: [usize; 3],
    mut warm: Option<&mut ScaleWorkspace>,
) -> KernelRun {
    let cfg = MpcConfig {
        parallelism: mode,
        ..MpcConfig::with_phi(0.5)
    };
    let words = 2 * family.n() + 2 * family.m();
    let mut cl = Cluster::new(cfg, family.n(), words, Seed(7));
    let csr = scale::ingest(family, &mut cl).expect("small inputs fit");
    let mut fresh: [ScaleWorkspace; 3] = Default::default();
    let mut returns = Vec::new();
    for kernel in order {
        let ws = match warm.as_deref_mut() {
            Some(ws) => ws,
            None => &mut fresh[kernel],
        };
        returns.push(match kernel {
            0 => (scale::cc_labels(&mut cl, &csr, ws).expect("no faults"), 0),
            1 => scale::luby_mis(&mut cl, &csr, Seed(3), ws).expect("no faults"),
            _ => {
                let (used, rounds) =
                    scale::ball_coloring(&mut cl, &csr, Seed(5), ws).expect("no faults");
                (used as usize, rounds)
            }
        });
    }
    let [cc, mis, coloring] = match warm {
        Some(ws) => [&*ws; 3],
        None => [&fresh[0], &fresh[1], &fresh[2]],
    };
    (
        cc.label.clone(),
        mis.state.clone(),
        coloring.color.clone(),
        returns,
        cl.stats().model_words(),
    )
}

/// `scale::cc_labels` hooks into the frontier kernels' result buffer, so
/// the three kernels share scratch. Every order of them on one warm
/// workspace, carried across families of different sizes, must leave the
/// same outputs, return values and ledger as three fresh workspaces.
#[test]
fn kernels_sharing_one_workspace_match_fresh_workspaces() {
    const ORDERS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let mut warm = ScaleWorkspace::new();
    for family in stream_families() {
        for mode in [ParallelismMode::Sequential, ParallelismMode::Parallel] {
            for order in ORDERS {
                let got = kernels_in_order(family, mode, order, Some(&mut warm));
                let want = kernels_in_order(family, mode, order, None);
                assert_eq!(
                    got,
                    want,
                    "{} n={} order {order:?} ({mode:?})",
                    family.name(),
                    family.n()
                );
            }
        }
    }
}

/// EXPERIMENTS E11: `scale::cc_labels` iterations on two cycles against
/// log2 n. The count is deterministic, so each row is pinned: one cycle
/// of n/2 nodes needs log2(n/2) iterations, the last of which changes
/// nothing and ends the sweep.
#[test]
fn two_cycles_iteration_counts_are_pinned() {
    const ROWS: [(u32, usize); 11] = [
        (10, 9),
        (11, 10),
        (12, 11),
        (13, 12),
        (14, 13),
        (15, 14),
        (16, 15),
        (17, 16),
        (18, 17),
        (19, 18),
        (20, 19),
    ];
    let mut ws = ScaleWorkspace::new();
    for (log_n, want) in ROWS {
        let family = StreamFamily::TwoCycles { n: 1 << log_n };
        let cfg = MpcConfig {
            parallelism: ParallelismMode::Parallel,
            ..MpcConfig::with_phi(0.5)
        };
        let words = 2 * family.n() + 2 * family.m();
        let mut cl = Cluster::new(cfg, family.n(), words, Seed(7));
        let csr = scale::ingest(family, &mut cl).expect("fits the rank space");
        let got = scale::cc_labels(&mut cl, &csr, &mut ws).expect("no faults");
        assert_eq!(got, want, "two cycles at n = 2^{log_n}");
    }
}
