//! Differential test: `DistributedGraph::cc_labels` against the
//! name-map pointer-jumping loop it grew out of.
//!
//! The oracle below keeps that loop verbatim: labels start as node names,
//! the hook takes the minimum over the closed neighborhood, and the jump
//! resolves a label through a `BTreeMap` from name to node. Built by
//! `collect`, the map keeps the *last* node carrying each name, so graphs
//! with duplicate names pin that overwrite rule too. Over seeded random
//! graphs with shuffled and duplicate names, in both parallelism modes
//! and with and without an armed crash plan, the primitive must equal the
//! oracle on labels, iteration count and the whole `Stats` ledger.

use csmpc_graph::rng::{Seed, SplitMix64};
use csmpc_graph::{generators, Graph, GraphBuilder, NodeName};
use csmpc_mpc::{
    graph_words, Cluster, DistributedGraph, FaultPlan, MpcConfig, MpcError, ParallelismMode,
    RecoveryPolicy,
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
            let mut got_cl = cluster_for(&g, mode);
            let dg = DistributedGraph::distribute(&g, &mut got_cl).expect("small inputs fit");
            let mut want_cl = cluster_for(&g, mode);
            DistributedGraph::distribute(&g, &mut want_cl).expect("small inputs fit");
            if crash {
                arm_crash(&mut got_cl, case);
                arm_crash(&mut want_cl, case);
            }
            let got = dg.cc_labels(&mut got_cl);
            let want = oracle_cc_labels(&g, &mut want_cl);
            assert_eq!(got, want, "case {case} ({mode:?}): labels or iterations");
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
