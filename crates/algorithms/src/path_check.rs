//! The `O(1)`-round MPC algorithm for the Section 2.1 counterexample
//! problem ("is the whole graph a simple path with consecutive IDs?").
//!
//! Each node performs radius-1 checks; three global aggregations (degree-1
//! count, min/max ID, a global AND) finish the job — constant rounds, in
//! stark contrast to the problem's `n−1`-round LOCAL lower bound. Because
//! the verdict depends on `n` and on *all* components, the algorithm is
//! component-stable only thanks to its dependency on `n` — the exact
//! subtlety the paper's Section 2.1 dissects.

use crate::api::MpcVertexAlgorithm;
use csmpc_graph::Graph;
use csmpc_mpc::{Cluster, DistributedGraph, MpcError};

/// Per-node local predicate: degrees in `{1, 2}` and neighbor IDs exactly
/// the adjacent integers.
fn locally_consistent(g: &Graph, v: usize) -> bool {
    let id = g.id(v).0;
    let nbr_ids: Vec<u64> = g.neighbors(v).iter().map(|&w| g.id(w as usize).0).collect();
    match nbr_ids.len() {
        1 => nbr_ids[0] == id + 1 || (id > 0 && nbr_ids[0] == id - 1),
        2 => {
            let lo = id.checked_sub(1);
            let hi = id + 1;
            let mut sorted = nbr_ids.clone();
            sorted.sort_unstable();
            match lo {
                Some(lo) => sorted == vec![lo, hi],
                None => false,
            }
        }
        _ => false,
    }
}

/// The constant-round verdict, computed with explicit aggregation charges.
///
/// # Errors
///
/// Propagates space violations from distribution.
pub fn consecutive_path_verdict(g: &Graph, cluster: &mut Cluster) -> Result<bool, MpcError> {
    let dg = DistributedGraph::distribute(g, cluster)?;
    let n = dg.count_nodes(cluster)?;
    if n == 0 {
        return Ok(false);
    }
    if n == 1 {
        return Ok(true);
    }
    let d = cluster.tree_depth();
    // One local round to collect radius-1 neighborhoods (IDs of neighbors
    // travel one hop), then three parallel aggregations.
    cluster.advance_rounds(1 + d)?;
    let endpoints = (0..n).filter(|&v| g.degree(v) == 1).count();
    let all_local = (0..n).all(|v| locally_consistent(g, v));
    let min_id = (0..n).map(|v| g.id(v).0).min().expect("n >= 1");
    let max_id = (0..n).map(|v| g.id(v).0).max().expect("n >= 1");
    Ok(endpoints == 2 && all_local && max_id - min_id == (n - 1) as u64)
}

/// The algorithm packaged for the framework: label = the global verdict at
/// every node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsecutivePathCheck;

impl MpcVertexAlgorithm for ConsecutivePathCheck {
    type Label = bool;

    fn name(&self) -> &str {
        "consecutive-path-check (stable-with-n, deterministic)"
    }

    fn deterministic(&self) -> bool {
        true
    }

    // Stable *given n*: with |V| known, a component can decide locally
    // whether it is the whole consecutive-ID path (Definition 13 admits
    // outputs depending on (CC(v), v, n, Delta, S)); the implementation
    // reads only distribute/count_nodes from the global API.
    fn component_stable(&self) -> bool {
        true
    }

    fn run(&self, g: &Graph, cluster: &mut Cluster) -> Result<Vec<bool>, MpcError> {
        let verdict = consecutive_path_verdict(g, cluster)?;
        Ok(vec![verdict; g.n()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::cluster_for;
    use csmpc_graph::rng::Seed;
    use csmpc_graph::{generators, ops};
    use csmpc_problems::consecutive_path::is_consecutive_id_path;

    fn verdict(g: &Graph) -> bool {
        let mut cl = cluster_for(g, Seed(0));
        consecutive_path_verdict(g, &mut cl).unwrap()
    }

    #[test]
    fn yes_on_consecutive_path() {
        assert!(verdict(&generators::consecutive_id_path(10)));
    }

    #[test]
    fn no_on_broken_endpoint() {
        assert!(!verdict(&generators::consecutive_id_path_broken(10)));
    }

    #[test]
    fn no_on_cycle_and_forest() {
        assert!(!verdict(&generators::cycle(8)));
        assert!(!verdict(&generators::random_forest(&[4, 4], Seed(1))));
    }

    #[test]
    fn matches_ground_truth_on_many_instances() {
        let mut cases: Vec<Graph> = vec![
            generators::consecutive_id_path(2),
            generators::consecutive_id_path(7),
            generators::consecutive_id_path_broken(7),
            generators::cycle(7),
            generators::star(4),
        ];
        for s in 0..10 {
            cases.push(generators::shuffle_identity(
                &generators::path(8),
                0,
                0,
                Seed(s),
            ));
            cases.push(generators::random_tree(8, Seed(s)));
        }
        // Two consecutive paths glued as separate components.
        let a = generators::consecutive_id_path(5);
        let b = ops::with_fresh_names(
            &ops::relabel_ids(&generators::path(5), |v, _| {
                csmpc_graph::NodeId(10 + v as u64)
            }),
            100,
        );
        cases.push(ops::disjoint_union(&[&a, &b]));
        for (i, g) in cases.iter().enumerate() {
            assert_eq!(
                verdict(g),
                is_consecutive_id_path(g),
                "case {i} diverged: {g}"
            );
        }
    }

    #[test]
    fn constant_rounds_across_sizes() {
        let mut rounds = Vec::new();
        for n in [16usize, 256, 4096] {
            let g = generators::consecutive_id_path(n);
            let mut cl = cluster_for(&g, Seed(0));
            let _ = consecutive_path_verdict(&g, &mut cl).unwrap();
            rounds.push(cl.stats().rounds);
        }
        assert!(rounds[2] <= rounds[0] + 3, "rounds grew with n: {rounds:?}");
    }

    #[test]
    fn algorithm_wrapper_labels_everyone() {
        let g = generators::consecutive_id_path(5);
        let mut cl = cluster_for(&g, Seed(0));
        let labels = ConsecutivePathCheck.run(&g, &mut cl).unwrap();
        assert_eq!(labels, vec![true; 5]);
    }

    #[test]
    fn descending_id_path_is_yes() {
        let g = generators::path(6);
        let rev = ops::relabel_ids(&g, |v, _| csmpc_graph::NodeId((5 - v) as u64));
        assert!(verdict(&rev));
        assert!(is_consecutive_id_path(&rev));
    }
}
