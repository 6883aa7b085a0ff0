//! Edge-labeling MPC algorithms, exercising the paper's line-graph
//! reduction (Section 2.3) with honest round accounting.

use crate::api::{MpcEdgeAlgorithm, MpcVertexAlgorithm};
use crate::extendable::simulate_extendable_mis;
use crate::sinkless::{sinkless_deterministic, sinkless_randomized};
use csmpc_graph::ops::line_graph;
use csmpc_graph::Graph;
use csmpc_mpc::{Cluster, MpcError};
use csmpc_problems::sinkless::EdgeDir;

/// Maximal matching via MIS on the line graph: the exact reduction the
/// paper uses for every edge problem. Component-stable in its simulation
/// phase; randomized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaximalMatchingMpc {
    /// Phase budget for the truncated Luby simulation (0 = auto).
    pub phases: usize,
}

impl MpcEdgeAlgorithm for MaximalMatchingMpc {
    type Label = bool;

    fn name(&self) -> &str {
        "maximal-matching-via-line-graph-mis"
    }

    fn deterministic(&self) -> bool {
        false
    }

    fn run(&self, g: &Graph, cluster: &mut Cluster) -> Result<Vec<bool>, MpcError> {
        // Line-graph conversion: one O(1)-round local reshuffle (every edge
        // record learns its endpoints' incident edges), charged as one
        // neighbor aggregation.
        let d = cluster.tree_depth();
        cluster.charge_rounds(2 * d);
        let (lg, _) = line_graph(g);
        if lg.is_empty() {
            return Ok(Vec::new());
        }
        let phases = if self.phases > 0 {
            self.phases
        } else {
            crate::extendable::ExtendableMis { phases: 0 }.phases_for(lg.n(), lg.max_degree())
        };
        let run = simulate_extendable_mis(&lg, cluster, phases)?;
        Ok(run.labels)
    }
}

/// Sinkless orientation as an MPC edge algorithm: each Moser–Tardos
/// resampling round is `O(1)` MPC rounds (conflict detection is a per-node
/// aggregation over incident edges), so the total is `O(MT rounds · 1/φ)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinklessOrientationMpc;

impl MpcEdgeAlgorithm for SinklessOrientationMpc {
    type Label = EdgeDir;

    fn name(&self) -> &str {
        "sinkless-orientation-moser-tardos"
    }

    fn deterministic(&self) -> bool {
        false
    }

    fn run(&self, g: &Graph, cluster: &mut Cluster) -> Result<Vec<EdgeDir>, MpcError> {
        let d = cluster.tree_depth();
        let run = sinkless_randomized(g, cluster.shared_seed())
            .map_err(|_| MpcError::RoundLimitExceeded { limit: 10_000 })?;
        cluster.charge_rounds((run.rounds + 1) * 2 * d);
        Ok(run.orientation)
    }
}

/// Deterministic sinkless orientation: seed search (Lemma 37's
/// derandomization stand-in) plus the winning Moser–Tardos run. The seed
/// agreement makes it component-unstable; deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeterministicSinklessMpc {
    /// Seed space searched (`2^{O(log n)}` in the paper's PRG).
    pub seed_space: u64,
}

impl MpcEdgeAlgorithm for DeterministicSinklessMpc {
    type Label = EdgeDir;

    fn name(&self) -> &str {
        "sinkless-orientation-deterministic (unstable)"
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn run(&self, g: &Graph, cluster: &mut Cluster) -> Result<Vec<EdgeDir>, MpcError> {
        let d = cluster.tree_depth();
        let (run, _seed) = sinkless_deterministic(g, self.seed_space)
            .map_err(|_| MpcError::RoundLimitExceeded { limit: 10_000 })?;
        // Seed agreement (O(1) aggregations) + the winning run's rounds.
        cluster.charge_rounds(4 * d + (run.rounds + 1) * 2 * d);
        Ok(run.orientation)
    }
}

/// A component-stable deterministic vertex algorithm: `(Δ+1)`-coloring by
/// simulating the ID-greedy LOCAL coloring within collected balls of radius
/// `r` — correct whenever every monotone ID-descending path is shorter than
/// `r` (true for random IDs w.h.p. at `r = O(log n)`; validity is always
/// *checked*, never assumed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BallGreedyColoringMpc {
    /// Ball radius to collect.
    pub radius: usize,
}

impl MpcVertexAlgorithm for BallGreedyColoringMpc {
    type Label = usize;

    fn name(&self) -> &str {
        "ball-greedy-coloring (stable, deterministic)"
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn component_stable(&self) -> bool {
        true
    }

    fn run(&self, g: &Graph, cluster: &mut Cluster) -> Result<Vec<usize>, MpcError> {
        let dg = csmpc_mpc::DistributedGraph::distribute(g, cluster)?;
        let balls = dg.collect_balls(cluster, self.radius)?;
        let mut colors = Vec::with_capacity(g.n());
        for (ball, center) in balls.iter() {
            // Greedy by ID *within the ball*: the center's color equals the
            // global greedy color when its ID-descending dependency chain
            // fits inside the ball.
            let mut order: Vec<usize> = (0..ball.n()).collect();
            order.sort_by_key(|&v| ball.id(v));
            let local = crate::coloring::greedy_coloring(ball, &order);
            colors.push(local[*center]);
        }
        Ok(colors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::roomy_cluster_for;
    use csmpc_graph::generators;
    use csmpc_graph::rng::Seed;
    use csmpc_problems::coloring::VertexColoring;
    use csmpc_problems::matching::{EdgeProblem, MaximalMatching};
    use csmpc_problems::problem::GraphProblem;
    use csmpc_problems::sinkless::SinklessOrientation;

    #[test]
    fn matching_via_line_graph_is_maximal() {
        for s in 0..5 {
            let g = generators::random_gnp(24, 0.12, Seed(s));
            if g.m() == 0 {
                continue;
            }
            let mut cl = roomy_cluster_for(&g, Seed(10 + s), 1 << 15);
            let labels = MaximalMatchingMpc { phases: 4 }.run(&g, &mut cl).unwrap();
            assert!(MaximalMatching.validate(&g, &labels).is_ok(), "seed {s}");
        }
    }

    #[test]
    fn matching_on_empty_graph() {
        let g = csmpc_graph::GraphBuilder::with_sequential_nodes(5)
            .build()
            .unwrap();
        let mut cl = roomy_cluster_for(&g, Seed(0), 1 << 12);
        let labels = MaximalMatchingMpc { phases: 2 }.run(&g, &mut cl).unwrap();
        assert!(labels.is_empty());
    }

    #[test]
    fn sinkless_mpc_valid_with_round_accounting() {
        let g = generators::random_regular(40, 4, Seed(1));
        let mut cl = roomy_cluster_for(&g, Seed(2), 1 << 12);
        let labels = SinklessOrientationMpc.run(&g, &mut cl).unwrap();
        assert!(SinklessOrientation.validate(&g, &labels).is_ok());
        assert!(cl.stats().rounds >= 2, "rounds must be charged");
    }

    #[test]
    fn deterministic_sinkless_reproducible() {
        let g = generators::random_regular(24, 4, Seed(3));
        let mut c1 = roomy_cluster_for(&g, Seed(4), 1 << 12);
        let mut c2 = roomy_cluster_for(&g, Seed(999), 1 << 12);
        let l1 = DeterministicSinklessMpc { seed_space: 32 }
            .run(&g, &mut c1)
            .unwrap();
        let l2 = DeterministicSinklessMpc { seed_space: 32 }
            .run(&g, &mut c2)
            .unwrap();
        assert_eq!(l1, l2);
        assert!(SinklessOrientation.validate(&g, &l1).is_ok());
    }

    #[test]
    fn ball_greedy_coloring_proper_when_radius_suffices() {
        // Small graphs: a radius of n covers everything, so the local
        // greedy equals the global greedy and the coloring is proper.
        for s in 0..5 {
            let g = generators::random_tree(18, Seed(s));
            let mut cl = roomy_cluster_for(&g, Seed(s), 1 << 14);
            let colors = BallGreedyColoringMpc { radius: 18 }
                .run(&g, &mut cl)
                .unwrap();
            let p = VertexColoring::delta_plus_one(&g);
            assert!(p.is_valid(&g, &colors), "seed {s}");
        }
    }

    #[test]
    fn ball_greedy_coloring_is_component_stable() {
        // csmpc-core depends on this crate, so we cannot call its verifier
        // here; instead check the Definition 13 consequence directly.
        let comp = generators::cycle(8);
        let sib_a = csmpc_graph::ops::with_fresh_names(&generators::cycle(8), 100);
        let sib_b = csmpc_graph::ops::with_fresh_names(
            &generators::shuffle_identity(&generators::cycle(8), 30, 0, Seed(1)),
            100,
        );
        let ga = csmpc_graph::ops::disjoint_union(&[&comp, &sib_a]);
        let gb = csmpc_graph::ops::disjoint_union(&[&comp, &sib_b]);
        let alg = BallGreedyColoringMpc { radius: 8 };
        let la = alg
            .run(&ga, &mut roomy_cluster_for(&ga, Seed(2), 1 << 14))
            .unwrap();
        let lb = alg
            .run(&gb, &mut roomy_cluster_for(&gb, Seed(2), 1 << 14))
            .unwrap();
        assert_eq!(&la[..8], &lb[..8]);
    }
}
