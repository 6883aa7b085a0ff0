//! Extendable algorithms and their `O(log t)`-round MPC simulation
//! (Section 4.3, Definition 44, Theorems 45–46).
//!
//! An *extendable* algorithm may leave nodes undecided (`⊥`) as long as any
//! valid completion of the undecided part extends the decided part to a
//! full solution, and it leaves fewer than half a node undecided in
//! expectation. Such a `t`-round LOCAL algorithm is simulated in MPC by
//! collecting `2t`-radius balls (graph exponentiation, `O(log t)` rounds)
//! and evaluating locally; derandomization fixes a shared seed — for the
//! randomized side by direct use of the shared seed, for the deterministic
//! side by the PRG-style exhaustive seed search of Lemma 35 over an
//! `O(log n)`-bit seed space.

use crate::api::MpcVertexAlgorithm;
use crate::luby::{extend_partial_mis, MisStatus, TruncatedLubyMis};
use csmpc_derand::mce::find_good_seed;
use csmpc_graph::rng::Seed;
use csmpc_graph::Graph;
use csmpc_local::LocalParams;
use csmpc_mpc::{Cluster, DistributedGraph, MpcError};

/// Result of one extendable-simulation pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtendableRun {
    /// Final MIS labels after extension of the residual undecided graph.
    pub labels: Vec<bool>,
    /// Number of nodes left `⊥` by the truncated simulation (before the
    /// final residual extension).
    pub undecided: usize,
    /// Phase budget `t` used.
    pub phases: usize,
}

/// Simulates the truncated Luby MIS (an extendable algorithm in the sense
/// of Definition 44) on `g` through MPC ball collection, then completes the
/// `⊥` residue. Randomness comes from `params.shared_seed`.
///
/// Rounds charged: ball collection `O(log t)·O(1/φ)` plus `O(1)` for the
/// residual handling.
///
/// # Errors
///
/// Space violations when `Δ^{2t}`-size balls no longer fit in a machine —
/// the exact side condition of Theorems 45–46.
pub fn simulate_extendable_mis(
    g: &Graph,
    cluster: &mut Cluster,
    phases: usize,
) -> Result<ExtendableRun, MpcError> {
    let dg = DistributedGraph::distribute(g, cluster)?;
    let alg = TruncatedLubyMis { phases };
    let params = LocalParams::exact(g.n(), g.max_degree(), cluster.shared_seed());
    let radius = 2 * phases;
    let balls = dg.collect_balls(cluster, radius)?;
    let status: Vec<MisStatus> = balls
        .iter()
        .map(|(ball, center)| alg.statuses(ball, &params)[*center])
        .collect();
    let undecided = status
        .iter()
        .filter(|&&s| s == MisStatus::Undecided)
        .count();
    // Residual completion: the undecided-induced subgraph is extended; the
    // paper re-runs the algorithm O(1) times — after the phase budget the
    // residue is tiny, and completing it greedily inside machines is O(1)
    // rounds once each residual component fits a machine (charged as one
    // more primitive).
    cluster.charge_rounds(2);
    let labels = extend_partial_mis(g, &status);
    Ok(ExtendableRun {
        labels,
        undecided,
        phases,
    })
}

/// The Theorem 46-style MIS algorithm: component-stable in its simulation
/// phase (ball evaluation keyed by IDs), `O(log t)` MPC rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtendableMis {
    /// Phase budget `t` (`O(log Δ + polyloglog n)` in the paper; pass 0 to
    /// auto-select `⌈log₂(Δ+2)⌉ + ⌈log₂ log₂(n+3)⌉ + 2`).
    pub phases: usize,
}

impl ExtendableMis {
    /// The phase budget actually used on an `(n, Δ)` input.
    #[must_use]
    pub fn phases_for(&self, n: usize, delta: usize) -> usize {
        if self.phases > 0 {
            self.phases
        } else {
            let a = ((delta + 2) as f64).log2().ceil() as usize;
            let b = (((n + 3) as f64).log2().max(2.0)).log2().ceil() as usize;
            a + b + 2
        }
    }
}

impl MpcVertexAlgorithm for ExtendableMis {
    type Label = bool;

    fn name(&self) -> &str {
        "extendable-luby-mis (simulated, randomized)"
    }

    fn deterministic(&self) -> bool {
        false
    }

    // Stable: the truncated-Luby simulation reads only radius-2t balls
    // (collect_balls), so the label at v is a function of its own
    // component — the canonical ball-simulation stability argument.
    fn component_stable(&self) -> bool {
        true
    }

    fn run(&self, g: &Graph, cluster: &mut Cluster) -> Result<Vec<bool>, MpcError> {
        let t = self.phases_for(g.n(), g.max_degree());
        Ok(simulate_extendable_mis(g, cluster, t)?.labels)
    }
}

/// Outcome of the deterministic seed-fixed simulation (Theorem 45's
/// derandomization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicExtendableRun {
    /// Final labels.
    pub labels: Vec<bool>,
    /// The fixed seed index in `0..seed_space`.
    pub seed_index: u64,
    /// How many seeds in the space leave zero nodes undecided.
    pub good_seeds: u64,
    /// The seed-space size searched (`2^{O(log n)}` in the paper's PRG).
    pub seed_space: u64,
}

/// Derandomizes the extendable simulation by exhaustive search over a
/// `seed_space`-sized PRG seed space (Lemma 35's brute force at laptop
/// scale): picks the first seed whose truncated run leaves **zero** nodes
/// undecided, falling back to the seed minimizing the undecided count.
///
/// The search is a global agreement on one seed — the component-*unstable*
/// ingredient of Theorem 45's MPC implementation.
///
/// # Errors
///
/// Space violations from ball collection.
pub fn deterministic_extendable_mis(
    g: &Graph,
    cluster: &mut Cluster,
    phases: usize,
    seed_space: u64,
) -> Result<DeterministicExtendableRun, MpcError> {
    let dg = DistributedGraph::distribute(g, cluster)?;
    let alg = TruncatedLubyMis { phases };
    let radius = 2 * phases;
    let balls = dg.collect_balls(cluster, radius)?;
    let undecided_for = |s: u64| -> usize {
        let params = LocalParams::exact(g.n(), g.max_degree(), Seed(s).derive(0xe7e7));
        balls
            .iter()
            .filter(|(ball, center)| alg.statuses(ball, &params)[*center] == MisStatus::Undecided)
            .count()
    };
    let (first, good) = find_good_seed(seed_space, |s| undecided_for(s) == 0);
    let seed_index = match first {
        Some(s) => s,
        None => {
            // Fall back to the minimizer (still a valid extendable output).
            (0..seed_space)
                .min_by_key(|&s| undecided_for(s))
                .unwrap_or(0)
        }
    };
    // Seed agreement: the method of conditional expectations / seed search
    // fixes O(log n) bits at Θ(log n) bits per round → O(1) charged rounds,
    // each an aggregation + broadcast.
    let d = cluster.tree_depth();
    cluster.charge_rounds(4 * d);
    let params = LocalParams::exact(g.n(), g.max_degree(), Seed(seed_index).derive(0xe7e7));
    let status: Vec<MisStatus> = balls
        .iter()
        .map(|(ball, center)| alg.statuses(ball, &params)[*center])
        .collect();
    let labels = extend_partial_mis(g, &status);
    Ok(DeterministicExtendableRun {
        labels,
        seed_index,
        good_seeds: good,
        seed_space,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{cluster_for, roomy_cluster_for};
    use csmpc_graph::generators;
    use csmpc_problems::mis::Mis;
    use csmpc_problems::problem::GraphProblem;

    #[test]
    fn simulation_produces_valid_mis() {
        let g = generators::random_gnp(48, 0.08, Seed(1));
        let mut cl = roomy_cluster_for(&g, Seed(2), 4096);
        let run = simulate_extendable_mis(&g, &mut cl, 3).unwrap();
        assert!(Mis.is_valid(&g, &run.labels));
    }

    #[test]
    fn more_phases_fewer_undecided() {
        let g = generators::random_gnp(120, 0.04, Seed(3));
        let mut u = Vec::new();
        for t in [1usize, 3, 6] {
            let mut cl = roomy_cluster_for(&g, Seed(4), 1 << 14);
            u.push(simulate_extendable_mis(&g, &mut cl, t).unwrap().undecided);
        }
        assert!(
            u[2] <= u[1] && u[1] <= u[0],
            "undecided not shrinking: {u:?}"
        );
    }

    #[test]
    fn mpc_rounds_logarithmic_in_phases() {
        // Round cost grows like log t, not t.
        let g = generators::cycle(200);
        let rounds_for = |t: usize| {
            let mut cl = roomy_cluster_for(&g, Seed(5), 1 << 12);
            let _ = simulate_extendable_mis(&g, &mut cl, t).unwrap();
            cl.stats().rounds
        };
        let r2 = rounds_for(2);
        let r16 = rounds_for(16);
        assert!(
            r16 <= r2 + 4 * 8,
            "r(16)={r16} too large vs r(2)={r2} for O(log t) growth"
        );
    }

    #[test]
    fn ball_space_violation_on_dense_graphs() {
        // Δ^{2t} exceeding machine space must be *detected*, not silently
        // simulated — the Theorems 45/46 side condition.
        let g = generators::random_regular(300, 8, Seed(6));
        let mut cl = cluster_for(&g, Seed(6));
        let err = simulate_extendable_mis(&g, &mut cl, 6).unwrap_err();
        assert!(matches!(err, MpcError::SpaceExceeded { .. }));
    }

    #[test]
    fn auto_phase_budget_reasonable() {
        let alg = ExtendableMis { phases: 0 };
        let t = alg.phases_for(1_000_000, 8);
        assert!((5..=16).contains(&t), "budget {t} out of expected band");
    }

    #[test]
    fn deterministic_run_is_reproducible_and_valid() {
        let g = generators::random_gnp(40, 0.08, Seed(7));
        let mut c1 = roomy_cluster_for(&g, Seed(8), 4096);
        let mut c2 = roomy_cluster_for(&g, Seed(999), 4096); // cluster seed must not matter
        let r1 = deterministic_extendable_mis(&g, &mut c1, 4, 32).unwrap();
        let r2 = deterministic_extendable_mis(&g, &mut c2, 4, 32).unwrap();
        assert_eq!(r1, r2, "deterministic algorithm must ignore the seed");
        assert!(Mis.is_valid(&g, &r1.labels));
    }

    #[test]
    fn seed_search_finds_zero_undecided_seed() {
        // With a generous phase budget most seeds fully decide the graph;
        // the search should find one.
        let g = generators::random_gnp(40, 0.08, Seed(9));
        let mut cl = roomy_cluster_for(&g, Seed(10), 1 << 14);
        let run = deterministic_extendable_mis(&g, &mut cl, 8, 16).unwrap();
        assert!(run.good_seeds > 0, "no good seed in a space of 16");
    }
}
