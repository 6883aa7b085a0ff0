//! Success-probability amplification — the paper's canonical
//! **component-unstable** technique (Theorem 5, Lemma 55, Theorem 29).
//!
//! `Θ(log n)` independent repetitions of a basic randomized algorithm run in
//! parallel on disjoint machine groups; the globally best repetition is
//! selected and broadcast. Selection depends on outcomes in *all*
//! components simultaneously, which is exactly why the resulting algorithm
//! is not component-stable.

use crate::api::MpcVertexAlgorithm;
use crate::luby::luby_step;
use csmpc_graph::Graph;
use csmpc_mpc::{Cluster, DistributedGraph, MpcError};

/// Result of an amplification run.
#[derive(Debug, Clone, PartialEq)]
pub struct Amplified<L> {
    /// Labels of the winning repetition.
    pub labels: Vec<L>,
    /// Index of the winning repetition.
    pub winner: usize,
    /// Score of every repetition (higher is better).
    pub scores: Vec<f64>,
}

/// Runs `repetitions` parallel repetitions and picks the best by `score`.
///
/// Round accounting is the caller's job (all repetitions run concurrently
/// on disjoint machines, so the parallel cost is one repetition's cost plus
/// one aggregation and one broadcast).
pub fn amplify<L: Clone>(
    repetitions: usize,
    mut run_rep: impl FnMut(usize) -> Vec<L>,
    mut score: impl FnMut(&[L]) -> f64,
) -> Amplified<L> {
    assert!(repetitions > 0, "need at least one repetition");
    let mut best: Option<(usize, Vec<L>, f64)> = None;
    let mut scores = Vec::with_capacity(repetitions);
    for rep in 0..repetitions {
        let labels = run_rep(rep);
        let s = score(&labels);
        scores.push(s);
        let better = match &best {
            None => true,
            Some((_, _, bs)) => s > *bs,
        };
        if better {
            best = Some((rep, labels, s));
        }
    }
    let (winner, labels, _) = best.expect("repetitions > 0");
    Amplified {
        labels,
        winner,
        scores,
    }
}

/// The `O(1)`-round **component-unstable randomized** algorithm of
/// Theorem 5: `Θ(log n)` parallel Luby steps, keep the largest independent
/// set.
///
/// Per-repetition randomness is keyed by node *name* and repetition index —
/// perfectly legitimate for an unstable algorithm — and the global argmax
/// over repetitions is the unstable step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmplifiedLargeIs {
    /// Number of parallel repetitions (`Θ(log n)`; pass 0 to auto-select
    /// `⌈4·log₂ n⌉`).
    pub repetitions: usize,
}

impl AmplifiedLargeIs {
    /// The repetition count actually used on an `n`-node input.
    #[must_use]
    pub fn repetitions_for(&self, n: usize) -> usize {
        if self.repetitions > 0 {
            self.repetitions
        } else {
            (4.0 * (n.max(2) as f64).log2()).ceil() as usize
        }
    }
}

impl MpcVertexAlgorithm for AmplifiedLargeIs {
    type Label = bool;

    fn name(&self) -> &str {
        "amplified-large-is (unstable, randomized)"
    }

    fn deterministic(&self) -> bool {
        false
    }

    // Explicit: the global winner selection (select_best_global) makes the
    // amplified algorithm component-unstable (Theorem 5's canonical step).
    fn component_stable(&self) -> bool {
        false
    }

    fn run(&self, g: &Graph, cluster: &mut Cluster) -> Result<Vec<bool>, MpcError> {
        let dg = DistributedGraph::distribute(g, cluster)?;
        let d = cluster.tree_depth();
        let reps = self.repetitions_for(g.n());
        let seed = cluster.shared_seed();
        let candidates: Vec<Vec<bool>> = (0..reps)
            .map(|rep| {
                let rep_seed = seed.derive(0xa3b0).derive(rep as u64);
                let chi: Vec<f64> = (0..g.n())
                    .map(|v| csmpc_graph::rng::SplitMix64::new(rep_seed.derive(g.name(v).0)).f64())
                    .collect();
                luby_step(g, &chi)
            })
            .collect();
        // Parallel cost: one Luby step across all repetitions at once
        // (2d: neighbor-min). The global winner selection (per-rep size
        // aggregation + argmax + winner broadcast, 3d) is the accounted —
        // and provenance-tracked — unstable step.
        cluster.advance_rounds(2 * d)?;
        let (winner, labels, scores) = dg.select_best_global(cluster, &candidates, |labels| {
            labels.iter().filter(|&&b| b).count() as f64
        })?;
        let _ = (winner, scores);
        Ok(labels)
    }
}

/// The **component-stable randomized** counterpart: a single Luby step with
/// ID-keyed randomness, simulated through 1-ball collection. Output at `v`
/// is a deterministic function of `(CC(v), v, n, Δ, S)` — stable — but the
/// size guarantee only holds in expectation, not w.h.p.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StableOneShotIs;

impl MpcVertexAlgorithm for StableOneShotIs {
    type Label = bool;

    fn name(&self) -> &str {
        "one-shot-luby-is (stable, randomized)"
    }

    fn deterministic(&self) -> bool {
        false
    }

    fn component_stable(&self) -> bool {
        true
    }

    fn run(&self, g: &Graph, cluster: &mut Cluster) -> Result<Vec<bool>, MpcError> {
        let dg = DistributedGraph::distribute(g, cluster)?;
        let seed = cluster.shared_seed();
        let chi: Vec<f64> = (0..g.n())
            .map(|v| csmpc_graph::rng::SplitMix64::new(seed.derive(g.id(v).0)).f64())
            .collect();
        let mins = dg.neighbor_reduce(cluster, &chi, f64::min)?;
        Ok((0..g.n())
            .map(|v| match mins[v] {
                Some(m) => chi[v] < m,
                None => true, // isolated nodes always join
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::cluster_for;
    use csmpc_graph::rng::Seed;
    use csmpc_graph::{generators, ops};
    use csmpc_problems::mis::{is_independent_set, set_size};

    #[test]
    fn amplify_picks_max() {
        let out = amplify(5, |rep| vec![rep], |labels| labels[0] as f64);
        assert_eq!(out.winner, 4);
        assert_eq!(out.scores.len(), 5);
    }

    #[test]
    fn amplified_is_large_whp() {
        // On a cycle (Δ = 2) the threshold n/(4Δ+1) is comfortably beaten
        // by the best of Θ(log n) repetitions for every seed we try.
        let g = generators::cycle(120);
        let alg = AmplifiedLargeIs { repetitions: 0 };
        for s in 0..20 {
            let mut cl = cluster_for(&g, Seed(s));
            let labels = alg.run(&g, &mut cl).unwrap();
            assert!(is_independent_set(&g, &labels));
            assert!(
                set_size(&labels) >= 120 / 9,
                "seed {s}: size {} too small",
                set_size(&labels)
            );
        }
    }

    #[test]
    fn amplified_runs_in_constant_rounds() {
        // Round count must not grow with n.
        let mut counts = Vec::new();
        for n in [64usize, 256, 1024] {
            let g = generators::cycle(n);
            let mut cl = cluster_for(&g, Seed(1));
            let _ = AmplifiedLargeIs { repetitions: 0 }
                .run(&g, &mut cl)
                .unwrap();
            counts.push(cl.stats().rounds);
        }
        // Rounds scale with the O(1/φ) tree depth, never with n itself:
        // n = 256 and n = 1024 share a tree depth, so counts must agree.
        assert_eq!(counts[1], counts[2], "rounds grew with n: {counts:?}");
        assert!(counts[2] <= counts[0] + 8, "rounds exploded: {counts:?}");
    }

    #[test]
    fn stable_one_shot_is_independent() {
        for s in 0..10 {
            let g = generators::random_gnp(60, 0.1, Seed(s));
            let mut cl = cluster_for(&g, Seed(1000 + s));
            let labels = StableOneShotIs.run(&g, &mut cl).unwrap();
            assert!(is_independent_set(&g, &labels));
        }
    }

    #[test]
    fn stable_algorithm_is_componentwise_reproducible() {
        // The stable algorithm's output on a component must not change when
        // an unrelated component is swapped (same n, Δ, seed).
        let comp = generators::cycle(12);
        let other_a = ops::with_fresh_names(&generators::cycle(12), 500);
        let other_b = ops::with_fresh_names(
            &ops::relabel_ids(&generators::cycle(12), |_, id| {
                csmpc_graph::NodeId(id.0 + 40)
            }),
            500,
        );
        let ga = ops::disjoint_union(&[&comp, &other_a]);
        let gb = ops::disjoint_union(&[&comp, &other_b]);
        let mut ca = cluster_for(&ga, Seed(5));
        let mut cb = cluster_for(&gb, Seed(5));
        let la = StableOneShotIs.run(&ga, &mut ca).unwrap();
        let lb = StableOneShotIs.run(&gb, &mut cb).unwrap();
        assert_eq!(&la[..12], &lb[..12], "stable algorithm changed output");
    }

    #[test]
    fn amplified_algorithm_is_component_unstable() {
        // Changing the *other* component changes which repetition wins, and
        // thereby the output on the unchanged component — instability.
        // Same n and Δ, same names on the other component, but different
        // topology (one 12-cycle vs two 6-cycles): per-repetition global
        // scores change, so the winning repetition — and hence the output on
        // the *unchanged* component — can change.
        let comp = generators::cycle(12);
        let other_a = ops::with_fresh_names(&generators::cycle(12), 500);
        let other_b = ops::with_fresh_names(&generators::two_cycles(12), 500);
        let ga = ops::disjoint_union(&[&comp, &other_a]);
        let gb = ops::disjoint_union(&[&comp, &other_b]);
        let mut witnessed = false;
        for s in 0..30u64 {
            let alg = AmplifiedLargeIs { repetitions: 8 };
            let mut ca = cluster_for(&ga, Seed(s));
            let mut cb = cluster_for(&gb, Seed(s));
            let la = alg.run(&ga, &mut ca).unwrap();
            let lb = alg.run(&gb, &mut cb).unwrap();
            if la[..12] != lb[..12] {
                witnessed = true;
                break;
            }
        }
        assert!(witnessed, "no instability witness found in 30 seeds");
    }
}
