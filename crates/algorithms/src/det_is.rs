//! The **deterministic `O(1)`-round component-unstable** large-IS algorithm
//! of Claim 52 / Theorem 53: a single Luby step executed with a *pairwise
//! independent* hash family and derandomized by the method of conditional
//! expectations.
//!
//! With `h_{a,b}(x) = a·x + b (mod p)` and threshold `T ≈ p/(2Δ)`, node `v`
//! joins when `h(v) < T` and every neighbor hashes `≥ T`; Claim 52 gives
//! `E[|IS|] ≥ n/(4Δ+1)`-ish under pairwise independence. The crucial
//! structural gift of this family is that for a *fixed* `a`, varying `b`
//! shifts every node's hash by the same cyclic offset — so the conditional
//! expectation `E_b[|IS| | a]` is an exact cyclic-interval count, and both
//! seed coordinates can be fixed by exhaustive minimization over `Z_p`
//! (`Θ(log n)` seed bits total, fixed at `Θ(log n)` bits per MPC round,
//! exactly the paper's schedule).

use crate::api::MpcVertexAlgorithm;
use csmpc_derand::field::next_prime;
use csmpc_derand::intervals::{count_difference, CyclicInterval};
use csmpc_derand::mce::ConditionalExpectation;
use csmpc_graph::Graph;
use csmpc_mpc::{Cluster, DistributedGraph, MpcError};

/// Parameters of the pairwise Luby step on a concrete graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairwiseLuby {
    /// Prime modulus `p ≥ n`.
    pub p: u64,
    /// Join threshold `T` (`h(v) < T` required).
    pub t: u64,
}

impl PairwiseLuby {
    /// Instance for a graph: `p` = smallest prime ≥ `max(n, 3)`,
    /// `T = max(1, ⌊p/(2Δ)⌋)`.
    #[must_use]
    pub fn for_graph(g: &Graph) -> Self {
        let p = next_prime(g.n().max(3) as u64);
        let delta = g.max_degree().max(1) as u64;
        PairwiseLuby {
            p,
            t: (p / (2 * delta)).max(1),
        }
    }

    /// Hash of node index `x` under seed `(a, b)`.
    #[must_use]
    pub fn hash(&self, a: u64, b: u64, x: u64) -> u64 {
        (csmpc_derand::field::mul_mod(a, x, self.p) + b) % self.p
    }

    /// The set the step selects under seed `(a, b)`: `v` joins iff
    /// `h(v) < T` and all neighbors hash `≥ T`. Always independent.
    #[must_use]
    pub fn select(&self, g: &Graph, a: u64, b: u64) -> Vec<bool> {
        let h: Vec<u64> = (0..g.n()).map(|v| self.hash(a, b, v as u64)).collect();
        (0..g.n())
            .map(|v| h[v] < self.t && g.neighbors(v).iter().all(|&w| h[w as usize] >= self.t))
            .collect()
    }

    /// Exact `E_b[|IS|]` for a fixed `a`, via cyclic-interval counting:
    /// node `v` joins for `b ∈ I_v \ ∪_{u∈N(v)} I_u`, where
    /// `I_x = {b : (a·x + b) mod p < T}`.
    #[must_use]
    pub fn expected_size_given_a(&self, g: &Graph, a: u64) -> f64 {
        let c: Vec<u64> = (0..g.n())
            .map(|v| csmpc_derand::field::mul_mod(a, v as u64, self.p))
            .collect();
        let mut total = 0u64;
        for v in 0..g.n() {
            let base = CyclicInterval::shift_preimage(c[v], self.t, self.p);
            let cuts: Vec<CyclicInterval> = g
                .neighbors(v)
                .iter()
                .map(|&w| CyclicInterval::shift_preimage(c[w as usize], self.t, self.p))
                .collect();
            total += count_difference(base, &cuts);
        }
        total as f64 / self.p as f64
    }

    /// The pairwise-independence expectation lower bound of Claim 52:
    /// `n · (T/p) · (1 − Δ·T/p)`.
    #[must_use]
    pub fn claim52_lower_bound(&self, g: &Graph) -> f64 {
        let tp = self.t as f64 / self.p as f64;
        let delta = g.max_degree().max(1) as f64;
        g.n() as f64 * tp * (1.0 - delta * tp)
    }
}

/// Outcome of the derandomization, exposing the seed and the expectations
/// for experiment reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct DerandomizedIsRun {
    /// Chosen labels (independent set membership).
    pub labels: Vec<bool>,
    /// Fixed seed `(a, b)`.
    pub seed: (u64, u64),
    /// Unconditional expectation `E_{a,b}[|IS|]`.
    pub prior_expectation: f64,
    /// Achieved set size (guaranteed `≥ prior_expectation` up to floor).
    pub achieved: usize,
    /// MPC rounds charged for the conditional-expectation schedule.
    pub mce_rounds: usize,
}

/// Runs the full derandomized step (no cluster accounting).
#[must_use]
pub fn derandomized_is(g: &Graph) -> DerandomizedIsRun {
    let inst = PairwiseLuby::for_graph(g);
    // Cache E_b[|IS|] per a on first use; the MCE driver probes every a.
    let mut per_a: Vec<Option<f64>> = vec![None; inst.p as usize];
    let mut mean_cache: Option<f64> = None;
    let bits_per_round = (usize::BITS - g.n().max(2).leading_zeros()).max(1);
    let driver = ConditionalExpectation::uniform(2, inst.p, bits_per_round);
    let fixed = driver.run(|prefix| match prefix.len() {
        0 => {
            let mean = *mean_cache.get_or_insert_with(|| {
                let mut acc = 0.0;
                for a in 0..inst.p {
                    let e = inst.expected_size_given_a(g, a);
                    per_a[a as usize] = Some(e);
                    acc += e;
                }
                acc / inst.p as f64
            });
            -mean
        }
        1 => {
            let a = prefix[0];
            let e = per_a[a as usize].get_or_insert_with(|| inst.expected_size_given_a(g, a));
            -*e
        }
        _ => {
            let (a, b) = (prefix[0], prefix[1]);
            -(inst.select(g, a, b).iter().filter(|&&x| x).count() as f64)
        }
    });
    let (a, b) = (fixed.values[0], fixed.values[1]);
    let labels = inst.select(g, a, b);
    DerandomizedIsRun {
        achieved: labels.iter().filter(|&&x| x).count(),
        labels,
        seed: (a, b),
        prior_expectation: -fixed.prior_cost,
        mce_rounds: fixed.mpc_rounds,
    }
}

/// The Theorem 53 algorithm as an MPC algorithm: deterministic,
/// component-unstable (the seed fixing is a global agreement), `O(1)`
/// rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DerandomizedLargeIs;

impl MpcVertexAlgorithm for DerandomizedLargeIs {
    type Label = bool;

    fn name(&self) -> &str {
        "derandomized-large-is (unstable, deterministic)"
    }

    fn deterministic(&self) -> bool {
        true
    }

    // Explicit: fixing the MCE seed is a global agreement across all
    // components, so the derandomized algorithm is component-unstable.
    fn component_stable(&self) -> bool {
        false
    }

    fn run(&self, g: &Graph, cluster: &mut Cluster) -> Result<Vec<bool>, MpcError> {
        let dg = DistributedGraph::distribute(g, cluster)?;
        let d = cluster.tree_depth();
        if g.n() == 0 {
            return Ok(Vec::new());
        }
        let run = derandomized_is(g);
        // Name-rank computation (sort, 2d) + each MCE fixing round is an
        // aggregation + broadcast (2d each).
        cluster.charge_rounds(2 * d + run.mce_rounds * 2 * d);
        let _ = &dg;
        Ok(run.labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::cluster_for;
    use csmpc_graph::rng::Seed;
    use csmpc_graph::{generators, Graph};
    use csmpc_problems::mis::is_independent_set;

    #[test]
    fn selection_always_independent() {
        let g = generators::random_gnp(40, 0.2, Seed(1));
        let inst = PairwiseLuby::for_graph(&g);
        for a in 0..10 {
            for b in 0..10 {
                assert!(is_independent_set(&g, &inst.select(&g, a, b)));
            }
        }
    }

    #[test]
    fn interval_expectation_matches_enumeration() {
        let g = generators::random_gnp(12, 0.3, Seed(2));
        let inst = PairwiseLuby::for_graph(&g);
        for a in [0u64, 1, 5, 7] {
            let analytic = inst.expected_size_given_a(&g, a);
            let brute: f64 = (0..inst.p)
                .map(|b| inst.select(&g, a, b).iter().filter(|&&x| x).count() as f64)
                .sum::<f64>()
                / inst.p as f64;
            assert!(
                (analytic - brute).abs() < 1e-9,
                "a={a}: analytic {analytic} vs brute {brute}"
            );
        }
    }

    #[test]
    fn mean_over_family_meets_claim52() {
        // E_{a,b}[|IS|] >= n·(T/p)·(1 − Δ·T/p): verify on several graphs.
        for s in 0..5 {
            let g = generators::random_regular(20, 4, Seed(s));
            let inst = PairwiseLuby::for_graph(&g);
            let mean: f64 = (0..inst.p)
                .map(|a| inst.expected_size_given_a(&g, a))
                .sum::<f64>()
                / inst.p as f64;
            let bound = inst.claim52_lower_bound(&g);
            assert!(
                mean + 1e-9 >= bound,
                "seed {s}: mean {mean} below Claim 52 bound {bound}"
            );
        }
    }

    #[test]
    fn derandomized_beats_expectation() {
        for s in 0..5 {
            let g = generators::random_gnp(30, 0.15, Seed(10 + s));
            let run = derandomized_is(&g);
            assert!(
                run.achieved as f64 + 1e-9 >= run.prior_expectation,
                "seed {s}: achieved {} below expectation {}",
                run.achieved,
                run.prior_expectation
            );
            assert!(is_independent_set(&g, &run.labels));
        }
    }

    #[test]
    fn theorem53_size_guarantee_on_cycles() {
        // On a cycle Δ = 2: guarantee ≈ n/8 ≥ n/(4Δ+1) = n/9.
        let g = generators::cycle(90);
        let run = derandomized_is(&g);
        assert!(
            run.achieved >= 90 / 9,
            "size {} below n/(4Δ+1) = 10",
            run.achieved
        );
    }

    #[test]
    fn fully_deterministic() {
        let g = generators::random_gnp(25, 0.2, Seed(3));
        let a = derandomized_is(&g);
        let b = derandomized_is(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn constant_mpc_rounds() {
        let mut counts = Vec::new();
        for n in [32usize, 128, 512] {
            let g = generators::cycle(n);
            let mut cl = cluster_for(&g, Seed(0));
            let _ = DerandomizedLargeIs.run(&g, &mut cl).unwrap();
            counts.push(cl.stats().rounds);
        }
        assert!(counts[2] <= counts[0] + 8, "rounds grew with n: {counts:?}");
    }

    #[test]
    fn star_graph_edge_case() {
        // Star: Δ = n−1, threshold T = max(1, p/(2Δ)) — tiny but positive.
        let g = generators::star(10);
        let run = derandomized_is(&g);
        assert!(is_independent_set(&g, &run.labels));
    }

    #[test]
    fn empty_and_single() {
        let g0 = Graph::empty();
        let mut cl = cluster_for(&g0, Seed(0));
        assert!(DerandomizedLargeIs.run(&g0, &mut cl).unwrap().is_empty());
    }
}
