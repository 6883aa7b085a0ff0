//! Ball-collection semantics of the LOCAL model.
//!
//! A `T`-round LOCAL algorithm's output at a node is a function of the
//! node's `T`-radius ball (topology, IDs, shared seed, global parameters) —
//! this is the *definition* of LOCAL complexity used in all indistinguish-
//! ability arguments, and the semantics the paper's Lemma 25 simulates from
//! inside MPC. This module evaluates algorithms expressed directly in that
//! form, which is also how MPC simulates LOCAL after graph exponentiation.

use crate::params::LocalParams;
use csmpc_graph::ball::with_thread_workspace;
use csmpc_graph::Graph;
use csmpc_parallel::{par_map_range, ParallelismMode};

/// A LOCAL algorithm in ball form: output at a node is computed from its
/// `radius()`-ball.
pub trait BallAlgorithm {
    /// Final per-node output.
    type Output: Clone;

    /// The locality radius `T(N, Δ)` given the global parameters.
    fn radius(&self, params: &LocalParams) -> usize;

    /// Computes the output of the ball's center. `ball` is the induced
    /// subgraph on nodes within distance `radius()` of the center; IDs are
    /// preserved, names must not be used (a LOCAL node cannot see names).
    fn evaluate(&self, ball: &Graph, center: usize, params: &LocalParams) -> Self::Output;
}

/// Runs a [`BallAlgorithm`] on every node of `g`, returning per-node outputs.
///
/// The cost of the corresponding LOCAL execution is `radius()` rounds; the
/// engine in [`crate::engine`] can be used when adaptive halting matters.
///
/// Evaluates with [`ParallelismMode::default`]; use
/// [`run_ball_algorithm_with_mode`] to force a mode. Results are identical
/// either way: each node's output depends only on its own ball.
pub fn run_ball_algorithm<A: BallAlgorithm + Sync>(
    g: &Graph,
    alg: &A,
    params: &LocalParams,
) -> Vec<A::Output>
where
    A::Output: Send,
{
    run_ball_algorithm_with_mode(g, alg, params, ParallelismMode::default())
}

/// [`run_ball_algorithm`] with an explicit [`ParallelismMode`].
///
/// The per-node evaluation is a pure map — ball extraction and evaluation
/// read only the shared graph — so both modes produce bit-identical output
/// vectors (index `v` always holds node `v`'s output).
pub fn run_ball_algorithm_with_mode<A: BallAlgorithm + Sync>(
    g: &Graph,
    alg: &A,
    params: &LocalParams,
    mode: ParallelismMode,
) -> Vec<A::Output>
where
    A::Output: Send,
{
    let r = alg.radius(params);
    // Each worker thread extracts balls through its reusable flat
    // workspace over the graph's CSR spine (no per-node map allocations).
    par_map_range(mode, g.n(), |v| {
        // csmpc-allow(par-closure-race): the workspace is thread_local! — each worker mutates only its own RefCell, never shared state
        let (b, c) = with_thread_workspace(|ws| {
            let (b, c, _) = ws.ball(g, v, r);
            (b, c)
        });
        alg.evaluate(&b, c, params)
    })
}

/// Verifies that an algorithm really is `r`-local: evaluating it on the
/// `r`-ball and on any larger ball gives the same answer.
///
/// Returns the indices of nodes where outputs differ (empty = consistent).
pub fn locality_violations<A: BallAlgorithm + Sync>(
    g: &Graph,
    alg: &A,
    params: &LocalParams,
    extra: usize,
) -> Vec<usize>
where
    A::Output: PartialEq,
{
    let r = alg.radius(params);
    let mode = ParallelismMode::default();
    // Per-node check is pure; collect the verdicts in index order, then
    // filter sequentially so violation indices come out sorted. Both ball
    // extractions share the worker thread's flat workspace.
    let differs: Vec<bool> = par_map_range(mode, g.n(), |v| {
        // csmpc-allow(par-closure-race): the workspace is thread_local! — each worker mutates only its own RefCell, never shared state
        with_thread_workspace(|ws| {
            let (b1, c1, _) = ws.ball(g, v, r);
            let (b2, c2, _) = ws.ball(g, v, r + extra);
            alg.evaluate(&b1, c1, params) != alg.evaluate(&b2, c2, params)
        })
    });
    differs
        .into_iter()
        .enumerate()
        .filter_map(|(v, bad)| bad.then_some(v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmpc_graph::generators;
    use csmpc_graph::rng::Seed;

    /// Outputs the number of nodes within distance r (r = 2 here).
    struct BallSize;

    impl BallAlgorithm for BallSize {
        type Output = usize;
        fn radius(&self, _p: &LocalParams) -> usize {
            2
        }
        fn evaluate(&self, ball: &Graph, _center: usize, _p: &LocalParams) -> usize {
            ball.n()
        }
    }

    #[test]
    fn ball_size_on_cycle() {
        let g = generators::cycle(10);
        let params = LocalParams::exact(10, 2, Seed(0));
        let out = run_ball_algorithm(&g, &BallSize, &params);
        assert!(out.iter().all(|&x| x == 5)); // 2 on each side + self
    }

    #[test]
    fn ball_size_on_path_boundary() {
        let g = generators::path(10);
        let params = LocalParams::exact(10, 2, Seed(0));
        let out = run_ball_algorithm(&g, &BallSize, &params);
        assert_eq!(out[0], 3);
        assert_eq!(out[5], 5);
    }

    /// Not actually local: reads the whole ball it is given.
    struct CheatingAlgorithm;

    impl BallAlgorithm for CheatingAlgorithm {
        type Output = usize;
        fn radius(&self, _p: &LocalParams) -> usize {
            1
        }
        fn evaluate(&self, ball: &Graph, _center: usize, _p: &LocalParams) -> usize {
            ball.n() // depends on how big a ball we are handed
        }
    }

    #[test]
    fn locality_violation_detected() {
        let g = generators::path(8);
        let params = LocalParams::exact(8, 2, Seed(0));
        let bad = locality_violations(&g, &CheatingAlgorithm, &params, 2);
        assert!(!bad.is_empty());
    }

    #[test]
    fn genuine_algorithm_passes_locality_check() {
        // min ID within radius 2 is genuinely 2-local.
        struct MinId2;
        impl BallAlgorithm for MinId2 {
            type Output = u64;
            fn radius(&self, _p: &LocalParams) -> usize {
                2
            }
            fn evaluate(&self, ball: &Graph, center: usize, _p: &LocalParams) -> u64 {
                let dist = ball.bfs_distances(center);
                (0..ball.n())
                    .filter(|&v| dist[v] <= 2)
                    .map(|v| ball.id(v).0)
                    .min()
                    .unwrap()
            }
        }
        let g = generators::random_tree(20, Seed(5));
        let params = LocalParams::exact(20, g.max_degree(), Seed(0));
        assert!(locality_violations(&g, &MinId2, &params, 3).is_empty());
    }
}
