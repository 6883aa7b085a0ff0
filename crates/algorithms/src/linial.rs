//! Linial's deterministic color reduction — the `O(log* n)` machinery the
//! paper invokes twice: Theorem 45 reduces the name space by
//! `Δ^{4t}`-coloring the power graph `G^{2t}` "within `O(log* N)`
//! deterministic rounds \[Kuh09\]", and the final `5Δ'`-edge-coloring step of
//! Theorem 41 simulates "Linial's (deterministic) vertex-coloring
//! algorithm \[Lin92\]".
//!
//! One reduction step: given a proper `k`-coloring, encode each color as a
//! degree-`d` polynomial over `F_q` (base-`q` digits). Since two distinct
//! degree-`d` polynomials agree on at most `d` points, a node with `≤ Δ`
//! neighbors has at most `d·Δ < q` "bad" evaluation points, so it can pick
//! `x` with `p_v(x) ≠ p_u(x)` for every neighbor `u`; the new color
//! `(x, p_v(x))` lives in a palette of `q² ≪ k`. Iterating collapses any
//! `poly(n)`-size palette to `O(Δ²)` in `O(log* n)` steps; a greedy
//! color-class sweep then reaches `Δ + 1`.

use csmpc_derand::field::{next_prime, poly_eval};
use csmpc_graph::Graph;

/// Chooses `(d, q)` for one reduction step: the smallest degree `d ≥ 1`
/// and prime `q > d·Δ` such that `q^{d+1} ≥ k` (so every color in `[k]`
/// has a distinct polynomial encoding).
#[must_use]
pub fn step_parameters(k: u64, delta: usize) -> (u32, u64) {
    let delta = delta.max(1) as u64;
    for d in 1u32..=64 {
        let q = next_prime(u64::from(d) * delta + 2);
        // q^(d+1) >= k, computed saturating.
        let mut cap = 1u128;
        for _ in 0..=d {
            cap = cap.saturating_mul(u128::from(q));
            if cap >= u128::from(k) {
                return (d, q);
            }
        }
    }
    unreachable!("k fits in q^65 for any q >= 2")
}

/// One Linial reduction step: maps a proper coloring with palette `k` to a
/// proper coloring with palette `q²` (`q` as chosen by
/// [`step_parameters`]). One LOCAL round (nodes exchange current colors).
///
/// # Panics
///
/// Panics if the input coloring is not proper or exceeds the stated
/// palette.
#[must_use]
pub fn linial_step(g: &Graph, colors: &[u64], k: u64) -> (Vec<u64>, u64) {
    let (d, q) = step_parameters(k, g.max_degree());
    let digits = |mut c: u64| -> Vec<u64> {
        assert!(c < k, "color {c} outside palette {k}");
        let mut out = Vec::with_capacity(d as usize + 1);
        for _ in 0..=d {
            out.push(c % q);
            c /= q;
        }
        out
    };
    let polys: Vec<Vec<u64>> = colors.iter().map(|&c| digits(c)).collect();
    let next: Vec<u64> = (0..g.n())
        .map(|v| {
            for &w in g.neighbors(v) {
                assert_ne!(
                    colors[v], colors[w as usize],
                    "input coloring is not proper at edge ({v},{w})"
                );
            }
            let x = (0..q)
                .find(|&x| {
                    let mine = poly_eval(&polys[v], x, q);
                    g.neighbors(v)
                        .iter()
                        .all(|&w| poly_eval(&polys[w as usize], x, q) != mine)
                })
                .expect("q > d·Δ guarantees a good evaluation point");
            x * q + poly_eval(&polys[v], x, q)
        })
        .collect();
    (next, q * q)
}

/// Result of the iterated reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinialRun {
    /// The final proper coloring.
    pub colors: Vec<u64>,
    /// Its palette size.
    pub palette: u64,
    /// Reduction steps taken (`O(log* initial_palette)`).
    pub steps: usize,
}

/// Iterates [`linial_step`] starting from the node IDs (a proper
/// "coloring" with palette `max_id + 1`) until the palette stops
/// shrinking — reaching `O(Δ²)` colors in `O(log* n)` steps.
#[must_use]
pub fn linial_coloring(g: &Graph) -> LinialRun {
    let mut colors: Vec<u64> = (0..g.n()).map(|v| g.id(v).0).collect();
    let mut k = colors.iter().copied().max().unwrap_or(0) + 1;
    let mut steps = 0usize;
    loop {
        let (next, k2) = linial_step(g, &colors, k);
        steps += 1;
        if k2 >= k {
            // No more progress; keep the smaller palette.
            return LinialRun {
                colors,
                palette: k,
                steps: steps - 1,
            };
        }
        colors = next;
        k = k2;
    }
}

/// Reduces a proper `k`-coloring to palette `Δ + 1` by sweeping color
/// classes from the top: each class is an independent set, so all its
/// nodes simultaneously re-pick the smallest color unused in their
/// neighborhood. Takes `k − (Δ+1)` LOCAL rounds — the standard final
/// stage after Linial.
///
/// # Panics
///
/// Panics on an improper input coloring.
#[must_use]
pub fn reduce_to_delta_plus_one(g: &Graph, colors: &[u64], k: u64) -> Vec<u64> {
    let target = g.max_degree() as u64 + 1;
    let mut colors = colors.to_vec();
    let mut c = k;
    while c > target {
        c -= 1;
        // All nodes currently colored `c` re-pick simultaneously.
        let next: Vec<u64> = (0..g.n())
            .map(|v| {
                if colors[v] != c {
                    return colors[v];
                }
                let used: std::collections::BTreeSet<u64> =
                    g.neighbors(v).iter().map(|&w| colors[w as usize]).collect();
                (0..target)
                    .find(|x| !used.contains(x))
                    .expect("Δ neighbors cannot block Δ+1 colors")
            })
            .collect();
        colors = next;
    }
    colors
}

/// The Theorem 45 name-space reduction: colors `G^{2t}` so that any two
/// nodes within distance `2t` get distinct colors, shrinking IDs from
/// `O(log N)` bits to `O(t log Δ)` bits in `O(log* n)` steps. Returns the
/// coloring of the *original* nodes and the palette.
#[must_use]
pub fn power_graph_coloring(g: &Graph, t: usize) -> LinialRun {
    let power = csmpc_graph::ops::power_graph(g, (2 * t).max(1));
    linial_coloring(&power)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmpc_graph::generators;
    use csmpc_graph::rng::Seed;
    use csmpc_problems::coloring::VertexColoring;
    use csmpc_problems::problem::GraphProblem;

    fn assert_proper(g: &Graph, colors: &[u64]) {
        for (u, v) in g.edges() {
            assert_ne!(colors[u], colors[v], "edge ({u},{v}) monochromatic");
        }
    }

    #[test]
    fn parameters_satisfy_invariants() {
        for k in [10u64, 1000, 1 << 30] {
            for delta in [1usize, 2, 5, 16] {
                let (d, q) = step_parameters(k, delta);
                assert!(q > u64::from(d) * delta as u64, "q must exceed d·Δ");
                let cap = (0..=d).fold(1u128, |a, _| a.saturating_mul(u128::from(q)));
                assert!(cap >= u128::from(k), "q^(d+1) must cover the palette");
            }
        }
    }

    #[test]
    fn single_step_stays_proper_and_shrinks() {
        // Linial's step shrinks palettes well above Δ²·polylog; start from
        // a spread-out ID space (the realistic O(log n)-bit regime).
        let g = generators::random_regular(60, 4, Seed(1));
        let colors: Vec<u64> = (0..60u64).map(|v| v * 1_000_003 + 17).collect();
        let k = colors.iter().max().unwrap() + 1;
        let (next, k2) = linial_step(&g, &colors, k);
        assert_proper(&g, &next);
        assert!(next.iter().all(|&c| c < k2));
        assert!(k2 < k / 1000, "palette must shrink drastically: {k2}");
    }

    #[test]
    fn iterated_reduction_reaches_delta_squared_regime() {
        for s in 0..5 {
            let g = csmpc_graph::ops::relabel_ids(
                &generators::random_regular(80, 4, Seed(s)),
                |v, _| csmpc_graph::NodeId((v as u64) * 999_983 + 5),
            );
            let run = linial_coloring(&g);
            assert_proper(&g, &run.colors);
            // Fixed point for Δ = 4 is ≈ next_prime(2Δ+2)² = 121 = O(Δ²·log²).
            assert!(
                run.palette <= 9 * (4 + 3) * (4 + 3),
                "palette {} not O(Δ² polylog Δ)",
                run.palette
            );
            assert!(run.steps >= 1, "big IDs must force at least one step");
        }
    }

    #[test]
    fn steps_are_log_star_flat() {
        // Steps barely grow as the ID space explodes.
        let small = {
            let g = generators::cycle(16);
            linial_coloring(&g).steps
        };
        let big = {
            let g = csmpc_graph::ops::relabel_ids(&generators::cycle(4096), |v, _| {
                csmpc_graph::NodeId((v as u64) * 1_000_003 + 17)
            });
            linial_coloring(&g).steps
        };
        assert!(big <= small + 3, "steps {small} -> {big} not log*-flat");
    }

    #[test]
    fn final_reduction_to_delta_plus_one() {
        for s in 0..5 {
            let g = generators::random_gnp(40, 0.15, Seed(10 + s));
            let run = linial_coloring(&g);
            let final_colors = reduce_to_delta_plus_one(&g, &run.colors, run.palette);
            let as_usize: Vec<usize> = final_colors.iter().map(|&c| c as usize).collect();
            let p = VertexColoring::delta_plus_one(&g);
            assert!(p.is_valid(&g, &as_usize), "seed {s}");
        }
    }

    #[test]
    fn power_graph_coloring_separates_balls() {
        let g = generators::cycle(30);
        let t = 2;
        let run = power_graph_coloring(&g, t);
        // Any two nodes within distance 2t must differ.
        for v in 0..g.n() {
            let dist = g.bfs_distances(v);
            for (w, &dw) in dist.iter().enumerate() {
                if w != v && dw <= 2 * t {
                    assert_ne!(run.colors[v], run.colors[w], "({v},{w})");
                }
            }
        }
        // New "IDs" are much smaller than n on long cycles.
        assert!(run.palette < 30 * 30);
    }

    #[test]
    #[should_panic(expected = "not proper")]
    fn improper_input_rejected() {
        let g = generators::path(3);
        let _ = linial_step(&g, &[5, 5, 1], 10);
    }
}
