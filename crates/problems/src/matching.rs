//! Matching problems: maximal matching, `Ω(1)`-approximate maximum
//! matching, and the edge-problem ↔ line-graph-vertex-problem adapters of
//! Section 2.3.

use crate::problem::{GraphProblem, Violation};
use csmpc_graph::ops::line_graph;
use csmpc_graph::Graph;

/// A problem whose outputs label the *edges* of the input graph, in
/// `g.edges()` order. The paper reduces such problems to vertex labeling on
/// the line graph; this trait keeps the natural statement available for
/// validation.
pub trait EdgeProblem {
    /// Output label per edge.
    type Label: Clone + PartialEq + std::fmt::Debug;

    /// Problem name.
    fn name(&self) -> &str;

    /// Validates edge labels against the original graph.
    ///
    /// # Errors
    ///
    /// The first [`Violation`] found (node indices refer to `g`).
    fn validate(&self, g: &Graph, edge_labels: &[Self::Label]) -> Result<(), Violation>;
}

/// Is `in_matching` (per edge) a matching — no two chosen edges sharing an
/// endpoint?
#[must_use]
pub fn is_matching(g: &Graph, in_matching: &[bool]) -> bool {
    let mut used = vec![false; g.n()];
    for (i, (u, v)) in g.edges().enumerate() {
        if in_matching[i] {
            if used[u] || used[v] {
                return false;
            }
            used[u] = true;
            used[v] = true;
        }
    }
    true
}

/// Greedy maximal matching (processing edges in order) — a ½-approximation
/// witness used by the approximate validator.
#[must_use]
pub fn greedy_maximal_matching(g: &Graph) -> Vec<bool> {
    let mut used = vec![false; g.n()];
    g.edges()
        .map(|(u, v)| {
            if !used[u] && !used[v] {
                used[u] = true;
                used[v] = true;
                true
            } else {
                false
            }
        })
        .collect()
}

/// Exact maximum matching size on a **forest** via leaf-stripping DP.
///
/// # Panics
///
/// Panics if `g` contains a cycle.
#[must_use]
pub fn max_matching_forest(g: &Graph) -> usize {
    assert!(
        g.m() + g.component_count() == g.n(),
        "max_matching_forest requires an acyclic graph"
    );
    // Greedy from leaves is optimal on forests.
    let mut deg: Vec<usize> = (0..g.n()).map(|v| g.degree(v)).collect();
    let mut removed = vec![false; g.n()];
    let mut matched = vec![false; g.n()];
    let mut queue: std::collections::VecDeque<usize> =
        (0..g.n()).filter(|&v| deg[v] == 1).collect();
    let mut size = 0usize;
    while let Some(v) = queue.pop_front() {
        if removed[v] || matched[v] {
            continue;
        }
        // v is a leaf: match it with its unique live neighbor if possible.
        let parent = g
            .neighbors(v)
            .iter()
            .map(|&w| w as usize)
            .find(|&w| !removed[w]);
        removed[v] = true;
        let Some(p) = parent else { continue };
        if !matched[p] {
            matched[v] = true;
            matched[p] = true;
            size += 1;
            removed[p] = true;
            for &w in g.neighbors(p) {
                let w = w as usize;
                if !removed[w] {
                    deg[w] -= 1;
                    if deg[w] <= 1 {
                        queue.push_back(w);
                    }
                }
            }
        } else {
            deg[p] -= 1;
            if deg[p] == 1 {
                queue.push_back(p);
            }
        }
    }
    size
}

/// Maximal matching as an edge problem: a matching such that every edge has
/// a matched endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaximalMatching;

impl EdgeProblem for MaximalMatching {
    type Label = bool;

    fn name(&self) -> &str {
        "maximal-matching"
    }

    fn validate(&self, g: &Graph, edge_labels: &[bool]) -> Result<(), Violation> {
        if edge_labels.len() != g.m() {
            return Err(Violation::global("edge label count mismatch"));
        }
        if !is_matching(g, edge_labels) {
            return Err(Violation::global("chosen edges share an endpoint"));
        }
        let mut covered = vec![false; g.n()];
        for (i, (u, v)) in g.edges().enumerate() {
            if edge_labels[i] {
                covered[u] = true;
                covered[v] = true;
            }
        }
        for (i, (u, v)) in g.edges().enumerate() {
            if !edge_labels[i] && !covered[u] && !covered[v] {
                return Err(Violation::at(
                    u,
                    format!("edge ({u},{v}) could be added: matching not maximal"),
                ));
            }
        }
        Ok(())
    }
}

/// `Ω(1)`-approximate maximum matching (Lemma 12): a matching of size at
/// least `ratio ×` the maximum. On forests the maximum is computed exactly;
/// on general graphs the bound `max ≤ 2 · |any maximal matching|` is used,
/// so the check is `|M| ≥ ratio · bound` with a documented 2-factor slack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxMaximumMatching {
    /// Required approximation ratio in `(0, 1]`.
    pub ratio: f64,
}

impl EdgeProblem for ApproxMaximumMatching {
    type Label = bool;

    fn name(&self) -> &str {
        "approx-maximum-matching"
    }

    fn validate(&self, g: &Graph, edge_labels: &[bool]) -> Result<(), Violation> {
        if edge_labels.len() != g.m() {
            return Err(Violation::global("edge label count mismatch"));
        }
        if !is_matching(g, edge_labels) {
            return Err(Violation::global("chosen edges share an endpoint"));
        }
        let have = edge_labels.iter().filter(|&&b| b).count();
        let optimum_bound = if g.m() + g.component_count() == g.n() {
            max_matching_forest(g)
        } else {
            2 * greedy_maximal_matching(g).iter().filter(|&&b| b).count()
        };
        let need = (self.ratio * optimum_bound as f64).floor() as usize;
        if have < need {
            return Err(Violation::global(format!(
                "matching size {have} below {need} (= {} × optimum bound {optimum_bound})",
                self.ratio
            )));
        }
        Ok(())
    }
}

/// Cross-validation helper: a labeling is a maximal matching of `g` iff it
/// is an MIS of `L(g)` — the equivalence the paper's reduction rests on.
#[must_use]
pub fn matching_mis_equivalence(g: &Graph, edge_labels: &[bool]) -> bool {
    let (lg, _) = line_graph(g);
    let mis_valid = crate::mis::Mis.is_valid(&lg, edge_labels);
    let mm_valid = MaximalMatching.validate(g, edge_labels).is_ok();
    mis_valid == mm_valid
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmpc_graph::generators;
    use csmpc_graph::rng::Seed;

    #[test]
    fn greedy_is_maximal() {
        let g = generators::random_gnp(20, 0.3, Seed(1));
        let m = greedy_maximal_matching(&g);
        assert!(MaximalMatching.validate(&g, &m).is_ok());
    }

    #[test]
    fn matching_detects_conflict() {
        let g = generators::path(3); // edges (0,1), (1,2)
        assert!(!is_matching(&g, &[true, true]));
        assert!(is_matching(&g, &[true, false]));
    }

    #[test]
    fn maximal_matching_rejects_extendable() {
        let g = generators::path(5);
        // Match only edge (0,1): edge (2,3) could still be added.
        let labels = vec![true, false, false, false];
        assert!(MaximalMatching.validate(&g, &labels).is_err());
    }

    #[test]
    fn forest_max_matching_path() {
        assert_eq!(max_matching_forest(&generators::path(2)), 1);
        assert_eq!(max_matching_forest(&generators::path(5)), 2);
        assert_eq!(max_matching_forest(&generators::path(6)), 3);
        assert_eq!(max_matching_forest(&generators::star(5)), 1);
    }

    #[test]
    fn forest_max_matching_random_trees() {
        for s in 0..5 {
            let g = generators::random_tree(30, Seed(s));
            let opt = max_matching_forest(&g);
            let greedy = greedy_maximal_matching(&g).iter().filter(|&&b| b).count();
            assert!(greedy <= opt, "greedy {greedy} exceeds optimum {opt}");
            assert!(2 * greedy >= opt, "greedy below half of optimum");
        }
    }

    #[test]
    fn approx_matching_accepts_greedy_on_forest() {
        let g = generators::random_tree(40, Seed(9));
        let m = greedy_maximal_matching(&g);
        let p = ApproxMaximumMatching { ratio: 0.5 };
        assert!(p.validate(&g, &m).is_ok());
    }

    #[test]
    fn approx_matching_rejects_empty_on_path() {
        let g = generators::path(6);
        let p = ApproxMaximumMatching { ratio: 0.5 };
        assert!(p.validate(&g, &vec![false; g.m()]).is_err());
    }

    #[test]
    fn equivalence_with_line_graph_mis() {
        for s in 0..5 {
            let g = generators::random_gnp(10, 0.4, Seed(s));
            if g.m() == 0 {
                continue;
            }
            let good = greedy_maximal_matching(&g);
            assert!(matching_mis_equivalence(&g, &good));
            let mut bad = good.clone();
            let flip = (s as usize) % bad.len();
            bad[flip] = !bad[flip];
            assert!(matching_mis_equivalence(&g, &bad));
        }
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn forest_dp_rejects_cycles() {
        let _ = max_matching_forest(&generators::cycle(4));
    }
}
