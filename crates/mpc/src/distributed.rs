//! A graph distributed across the cluster, with accounted MPC primitives.
//!
//! The input graph's edges are spread over machines (the paper's "input is
//! arbitrarily distributed"); each node has a *home machine* responsible for
//! its output. Every primitive charges its textbook low-space round cost to
//! the cluster ledger and asserts space feasibility; see the module docs of
//! [`crate::cluster`] for the accounting philosophy.
//!
//! Round costs charged, with `d = ⌈log_S M⌉ = O(1/φ)` the aggregation-tree
//! depth that [`Cluster::tree_depth`] computes (the paper's §2.4.2
//! accounting for `S = n^φ`):
//!
//! | primitive                   | rounds charged |
//! |-----------------------------|----------------|
//! | `distribute`                | 1              |
//! | `aggregate` / `broadcast`   | `d`            |
//! | `count_nodes`, `max_degree` | `d`            |
//! | `neighbor_reduce` (sort)    | `2d`           |
//! | `collect_balls(r)`          | `(⌈log₂ r⌉+1)·2d` |
//! | `cc_labels`                 | `2d` per measured iteration |

use crate::ball_cache::{self, BallSet};
use crate::cluster::{Cluster, MpcError};
use crate::phase::{PhaseTimer, PhaseTimes};
use crate::provenance::ComponentId;
use crate::scale::hook_jump;
use csmpc_graph::rng::{FastRange, SplitMix64};
use csmpc_graph::Graph;
use csmpc_parallel::{par_fill_blocks, par_map_range};

/// Words needed to describe a graph fragment: node records (id, name) plus
/// edge records (two endpoints).
#[must_use]
pub fn graph_words(g: &Graph) -> usize {
    2 * g.n() + 2 * g.m()
}

/// A graph whose edges and node records live on cluster machines.
#[derive(Debug)]
pub struct DistributedGraph<'a> {
    g: &'a Graph,
    node_home: Vec<usize>,
    edge_home: Vec<usize>,
    component_of: Vec<ComponentId>,
    /// Counting-sort partition of nodes by home machine: machine `mid`'s
    /// nodes are `part_nodes[part_offsets[mid]..part_offsets[mid + 1]]`,
    /// ascending. Precomputed once so [`DistributedGraph::nodes_on`] is an
    /// O(1) slice instead of an O(n) filter per call.
    part_offsets: Vec<usize>,
    part_nodes: Vec<usize>,
}

impl<'a> DistributedGraph<'a> {
    /// Distributes `g` over the cluster's machines: edges are placed
    /// pseudo-randomly (the "arbitrary initial distribution"), node records
    /// go to `hash(name) mod M`. Charges 1 round.
    ///
    /// # Errors
    ///
    /// [`MpcError::SpaceExceeded`] if any machine's share exceeds `S`.
    pub fn distribute(g: &'a Graph, cluster: &mut Cluster) -> Result<Self, MpcError> {
        let timer = PhaseTimer::start();
        let m = cluster.num_machines();
        let mode = cluster.config().parallelism;
        let mut rng = SplitMix64::new(cluster.shared_seed().derive(0xd157));
        // One prepared reducer for every `mod M` in the placement sweeps:
        // `FastRange` draws and reduces bit-identically to
        // `rng.index(m)` / `% m` but without the per-draw divisions.
        let machine_of = FastRange::index(m);
        let node_home: Vec<usize> = par_map_range(mode, g.n(), |v| {
            // Finalizer-quality hash so sequential names spread evenly
            // regardless of the machine count's factorization. Stateless
            // per node, so the sweep parallelizes without reordering.
            let mut z = g.name(v).0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            machine_of.rem(z ^ (z >> 31)) as usize
        });
        // Edge placement draws from a single sequential RNG stream; it must
        // stay a sequential loop to keep the stream (and so the placement)
        // independent of the parallelism mode. The per-machine edge
        // histogram (space check, and grouping in the fallback below) rides
        // along in the same pass.
        let mut edge_counts = vec![0usize; m];
        let edge_home: Vec<usize> = (0..g.m())
            .map(|_| {
                let h = machine_of.sample_index(&mut rng);
                edge_counts[h] += 1;
                h
            })
            .collect();
        // Connected-component labels, dense `0..k` numbered by smallest
        // node index — the `Graph::component_labels` numbering exactly,
        // computed by union-find over the edge stream, whose one walk also
        // captures `edge_src` below. Pointing the larger root at the
        // smaller keeps each set's root at its minimum element, so the
        // ascending label scan below reproduces the DFS numbering; path
        // halving in `find` keeps the forest shallow.
        fn find(parent: &mut [u32], mut v: u32) -> u32 {
            while parent[v as usize] != v {
                let gp = parent[parent[v as usize] as usize];
                parent[v as usize] = gp;
                v = gp;
            }
            v
        }
        let mut parent: Vec<u32> = (0..g.n() as u32).collect();
        // First endpoint of each edge in `g.edges()` order, captured during
        // the union walk so the provenance sweep below reads a flat array
        // instead of filtering the CSR rows a second time.
        let mut edge_src: Vec<u32> = Vec::with_capacity(g.m());
        for (u, w) in g.edges() {
            edge_src.push(u as u32);
            let (ru, rw) = (find(&mut parent, u as u32), find(&mut parent, w as u32));
            if ru < rw {
                parent[rw as usize] = ru;
            } else if rw < ru {
                parent[ru as usize] = rw;
            }
        }
        let mut component_of: Vec<ComponentId> = vec![0; g.n()];
        let mut components: ComponentId = 0;
        for v in 0..g.n() as u32 {
            let r = find(&mut parent, v);
            if r == v {
                component_of[v as usize] = components;
                components += 1;
            } else {
                // `r < v` (roots are set minima), so its label is final.
                component_of[v as usize] = component_of[r as usize];
            }
        }
        // Per-machine node histogram — the space check *and* the
        // partition's counting-sort offsets below. When the input has few
        // components the provenance bitmask sweep (see below) rides along
        // in the same pass instead of re-reading `node_home`.
        let masked = components > 1 && (components as usize) <= 64;
        let mut held: Vec<u64> = vec![0; if masked { m } else { 0 }];
        let mut node_counts = vec![0usize; m];
        if masked {
            for (v, &h) in node_home.iter().enumerate() {
                node_counts[h] += 1;
                held[h] |= 1u64 << component_of[v];
            }
        } else {
            for &h in &node_home {
                node_counts[h] += 1;
            }
        }
        cluster.advance_rounds(1)?;
        // Each record is 2 words, so machine `h` holds
        // `2 * (node_counts[h] + edge_counts[h])` words.
        let (argmax, max) = (0..m)
            .map(|h| node_counts[h] + edge_counts[h])
            .enumerate()
            .max_by_key(|&(_, w)| w)
            .unwrap_or((0, 0));
        cluster.charge_words(2 * max, graph_words(g) as u64);
        cluster.charge_storage(argmax, 2 * max)?;
        // Component-provenance seeding. Per-record ordered-set inserts —
        // 2(n+m) of them, almost all duplicate hits — dominated the route
        // phase of the accounted workloads; both replacements below do the
        // same work with flat array writes, and tag runs are
        // insertion-order-insensitive, so the provenance state is
        // bit-identical either way.
        if components == 1 && g.n() > 0 {
            // Connected input: every record carries component 0, so a
            // machine's tag run is `[0]` exactly when it received anything
            // — the histograms already know which did. No sweep at all.
            cluster.seed_machines_component_zero(
                (0..m).filter(|&h| node_counts[h] + edge_counts[h] > 0),
            );
        } else if masked {
            // Few components (benchmark inputs have 1–2): the distinct
            // component set of a machine fits a u64 bitmask, so the
            // histogram pass above OR-accumulated per-machine masks for
            // the node records; the edge records fold in here from the
            // flat `edge_src` copy, and bit iteration inside the bulk
            // seeding yields each machine's tag run already sorted — no
            // record buffer, no dedup stamp, no sort.
            for (e, &u) in edge_src.iter().enumerate() {
                held[edge_home[e]] |= 1u64 << component_of[u as usize];
            }
            cluster.seed_machine_tag_masks(&held);
        } else {
            // General fallback: group the (machine, component) records by
            // machine with the same counting-sort idiom as the engine's
            // message fabric, then deduplicate each group with a
            // component-stamp array. `group_counts` is scanned into
            // exclusive offsets and consumed as the scatter cursors: after
            // the scatter, `group_counts[h]` has advanced to the *end* of
            // group `h`.
            let mut group_counts: Vec<usize> =
                (0..m).map(|h| node_counts[h] + edge_counts[h]).collect();
            let mut lo = 0usize;
            for c in &mut group_counts {
                let len = *c;
                *c = lo;
                lo += len;
            }
            let mut tag_records: Vec<ComponentId> = vec![0; g.n() + g.m()];
            for (v, &h) in node_home.iter().enumerate() {
                tag_records[group_counts[h]] = component_of[v];
                group_counts[h] += 1;
            }
            for (e, &u) in edge_src.iter().enumerate() {
                let h = edge_home[e];
                tag_records[group_counts[h]] = component_of[u as usize];
                group_counts[h] += 1;
            }
            // Labels are dense `0..k`, so a flat per-component stamp of
            // the last machine that saw it deduplicates each group without
            // sorting.
            let mut stamped: Vec<usize> = vec![usize::MAX; components as usize];
            let mut distinct: Vec<ComponentId> = Vec::new();
            let mut group_lo = 0usize;
            for (mid, &group_hi) in group_counts.iter().enumerate() {
                distinct.clear();
                for &c in &tag_records[group_lo..group_hi] {
                    if stamped[c as usize] != mid {
                        stamped[c as usize] = mid;
                        distinct.push(c);
                    }
                }
                if !distinct.is_empty() {
                    distinct.sort_unstable();
                    cluster.seed_machine_tags(mid, &distinct);
                }
                group_lo = group_hi;
            }
        }
        // Counting sort of nodes by home machine (ascending node order
        // within each machine — the order the old per-call filter
        // produced). The node histogram is scanned into the exclusive
        // offsets in place and consumed as the scatter cursors.
        let mut part_offsets = vec![0usize; m + 1];
        let mut lo = 0usize;
        for (h, c) in node_counts.iter_mut().enumerate() {
            part_offsets[h] = lo;
            let len = *c;
            *c = lo;
            lo += len;
        }
        part_offsets[m] = lo;
        let mut part_nodes = vec![0usize; g.n()];
        for (v, &h) in node_home.iter().enumerate() {
            part_nodes[node_counts[h]] = v;
            node_counts[h] += 1;
        }
        cluster.record_phase(&PhaseTimes {
            route_ns: timer.elapsed_ns(),
            ..PhaseTimes::default()
        });
        Ok(DistributedGraph {
            g,
            node_home,
            edge_home,
            component_of,
            part_offsets,
            part_nodes,
        })
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.g
    }

    /// Home machine of node `v`.
    #[must_use]
    pub fn node_home(&self, v: usize) -> usize {
        self.node_home[v]
    }

    /// Home machine of edge `e` (by edge index in `g.edges()` order).
    #[must_use]
    pub fn edge_home(&self, e: usize) -> usize {
        self.edge_home[e]
    }

    /// Node indices homed on machine `mid`, ascending — a borrowed slice
    /// of the partition precomputed at distribution time (no per-call
    /// scan or allocation). Out-of-range `mid` yields the empty slice.
    #[must_use]
    pub fn nodes_on(&self, mid: usize) -> &[usize] {
        match (self.part_offsets.get(mid), self.part_offsets.get(mid + 1)) {
            (Some(&lo), Some(&hi)) => &self.part_nodes[lo..hi],
            _ => &[],
        }
    }

    /// Connected-component label of node `v` (provenance numbering).
    #[must_use]
    pub fn component_of(&self, v: usize) -> ComponentId {
        self.component_of[v]
    }

    /// Exact node count via an aggregation tree. Charges `d` rounds.
    ///
    /// # Errors
    ///
    /// [`MpcError::MachineFailed`] from an armed fault plan.
    pub fn count_nodes(&self, cluster: &mut Cluster) -> Result<usize, MpcError> {
        let d = cluster.tree_depth();
        cluster.advance_rounds(d)?;
        Ok(self.g.n())
    }

    /// Exact maximum degree via aggregation. Charges `2d` rounds (one
    /// neighbor count pass + one max pass).
    ///
    /// # Errors
    ///
    /// [`MpcError::MachineFailed`] from an armed fault plan.
    pub fn max_degree(&self, cluster: &mut Cluster) -> Result<usize, MpcError> {
        let d = cluster.tree_depth();
        cluster.advance_rounds(2 * d)?;
        Ok(self.g.max_degree())
    }

    /// Broadcasts a value from one machine to all. Charges `d` rounds.
    ///
    /// A broadcast hands every machine — and therefore every component's
    /// home machines — a value of unrestricted origin, so on a
    /// multi-component input it records a global provenance mix. Use
    /// [`DistributedGraph::count_nodes`] / [`DistributedGraph::max_degree`]
    /// for the global quantities Definition 13 explicitly allows.
    ///
    /// # Errors
    ///
    /// [`MpcError::MachineFailed`] from an armed fault plan.
    pub fn broadcast<T: Clone>(&self, cluster: &mut Cluster, value: &T) -> Result<T, MpcError> {
        let d = cluster.tree_depth();
        cluster.advance_rounds(d)?;
        let round = cluster.stats().rounds;
        cluster.provenance_mut().record_global_mix(
            "broadcast",
            round,
            self.component_of.iter().copied(),
        );
        Ok(value.clone())
    }

    /// Aggregates per-node values with a commutative, associative `op`.
    /// Charges `d` rounds. Returns `None` on an empty graph.
    ///
    /// The result mixes data from every component, so on a multi-component
    /// input this records a global provenance mix — aggregation over the
    /// whole input is exactly the kind of global read a component-stable
    /// algorithm (Definition 13) must not perform.
    ///
    /// # Errors
    ///
    /// [`MpcError::MachineFailed`] from an armed fault plan.
    pub fn aggregate<T: Clone>(
        &self,
        cluster: &mut Cluster,
        values: &[T],
        op: impl Fn(T, T) -> T,
    ) -> Result<Option<T>, MpcError> {
        assert_eq!(values.len(), self.g.n(), "one value per node expected");
        let d = cluster.tree_depth();
        cluster.advance_rounds(d)?;
        let round = cluster.stats().rounds;
        cluster.provenance_mut().record_global_mix(
            "aggregate",
            round,
            self.component_of.iter().copied(),
        );
        Ok(values.iter().cloned().reduce(op))
    }

    /// Global winner selection over `candidates` — the accounted form of
    /// success amplification (Theorem 5): all repetitions are scored by a
    /// concurrent per-repetition aggregation (`d` rounds), a global argmax
    /// picks the winner (`d` rounds), and the winning labels are broadcast
    /// back (`d` rounds). Ties keep the earliest repetition.
    ///
    /// Selection depends on outcomes in *all* components simultaneously —
    /// the paper's canonical component-unstable step — so on a
    /// multi-component input this records a global provenance mix.
    ///
    /// Returns `(winner_index, winner_labels, scores)`.
    ///
    /// # Errors
    ///
    /// [`MpcError::MachineFailed`] from an armed fault plan.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    #[allow(clippy::type_complexity)]
    pub fn select_best_global<L: Clone>(
        &self,
        cluster: &mut Cluster,
        candidates: &[Vec<L>],
        score: impl Fn(&[L]) -> f64,
    ) -> Result<(usize, Vec<L>, Vec<f64>), MpcError> {
        assert!(!candidates.is_empty(), "need at least one candidate");
        let d = cluster.tree_depth();
        // Concurrent per-repetition score aggregation, global argmax,
        // winner broadcast.
        cluster.advance_rounds(3 * d)?;
        let round = cluster.stats().rounds;
        cluster.provenance_mut().record_global_mix(
            "select-best-global",
            round,
            self.component_of.iter().copied(),
        );
        let scores: Vec<f64> = candidates.iter().map(|c| score(c)).collect();
        let mut winner = 0usize;
        for (i, &s) in scores.iter().enumerate() {
            if s > scores[winner] {
                winner = i;
            }
        }
        Ok((winner, candidates[winner].clone(), scores))
    }

    /// For each node, reduces `op` over the values of its *neighbors*
    /// (`None` for isolated nodes). Implemented in real MPC by sorting edge
    /// records keyed by endpoint and segmented reduction; charges `2d`
    /// rounds.
    ///
    /// # Errors
    ///
    /// [`MpcError::MachineFailed`] from an armed fault plan.
    pub fn neighbor_reduce<T: Clone + Send + Sync>(
        &self,
        cluster: &mut Cluster,
        values: &[T],
        op: impl Fn(T, T) -> T + Sync,
    ) -> Result<Vec<Option<T>>, MpcError> {
        assert_eq!(values.len(), self.g.n(), "one value per node expected");
        let mode = cluster.config().parallelism;
        let d = cluster.tree_depth();
        cluster.advance_rounds(2 * d)?;
        // Per-vertex reduction over that vertex's own adjacency list, one
        // block of consecutive CSR rows at a time: each reduction folds left
        // in neighbor order regardless of mode, so the sweep parallelizes
        // bit-identically.
        let csr = self.g.csr();
        let mut out = Vec::new();
        cluster.time_step(|| {
            par_fill_blocks(mode, csr.n(), &mut out, |lo, block| {
                let hi = lo + block.len();
                for (slot, row) in block.iter_mut().zip(csr.rows(lo, hi)) {
                    *slot = row.iter().map(|&w| values[w as usize].clone()).reduce(&op);
                }
            });
        });
        Ok(out)
    }

    /// Collects the `r`-radius ball of every node via graph exponentiation
    /// (doubling). Charges `(⌈log₂ r⌉ + 1) · 2d` rounds and asserts every
    /// ball fits in a machine (`graph_words(ball) ≤ S`).
    ///
    /// The host-side computation sweeps per-thread flat
    /// [`csmpc_graph::ball::BallWorkspace`]s over the graph's CSR spine and
    /// is memoized in the process-wide [`crate::BallCache`], keyed by exact
    /// graph content — repetition loops re-running the same input (e.g.
    /// success-probability trials) share one computed set behind the
    /// returned [`BallSet`] handle. The ledger cannot tell a hit from a
    /// miss: rounds, words, and the space assertion are charged
    /// identically either way (the *simulated* algorithm always performs
    /// the collection), and a fault-mutated graph never matches a stale
    /// key.
    ///
    /// # Errors
    ///
    /// [`MpcError::SpaceExceeded`] when some ball is too large — exactly the
    /// regime where the paper's `Δ^{O(T)} ≤ n^φ` side conditions fail.
    pub fn collect_balls(&self, cluster: &mut Cluster, r: usize) -> Result<BallSet, MpcError> {
        let doublings = if r <= 1 {
            1
        } else {
            (usize::BITS - (r - 1).leading_zeros()) as usize + 1
        };
        let d = cluster.tree_depth();
        let mode = cluster.config().parallelism;
        cluster.advance_rounds(doublings * 2 * d)?;
        let (out, worst) = cluster.time_step(|| ball_cache::global().collect(self.g, r, mode));
        cluster.charge_words(worst, (self.g.n() * worst) as u64);
        cluster.require_fits(worst)?;
        Ok(out)
    }

    /// Connected-component labels (minimum node *name* in the component) via
    /// pointer jumping, the `O(log n)`-round technique matching the
    /// connectivity-conjecture baseline. Works for any graph; each
    /// iteration doubles the reach. Charges `2d` rounds per measured
    /// iteration and returns `(labels, iterations)`.
    ///
    /// The sweep is `scale::hook_jump`, run in dense `u32` name-rank
    /// space: pointer jumping reads only the order of names, so labels are
    /// ranks of the sorted distinct names while it runs and are mapped
    /// back to names at the end. Equal names share a rank, and a rank
    /// points at the *last* node carrying its name.
    ///
    /// # Errors
    ///
    /// [`MpcError::MachineFailed`] from an armed fault plan.
    pub fn cc_labels(&self, cluster: &mut Cluster) -> Result<(Vec<u64>, usize), MpcError> {
        let n = self.g.n();
        let mode = cluster.config().parallelism;
        let d = cluster.tree_depth();
        let mut sorted: Vec<(u64, usize)> = (0..n).map(|v| (self.g.name(v).0, v)).collect();
        sorted.sort_unstable();
        // rank → name and rank → node; `label` starts as every node's rank.
        let mut names: Vec<u64> = Vec::with_capacity(n);
        let mut node_of: Vec<u32> = Vec::with_capacity(n);
        let mut label = vec![0u32; n];
        for (name, v) in sorted {
            let node = u32::try_from(v).expect("a CSR indexes its nodes with u32");
            if names.last() != Some(&name) {
                names.push(name);
                node_of.push(node);
            }
            let rank = names.len() - 1;
            // Ascending `v` within a name: the last node carrying it wins.
            node_of[rank] = node;
            // At most one rank per node, so a rank fits wherever `node` does.
            label[v] = rank as u32;
        }
        let csr = self.g.csr();
        let rank_node = |r: u32| node_of[r as usize] as usize;
        let mut next: Vec<u32> = Vec::new();
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            cluster.advance_rounds(2 * d)?;
            if !cluster.time_step(|| hook_jump(mode, csr, &mut label, &mut next, rank_node)) {
                break;
            }
        }
        let labels = label.iter().map(|&r| names[r as usize]).collect();
        Ok((labels, iterations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;
    use csmpc_graph::generators;
    use csmpc_graph::rng::Seed;

    fn cluster_for(g: &Graph) -> Cluster {
        Cluster::new(MpcConfig::with_phi(0.5), g.n(), graph_words(g), Seed(7))
    }

    #[test]
    fn distribute_counts_and_space() {
        let g = generators::cycle(64);
        let mut cl = cluster_for(&g);
        let dg = DistributedGraph::distribute(&g, &mut cl).unwrap();
        assert_eq!(cl.stats().rounds, 1);
        assert_eq!(dg.count_nodes(&mut cl).unwrap(), 64);
        assert!(cl.stats().rounds > 1);
    }

    #[test]
    fn max_degree_correct() {
        let g = generators::star(9);
        let mut cl = cluster_for(&g);
        let dg = DistributedGraph::distribute(&g, &mut cl).unwrap();
        assert_eq!(dg.max_degree(&mut cl).unwrap(), 9);
    }

    #[test]
    fn neighbor_reduce_min_on_path() {
        let g = generators::path(5);
        let mut cl = cluster_for(&g);
        let dg = DistributedGraph::distribute(&g, &mut cl).unwrap();
        let vals: Vec<u64> = (0..5).map(|v| v as u64 * 10).collect();
        let mins = dg.neighbor_reduce(&mut cl, &vals, std::cmp::min).unwrap();
        assert_eq!(mins[0], Some(10));
        assert_eq!(mins[2], Some(10));
        assert_eq!(mins[4], Some(30));
    }

    #[test]
    fn neighbor_reduce_isolated_none() {
        let g = csmpc_graph::GraphBuilder::with_sequential_nodes(3)
            .build()
            .unwrap();
        let mut cl = cluster_for(&g);
        let dg = DistributedGraph::distribute(&g, &mut cl).unwrap();
        let mins = dg
            .neighbor_reduce(&mut cl, &[1u64, 2, 3], std::cmp::min)
            .unwrap();
        assert!(mins.iter().all(Option::is_none));
    }

    #[test]
    fn collect_balls_small_radius() {
        let g = generators::cycle(32);
        let mut cl = cluster_for(&g);
        let dg = DistributedGraph::distribute(&g, &mut cl).unwrap();
        let balls = dg.collect_balls(&mut cl, 2).unwrap();
        assert!(balls.iter().all(|(b, _)| b.n() == 5));
    }

    #[test]
    fn collect_balls_space_violation() {
        // A big star: the ball around the center is the whole graph and
        // exceeds S = sqrt(n).
        let g = generators::star(400);
        let mut cl = cluster_for(&g);
        let dg = DistributedGraph::distribute(&g, &mut cl).unwrap();
        let err = dg.collect_balls(&mut cl, 1).unwrap_err();
        assert!(matches!(err, MpcError::SpaceExceeded { .. }));
    }

    #[test]
    fn cc_labels_cycle_vs_two_cycles() {
        let one = generators::cycle(64);
        let mut cl = cluster_for(&one);
        let dg = DistributedGraph::distribute(&one, &mut cl).unwrap();
        let (labels, _) = dg.cc_labels(&mut cl).unwrap();
        assert!(labels.iter().all(|&l| l == labels[0]));

        let two = generators::two_cycles(64);
        let mut cl2 = cluster_for(&two);
        let dg2 = DistributedGraph::distribute(&two, &mut cl2).unwrap();
        let (labels2, _) = dg2.cc_labels(&mut cl2).unwrap();
        let distinct: std::collections::HashSet<u64> = labels2.iter().copied().collect();
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn cc_iterations_logarithmic() {
        // Pointer jumping converges in O(log n) iterations on a cycle.
        let g = generators::cycle(256);
        let mut cl = cluster_for(&g);
        let dg = DistributedGraph::distribute(&g, &mut cl).unwrap();
        let (_, iters) = dg.cc_labels(&mut cl).unwrap();
        assert!(
            iters <= 2 * (256f64).log2() as usize + 2,
            "iterations {iters} not logarithmic"
        );
        assert!(iters >= 4, "suspiciously fast: {iters}");
    }

    #[test]
    fn aggregate_sum() {
        let g = generators::path(10);
        let mut cl = cluster_for(&g);
        let dg = DistributedGraph::distribute(&g, &mut cl).unwrap();
        let total = dg
            .aggregate(&mut cl, &[1u64; 10], |a, b| a + b)
            .unwrap()
            .unwrap();
        assert_eq!(total, 10);
    }

    #[test]
    fn armed_fail_fast_crash_surfaces_from_primitive() {
        use crate::faults::{FaultPlan, RecoveryPolicy};
        let g = generators::cycle(64);
        let mut cl = cluster_for(&g);
        let dg = DistributedGraph::distribute(&g, &mut cl).unwrap();
        cl.arm_faults(
            FaultPlan::quiet(Seed(5)).crash(0, cl.stats().rounds + 1),
            RecoveryPolicy::FailFast,
        );
        let err = dg.count_nodes(&mut cl).unwrap_err();
        assert!(matches!(err, MpcError::MachineFailed { machine: 0, .. }));
    }

    #[test]
    fn armed_restart_crash_charges_and_recovers() {
        use crate::faults::{FaultPlan, RecoveryPolicy};
        let g = generators::cycle(64);

        let mut clean = cluster_for(&g);
        let dg = DistributedGraph::distribute(&g, &mut clean).unwrap();
        let (labels_clean, _) = dg.cc_labels(&mut clean).unwrap();
        let clean_stats = clean.stats().clone();

        let mut faulty = cluster_for(&g);
        let dg2 = DistributedGraph::distribute(&g, &mut faulty).unwrap();
        faulty.arm_faults(
            FaultPlan::quiet(Seed(5)).crash(2, faulty.stats().rounds + 3),
            RecoveryPolicy::restart(4),
        );
        let (labels_faulty, _) = dg2.cc_labels(&mut faulty).unwrap();

        assert_eq!(labels_clean, labels_faulty, "recovery preserves output");
        assert!(matches!(
            faulty.events(),
            [crate::ClusterEvent::Recovery(_)]
        ));
        assert!(
            faulty.stats().rounds > clean_stats.rounds,
            "recovery must cost rounds: {} vs {}",
            faulty.stats().rounds,
            clean_stats.rounds
        );
        assert!(
            faulty.stats().total_words > clean_stats.total_words,
            "recovery must cost words"
        );
    }

    #[test]
    fn armed_straggler_stalls_the_barrier() {
        use crate::faults::{FaultPlan, RecoveryPolicy};
        let g = generators::cycle(32);
        let mut cl = cluster_for(&g);
        let dg = DistributedGraph::distribute(&g, &mut cl).unwrap();
        let before = cl.stats().rounds;
        cl.arm_faults(
            FaultPlan::quiet(Seed(5)).straggle(1, before + 1, 7),
            RecoveryPolicy::FailFast,
        );
        dg.count_nodes(&mut cl).unwrap();
        let d = cl.tree_depth();
        assert_eq!(
            cl.stats().rounds,
            before + d + 7,
            "a 7-round straggler stalls the barrier for everyone"
        );
    }
}
