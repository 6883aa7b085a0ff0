//! Million-vertex scale workloads over streaming CSR ingestion.
//!
//! The [`crate::distributed`] primitives are faithful to the paper's
//! accounting but carry a materialized [`csmpc_graph::Graph`] (IDs and
//! names beside its CSR spine) plus per-node placement and component
//! tables — fine at the conformance-suite sizes (n ≤ 4000), prohibitive
//! at n = 10⁶. This module is the scale path: inputs arrive as a
//! [`StreamFamily`] and are ingested straight into a [`CsrAdjacency`]
//! (two passes over the edge stream, one for a random tree; no
//! intermediate `Graph`), node *names are node indices*, and every
//! per-vertex sweep writes into a caller-held [`ScaleWorkspace`] buffer
//! via [`csmpc_parallel::par_map_range_into`]. Both paths' connectivity
//! runs the one pointer-jumping sweep `hook_jump` on `u32` ranks: here
//! with the identity rank map, on the materialized path over name ranks.
//! Its hook fills its output in contiguous blocks of nodes
//! ([`csmpc_parallel::par_fill_blocks`]) and walks each block's CSR rows
//! with one running offset ([`CsrAdjacency::rows`]). [`luby_mis`] and
//! [`ball_coloring`] sweep only a frontier, the ascending list of
//! still-undecided vertices, so late rounds cost what is left, not `n`.
//! Their hot loops carry no data-dependent branch: a sweep or-accumulates
//! its flag over the whole row (a coloring row of 64 or more neighbors
//! aside), and compaction writes every vertex and advances by its keep
//! flag. Both compute exactly what an early-exit loop would, so outputs
//! and ledgers are unchanged.
//! The workspace holds 22 bytes per vertex at rest: priorities are mixed
//! inline, coloring's short rows read a one-byte shadow of each color
//! instead of the `u32` color, and cc keeps its ranks in the frontier
//! buffer and its hook
//! output in the frontier kernels' result buffer. The cc jump updates the
//! ranks in place and answers the convergence check itself; the ranks
//! are widened into the `u64` `label` output once, at the end.
//!
//! Steady-state contract: after the first repetition at a fixed topology
//! has warmed the workspace, further repetitions allocate **nothing** on
//! the hot path in [`crate::ParallelismMode::Sequential`] (ci.sh enforces this
//! with the `alloc-count` feature; parallel dispatch adds only the O(1)
//! pool control blocks documented on `par_map_range_into`).
//!
//! Round accounting mirrors [`crate::distributed`]: each measured
//! iteration of a sweep primitive charges `2d` rounds
//! (`d = ⌈log_S M⌉`), ingestion charges 1 round plus the graph's word
//! footprint, and every iteration passes through
//! [`Cluster::advance_rounds`] so armed fault plans strike here exactly
//! as they do on the materialized path.
//!
//! Determinism: every sweep is a pure per-vertex map over the previous
//! iteration's buffers, materialized in vertex (or frontier-list) order
//! and written back sequentially — bit-identical across
//! [`crate::ParallelismMode`]s and worker counts. Randomness (Luby
//! priorities, coloring priorities) flows from an explicit
//! [`Seed`] through a stateless splitmix-style mix, so a seed
//! replays the same run.

use crate::cluster::{Cluster, MpcError};
use crate::phase::{PhaseTimer, PhaseTimes};
use csmpc_graph::rng::Seed;
use csmpc_graph::{CsrAdjacency, InvalidFamily, StreamFamily};
use csmpc_parallel::{par_fill_blocks, par_map_range_into, par_update_any, ParallelismMode};

/// Sentinel for a vertex not yet colored by [`ball_coloring`].
const UNCOLORED: u32 = u32::MAX;

/// [`ScaleWorkspace::shade`] of a vertex not yet colored.
const UNCOLORED_SHADE: u8 = u8::MAX;

/// The one-byte shadow of color `c`: `c` itself below 64, 64 for any
/// larger color, and [`UNCOLORED_SHADE`] for [`UNCOLORED`].
fn shade_of(c: u32) -> u8 {
    (c.min(64) as u8) | (u8::from(c == UNCOLORED) * UNCOLORED_SHADE)
}

/// Reusable per-vertex buffers for the scale workloads.
///
/// All buffers grow to the largest `n` seen and are never shrunk; a
/// second run at the same topology performs no heap allocation on the
/// sweep path ([`crate::ParallelismMode::Sequential`]). One workspace serves all
/// three workloads — they share buffers, so results live in the workspace
/// only until the next call. Warm, it holds 22 bytes per vertex: `label`
/// (`u64`), `state` and `shade` (`u8`), and `color`, `active` and
/// `results` (`u32`).
#[derive(Debug, Default)]
pub struct ScaleWorkspace {
    /// Component labels ([`cc_labels`] output: minimum node index in the
    /// component).
    pub label: Vec<u64>,
    /// MIS state ([`luby_mis`] output): 0 undecided, 1 in the MIS, 2 out.
    pub state: Vec<u8>,
    /// Vertex colors ([`ball_coloring`] output).
    pub color: Vec<u32>,
    /// One byte per vertex mirroring `color` exactly for the uncolored
    /// and colors below 64 ([`shade_of`]), so a short coloring row builds
    /// its mask from a quarter of the bytes.
    shade: Vec<u8>,
    /// The frontier: still-undecided vertices, ascending. Also cc's
    /// working ranks: [`cc_labels`] pointer-jumps here and widens the
    /// result into `label` once it has converged.
    active: Vec<u32>,
    /// Per-round sweep results, one per `active` entry, in list order;
    /// [`cc_labels`] uses it as the hook's output.
    results: Vec<u32>,
}

impl ScaleWorkspace {
    /// A workspace with no capacity; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Stateless splitmix-style mixer: the per-vertex hash behind Luby and
/// Jones–Plassmann priorities. Every bit flows from the caller's [`Seed`]
/// (plus a salt identifying the round), so runs replay exactly.
fn mix(seed: u64, salt: u64, v: u64) -> u64 {
    let mut z =
        seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streams `family` into a [`CsrAdjacency`] and charges the ingestion to
/// the ledger: 1 round, the graph's word footprint (`2n + 2m`) spread
/// evenly over machines, and a space-feasibility check on the per-machine
/// share. The intermediate [`csmpc_graph::Graph`] is never materialized.
///
/// Attributed to the route phase (it is data placement, not computation).
///
/// # Errors
///
/// Before anything is allocated, whatever [`StreamFamily::validate`]
/// refuses: [`MpcError::MalformedInput`] if the spec breaks its family's
/// shape rule (a `Cycle` below 3 nodes, a `TwoCycles` with odd `n` or
/// `n < 6`), and [`MpcError::InputTooLarge`] if the CSR's `u32` offsets
/// cannot index its `2m` directed edges (which also bounds `n`). Then
/// [`MpcError::SpaceExceeded`] if a machine's share of the input does not
/// fit in `S`, and [`MpcError::MachineFailed`] from an armed fault plan.
pub fn ingest(family: StreamFamily, cluster: &mut Cluster) -> Result<CsrAdjacency, MpcError> {
    family.validate().map_err(|e| {
        let reason = format!("{} input: {e}", family.name());
        match e {
            InvalidFamily::Malformed(_) => MpcError::MalformedInput { reason },
            InvalidFamily::TooLarge(_) => MpcError::InputTooLarge { reason },
        }
    })?;
    let timer = PhaseTimer::start();
    let csr = family.stream_csr();
    let words = 2 * family.n() + 2 * family.m();
    cluster.advance_rounds(1)?;
    let per_machine = words.div_ceil(cluster.num_machines().max(1));
    cluster.charge_words(per_machine, words as u64);
    cluster.require_fits(per_machine)?;
    cluster.record_phase(&PhaseTimes {
        route_ns: timer.elapsed_ns(),
        ..PhaseTimes::default()
    });
    Ok(csr)
}

/// One pointer-jumping iteration, the sweep behind every cc-labels path.
///
/// Labels are `u32` *ranks* below `n`: `node_of(r)` is the node a label
/// `r` points at. The hook writes into `next` the minimum of `label` over
/// every closed neighborhood, so `next[t] ≤ label[t]` at every node. It
/// fills `next` in contiguous blocks of nodes and walks each block's CSR
/// rows with one running offset ([`CsrAdjacency::rows`]). The jump then
/// writes `min(next[v], next[t])` for `t = node_of(next[v])` straight into
/// `label`: it reads no other vertex's `label`, so the update is in place,
/// and each iteration doubles the reach. Both are pure per-vertex maps,
/// bit-identical in every [`ParallelismMode`]. Returns whether any label
/// changed; the caller charges the iteration and stops when none did.
pub(crate) fn hook_jump<F>(
    mode: ParallelismMode,
    csr: &CsrAdjacency,
    label: &mut [u32],
    next: &mut Vec<u32>,
    node_of: F,
) -> bool
where
    F: Fn(u32) -> usize + Sync,
{
    let lab: &[u32] = label;
    par_fill_blocks(mode, csr.n(), next, |lo, block| {
        let hi = lo + block.len();
        for ((nv, row), &own) in block.iter_mut().zip(csr.rows(lo, hi)).zip(&lab[lo..hi]) {
            *nv = row.iter().fold(own, |m, &w| m.min(lab[w as usize]));
        }
    });
    let next: &[u32] = next;
    par_update_any(mode, label, |v, lv| {
        let nv = next[v];
        let jumped = nv.min(next[node_of(nv)]);
        let changed = jumped != *lv;
        *lv = jumped;
        changed
    })
}

/// Connected-component labels by pointer jumping, the scale analogue of
/// [`crate::DistributedGraph::cc_labels`]. Node names are node indices,
/// so `hook_jump` runs with the identity rank map. On return
/// `ws.label[v]` is the minimum node index in `v`'s component. Charges
/// `2d` rounds per measured iteration; returns the iteration count.
///
/// The ranks live in the workspace's frontier buffer `active` and the
/// hook's scratch in `results`, both `u32`; `label` is written once, when
/// the sweep has converged, and that widening is timed with the sweep.
///
/// Bit-identical to the materialized primitive on any graph whose node
/// names equal node indices (every seeded [`StreamFamily`] qualifies).
///
/// # Errors
///
/// [`MpcError::MachineFailed`] from an armed fault plan.
///
/// # Panics
///
/// If `csr` has more nodes than a `u32` rank can name.
pub fn cc_labels(
    cluster: &mut Cluster,
    csr: &CsrAdjacency,
    ws: &mut ScaleWorkspace,
) -> Result<usize, MpcError> {
    let n = csr.n();
    let ranks = u32::try_from(n).expect("a u32 rank names every node");
    let mode = cluster.config().parallelism;
    let d = cluster.tree_depth();
    // cc has no frontier: `active` holds its ranks and `results` the
    // hook's output. The frontier kernels refill both before reading.
    let ScaleWorkspace {
        label,
        active,
        results,
        ..
    } = ws;
    // Reserve the output first, so a fresh workspace allocates `label`,
    // `active` and `results` in that order. Under glibc's allocator,
    // allocating `label` last instead raised scale-1m's peak RSS from 42.6
    // to 46.3 MB in short runs.
    label.clear();
    label.reserve(n);
    active.clear();
    active.extend(0..ranks);
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        cluster.advance_rounds(2 * d)?;
        if !cluster.time_step(|| hook_jump(mode, csr, active, results, |r| r as usize)) {
            break;
        }
    }
    let ranks: &[u32] = active;
    cluster.time_step(|| par_map_range_into(mode, n, label, |v| u64::from(ranks[v])));
    Ok(iterations)
}

/// Sweeps `f` over the frontier into `results`, in list order: a pure
/// per-vertex map over the previous round's buffers.
fn sweep_frontier<F>(mode: ParallelismMode, active: &[u32], results: &mut Vec<u32>, f: F)
where
    F: Fn(usize) -> u32 + Sync,
{
    par_map_range_into(mode, active.len(), results, |i| f(active[i] as usize));
}

/// Hands each sweep result to `commit` in list order and compacts the
/// frontier to the vertices for which `commit` returns `true` (still
/// undecided). Compaction keeps the frontier ascending.
///
/// Branch-free: every vertex is written to slot `kept`, which only
/// advances past a kept one (`kept <= i`, so no unread entry is
/// overwritten). The callers commit without branching too: a vertex that
/// stays undecided gets its undecided value written back, which changes
/// nothing.
fn commit_frontier<C>(active: &mut Vec<u32>, results: &[u32], mut commit: C)
where
    C: FnMut(usize, u32) -> bool,
{
    let mut kept = 0usize;
    for (i, &r) in results.iter().enumerate() {
        let v = active[i];
        active[kept] = v;
        kept += usize::from(commit(v as usize, r));
    }
    active.truncate(kept);
}

/// `a < b` on `(priority, index)` pairs, lexicographically, without a
/// branch.
fn precedes(a: (u64, u32), b: (u64, u32)) -> bool {
    (a.0 < b.0) | ((a.0 == b.0) & (a.1 < b.1))
}

/// Luby's maximal independent set. Per round every undecided vertex draws
/// a fresh seeded priority; strict local minima (ties broken by index)
/// join the set and their neighbors drop out. On return `ws.state[v]` is
/// 1 (in the MIS) or 2 (out). Charges `2d` rounds per measured round;
/// returns `(mis_size, rounds)`.
///
/// Each round sweeps only the frontier of undecided vertices, mixing
/// priorities inline; the frontier's length is the convergence check.
/// Terminates because the global minimum among undecided vertices is
/// always a local minimum, so every round decides at least one vertex.
///
/// # Errors
///
/// [`MpcError::MachineFailed`] from an armed fault plan.
pub fn luby_mis(
    cluster: &mut Cluster,
    csr: &CsrAdjacency,
    seed: Seed,
    ws: &mut ScaleWorkspace,
) -> Result<(usize, usize), MpcError> {
    let n = csr.n();
    let mode = cluster.config().parallelism;
    let d = cluster.tree_depth();
    let ScaleWorkspace {
        state,
        active,
        results,
        ..
    } = ws;
    par_map_range_into(mode, n, state, |_| 0u8);
    active.clear();
    active.extend(0..n as u32);
    let mut rounds = 0usize;
    let mut size = 0usize;
    while !active.is_empty() {
        rounds += 1;
        cluster.advance_rounds(2 * d)?;
        cluster.time_step(|| {
            let salt = rounds as u64;
            // Join: an undecided strict local minimum of (priority, index)
            // enters the MIS. Adjacent vertices are strictly ordered, so two
            // neighbors can never join in the same round.
            {
                let st: &[u8] = state;
                sweep_frontier(mode, active, results, |v| {
                    let pv = (mix(seed.0, salt, v as u64), v as u32);
                    let beaten = csr.neighbors(v).iter().fold(false, |beaten, &w| {
                        let pw = (mix(seed.0, salt, u64::from(w)), w);
                        beaten | ((st[w as usize] == 0) & precedes(pw, pv))
                    });
                    u32::from(!beaten)
                });
            }
            commit_frontier(active, results, |v, joined| {
                state[v] = joined as u8;
                size += joined as usize;
                joined == 0
            });
            // Retire: an undecided vertex adjacent to any MIS member is out.
            {
                let st: &[u8] = state;
                sweep_frontier(mode, active, results, |v| {
                    let row = csr.neighbors(v);
                    u32::from(
                        row.iter()
                            .fold(false, |any, &w| any | (st[w as usize] == 1)),
                    )
                });
            }
            commit_frontier(active, results, |v, retired| {
                state[v] = (retired as u8) << 1;
                retired == 0
            });
        });
    }
    Ok((size, rounds))
}

/// One Jones–Plassmann step at a vertex of priority pair `pv` with
/// neighbors `nbrs`: [`UNCOLORED`] if an uncolored neighbor outranks it,
/// else the smallest color no colored neighbor uses.
///
/// A row shorter than 64 takes one branch-free pass over the neighbors'
/// `shades` that builds both the blocked flag and a one-word exclusion
/// mask: the answer is then below 64, so larger neighbor colors (shade
/// 64) and [`UNCOLORED_SHADE`] cannot block it. Longer rows read
/// `colors`, stop at the first outranking neighbor and probe colors
/// upward.
fn jones_plassmann_step<P>(
    pv: (u64, u32),
    nbrs: &[u32],
    colors: &[u32],
    shades: &[u8],
    priority: P,
) -> u32
where
    P: Fn(u32) -> u64,
{
    let outranks = |w: u32| precedes(pv, (priority(w), w));
    if nbrs.len() < 64 {
        let (mut blocked, mut mask) = (false, 0u64);
        for &w in nbrs {
            let s = shades[w as usize];
            blocked |= (s == UNCOLORED_SHADE) & outranks(w);
            mask |= u64::from(s < 64) << (s & 63);
        }
        return if blocked {
            UNCOLORED
        } else {
            (!mask).trailing_zeros()
        };
    }
    if nbrs
        .iter()
        .any(|&w| (colors[w as usize] == UNCOLORED) & outranks(w))
    {
        return UNCOLORED;
    }
    let mut c = 0u32;
    'probe: loop {
        for &w in nbrs {
            if colors[w as usize] == c {
                c += 1;
                continue 'probe;
            }
        }
        return c;
    }
}

/// Jones–Plassmann greedy coloring — the scale member of the
/// ball-coloring workload family. Priorities are fixed per vertex
/// (seeded); each round, every uncolored vertex that is a strict local
/// maximum of (priority, index) among its *uncolored* neighbors takes the
/// smallest color unused by its colored neighbors. Each round sweeps only
/// the frontier of uncolored vertices. On return `ws.color[v]` is `v`'s
/// color. Charges `2d` rounds per measured round; returns
/// `(colors_used, rounds)`.
///
/// The coloring is proper: a local maximum's uncolored neighbors stay
/// uncolored that round (they see the maximum above them), and its
/// colored neighbors are exactly the set the greedy choice excludes.
///
/// # Errors
///
/// [`MpcError::MachineFailed`] from an armed fault plan.
pub fn ball_coloring(
    cluster: &mut Cluster,
    csr: &CsrAdjacency,
    seed: Seed,
    ws: &mut ScaleWorkspace,
) -> Result<(u32, usize), MpcError> {
    let n = csr.n();
    let mode = cluster.config().parallelism;
    let d = cluster.tree_depth();
    let ScaleWorkspace {
        color,
        shade,
        active,
        results,
        ..
    } = ws;
    let priority = |v: u32| mix(seed.0, 0x636f_6c6f_7269_6e67, u64::from(v));
    par_map_range_into(mode, n, color, |_| UNCOLORED);
    par_map_range_into(mode, n, shade, |_| UNCOLORED_SHADE);
    active.clear();
    active.extend(0..n as u32);
    let mut rounds = 0usize;
    let mut used = 0u32;
    while !active.is_empty() {
        rounds += 1;
        cluster.advance_rounds(2 * d)?;
        cluster.time_step(|| {
            {
                let (col, sh): (&[u32], &[u8]) = (color, shade);
                sweep_frontier(mode, active, results, |v| {
                    let pv = (priority(v as u32), v as u32);
                    jones_plassmann_step(pv, csr.neighbors(v), col, sh, priority)
                });
            }
            // An uncolored result writes UNCOLORED back and wraps to 0.
            commit_frontier(active, results, |v, c| {
                color[v] = c;
                shade[v] = shade_of(c);
                used = used.max(c.wrapping_add(1));
                c == UNCOLORED
            });
        });
    }
    Ok((used, rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;
    use crate::faults::{FaultPlan, RecoveryPolicy};
    use csmpc_parallel::ParallelismMode;

    fn cluster_for(family: StreamFamily, mode: ParallelismMode) -> Cluster {
        let words = 2 * family.n() + 2 * family.m();
        let cfg = MpcConfig {
            parallelism: mode,
            ..MpcConfig::with_phi(0.5)
        };
        Cluster::new(cfg, family.n(), words, Seed(7))
    }

    /// Union-find oracle: minimum node index per component.
    fn oracle_labels(csr: &CsrAdjacency) -> Vec<u64> {
        let n = csr.n();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for v in 0..n {
            for &w in csr.neighbors(v) {
                let (a, b) = (find(&mut parent, v), find(&mut parent, w as usize));
                // Union by min so the root is the component minimum.
                let (lo, hi) = (a.min(b), a.max(b));
                parent[hi] = lo;
            }
        }
        (0..n).map(|v| find(&mut parent, v) as u64).collect()
    }

    fn families() -> Vec<StreamFamily> {
        vec![
            StreamFamily::Path { n: 97 },
            StreamFamily::Cycle { n: 64 },
            StreamFamily::TwoCycles { n: 120 },
            StreamFamily::Star { leaves: 50 },
            StreamFamily::Hypercube { dim: 6 },
            StreamFamily::RandomTree {
                n: 150,
                seed: Seed(11),
            },
        ]
    }

    #[test]
    fn cc_labels_match_union_find_oracle() {
        for family in families() {
            let mut cl = cluster_for(family, ParallelismMode::Sequential);
            let mut ws = ScaleWorkspace::new();
            let csr = ingest(family, &mut cl).unwrap();
            let iters = cc_labels(&mut cl, &csr, &mut ws).unwrap();
            assert!(iters >= 1);
            assert_eq!(ws.label, oracle_labels(&csr), "family {}", family.name());
            assert!(cl.stats().rounds > 1, "rounds must be charged");
        }
    }

    #[test]
    fn luby_mis_is_independent_and_maximal() {
        for family in families() {
            let mut cl = cluster_for(family, ParallelismMode::Sequential);
            let mut ws = ScaleWorkspace::new();
            let csr = ingest(family, &mut cl).unwrap();
            let (size, rounds) = luby_mis(&mut cl, &csr, Seed(3), &mut ws).unwrap();
            assert!(rounds >= 1 || csr.n() == 0);
            assert_eq!(size, ws.state.iter().filter(|&&s| s == 1).count());
            for v in 0..csr.n() {
                assert_ne!(ws.state[v], 0, "every vertex decided");
                if ws.state[v] == 1 {
                    for &w in csr.neighbors(v) {
                        assert_ne!(ws.state[w as usize], 1, "independence at {v}-{w}");
                    }
                } else {
                    let covered = csr.neighbors(v).iter().any(|&w| ws.state[w as usize] == 1);
                    assert!(covered, "maximality: {v} is out with no MIS neighbor");
                }
            }
        }
    }

    #[test]
    fn ball_coloring_is_proper_and_bounded() {
        for family in families() {
            let mut cl = cluster_for(family, ParallelismMode::Sequential);
            let mut ws = ScaleWorkspace::new();
            let csr = ingest(family, &mut cl).unwrap();
            let (used, _rounds) = ball_coloring(&mut cl, &csr, Seed(5), &mut ws).unwrap();
            let max_deg = (0..csr.n()).map(|v| csr.degree(v)).max().unwrap_or(0);
            assert!(used as usize <= max_deg + 1, "family {}", family.name());
            for v in 0..csr.n() {
                assert_ne!(ws.color[v], UNCOLORED);
                for &w in csr.neighbors(v) {
                    assert_ne!(ws.color[v], ws.color[w as usize], "edge {v}-{w}");
                }
            }
        }
    }

    #[test]
    fn high_degree_probe_path_matches_mask_path() {
        // A star center has degree >= 64, exercising the probe loop in
        // `jones_plassmann_step`; leaves exercise the mask path.
        let family = StreamFamily::Star { leaves: 80 };
        let mut cl = cluster_for(family, ParallelismMode::Sequential);
        let mut ws = ScaleWorkspace::new();
        let csr = ingest(family, &mut cl).unwrap();
        let (used, _) = ball_coloring(&mut cl, &csr, Seed(9), &mut ws).unwrap();
        assert_eq!(used, 2, "a star is 2-colorable");
    }

    #[test]
    fn modes_agree_bit_identically() {
        for family in families() {
            let mut results: Vec<(Vec<u64>, Vec<u8>, Vec<u32>)> = Vec::new();
            for mode in [ParallelismMode::Sequential, ParallelismMode::Parallel] {
                let mut cl = cluster_for(family, mode);
                let mut ws = ScaleWorkspace::new();
                let csr = ingest(family, &mut cl).unwrap();
                cc_labels(&mut cl, &csr, &mut ws).unwrap();
                luby_mis(&mut cl, &csr, Seed(3), &mut ws).unwrap();
                ball_coloring(&mut cl, &csr, Seed(5), &mut ws).unwrap();
                results.push((ws.label.clone(), ws.state.clone(), ws.color.clone()));
            }
            assert_eq!(results[0], results[1], "family {}", family.name());
        }
    }

    #[test]
    fn matches_distributed_cc_labels_on_identity_names() {
        // The materialized primitive labels by minimum *name*; seeded
        // families name nodes by index, so the two paths agree exactly.
        use crate::distributed::{graph_words, DistributedGraph};
        let family = StreamFamily::TwoCycles { n: 40 };
        let g = family.materialize();
        let mut cl = Cluster::new(MpcConfig::with_phi(0.5), g.n(), graph_words(&g), Seed(7));
        let dg = DistributedGraph::distribute(&g, &mut cl).unwrap();
        let (dist_labels, _) = dg.cc_labels(&mut cl).unwrap();

        let mut cl2 = cluster_for(family, ParallelismMode::Sequential);
        let mut ws = ScaleWorkspace::new();
        let csr = ingest(family, &mut cl2).unwrap();
        cc_labels(&mut cl2, &csr, &mut ws).unwrap();
        assert_eq!(ws.label, dist_labels);
    }

    #[test]
    fn armed_faults_strike_scale_sweeps() {
        let family = StreamFamily::Cycle { n: 32 };
        let mut cl = cluster_for(family, ParallelismMode::Sequential);
        cl.arm_faults(
            FaultPlan::quiet(Seed(1)).crash(0, 2),
            RecoveryPolicy::FailFast,
        );
        let mut ws = ScaleWorkspace::new();
        let csr = ingest(family, &mut cl).unwrap();
        let err = cc_labels(&mut cl, &csr, &mut ws).unwrap_err();
        assert!(matches!(err, MpcError::MachineFailed { .. }));
    }

    #[test]
    fn ingest_refuses_inputs_beyond_the_rank_space() {
        // Only the closed-form counts are read: none of these is built.
        // 2m <= u32::MAX bounds n too, so every refusal names the edges.
        let edges = "edges need more than the 4294967295 directed edge slots a CSR can index";
        let overflow = "more edges than usize can count";
        for (family, why) in [
            (StreamFamily::Path { n: 1 << 33 }, edges),
            (StreamFamily::Path { n: (1 << 31) + 1 }, edges),
            (StreamFamily::Cycle { n: 1 << 33 }, edges),
            (StreamFamily::TwoCycles { n: 1 << 31 }, edges),
            (StreamFamily::Star { leaves: 1 << 32 }, edges),
            (StreamFamily::Star { leaves: usize::MAX }, edges),
            (StreamFamily::Hypercube { dim: 28 }, edges),
            (StreamFamily::Hypercube { dim: 40 }, edges),
            (StreamFamily::Hypercube { dim: 64 }, overflow),
            (
                StreamFamily::RandomTree {
                    n: usize::MAX,
                    seed: Seed(1),
                },
                edges,
            ),
        ] {
            let mut cl = cluster_for(StreamFamily::Path { n: 8 }, ParallelismMode::Sequential);
            let err = ingest(family, &mut cl).unwrap_err();
            let MpcError::InputTooLarge { reason } = &err else {
                panic!("{}: expected InputTooLarge, got {err:?}", family.name());
            };
            assert!(reason.starts_with(family.name()), "{reason}");
            assert!(reason.contains(why), "{reason}");
            assert_eq!(cl.stats().rounds, 0, "{reason}: refused before charging");
        }
    }

    /// `ingest` refuses each of `families` with a [`MpcError::MalformedInput`]
    /// naming the family and containing `why`, before charging anything.
    fn assert_malformed(families: &[StreamFamily], why: &str) {
        for &family in families {
            let mut cl = cluster_for(StreamFamily::Path { n: 8 }, ParallelismMode::Sequential);
            let err = ingest(family, &mut cl).unwrap_err();
            let MpcError::MalformedInput { reason } = &err else {
                panic!("{family:?}: expected MalformedInput, got {err:?}");
            };
            assert!(reason.starts_with(family.name()), "{reason}");
            assert!(reason.contains(why), "{reason}");
            assert_eq!(cl.stats().rounds, 0, "{reason}: refused before charging");
        }
    }

    const TWO_CYCLES_NEED: &str = "two cycles need an even node count of at least 6";

    #[test]
    fn ingest_refuses_cycles_below_three_nodes() {
        let small = [0, 1, 2].map(|n| StreamFamily::Cycle { n });
        assert_malformed(&small, "a cycle needs at least 3 nodes");
        let family = StreamFamily::Cycle { n: 3 };
        let mut cl = cluster_for(family, ParallelismMode::Sequential);
        assert_eq!(ingest(family, &mut cl).unwrap().n(), 3);
    }

    #[test]
    fn ingest_refuses_two_cycles_below_six_nodes() {
        let small = [0, 2, 4].map(|n| StreamFamily::TwoCycles { n });
        assert_malformed(&small, TWO_CYCLES_NEED);
        let family = StreamFamily::TwoCycles { n: 6 };
        let mut cl = cluster_for(family, ParallelismMode::Sequential);
        assert_eq!(ingest(family, &mut cl).unwrap().n(), 6);
    }

    #[test]
    fn ingest_refuses_odd_two_cycles() {
        // The last is also beyond the rank space: the shape is reported.
        let odd = [5, 7, 1001, (1 << 33) + 1].map(|n| StreamFamily::TwoCycles { n });
        assert_malformed(&odd, TWO_CYCLES_NEED);
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let family = StreamFamily::Path { n: 0 };
        let mut cl = cluster_for(family, ParallelismMode::Sequential);
        let mut ws = ScaleWorkspace::new();
        let csr = ingest(family, &mut cl).unwrap();
        assert_eq!(cc_labels(&mut cl, &csr, &mut ws).unwrap(), 1);
        let (size, _) = luby_mis(&mut cl, &csr, Seed(1), &mut ws).unwrap();
        assert_eq!(size, 0);
        let (used, _) = ball_coloring(&mut cl, &csr, Seed(1), &mut ws).unwrap();
        assert_eq!(used, 0);
    }
}
