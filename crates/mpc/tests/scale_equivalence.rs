//! Property proof that the frontier-driven scale kernels compute exactly
//! what the full-sweep kernels they replaced computed.
//!
//! `scale::luby_mis` and `scale::ball_coloring` sweep only the list of
//! still-undecided vertices each round, and MIS mixes its priorities
//! inline instead of filling a priority buffer. The oracles below are the
//! full-sweep versions: every round maps over all `n` vertices into a
//! double buffer and counts the undecided ones afterwards. Over every
//! [`StreamFamily`] member, random sizes and seeds, and both parallelism
//! modes, the two must agree on the output vectors, the return values,
//! and the `Stats` ledger.
//!
//! ci.sh runs this suite under `RAYON_NUM_THREADS=4` so the parallel
//! column uses real worker threads even on a single-core runner.

use csmpc_graph::rng::Seed;
use csmpc_graph::{CsrAdjacency, StreamFamily};
use csmpc_mpc::{scale, Cluster, MpcConfig, MpcError, ParallelismMode, ScaleWorkspace};
use csmpc_parallel::par_map_range_into;
use proptest::prelude::*;

const UNCOLORED: u32 = u32::MAX;

fn mix(seed: u64, salt: u64, v: u64) -> u64 {
    let mut z =
        seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn depth(cluster: &Cluster) -> usize {
    cluster
        .config()
        .tree_depth(cluster.input_n(), cluster.num_machines())
}

/// Full-sweep Luby: a priority buffer per round, join and retire sweeps
/// over all `n` vertices, and an undecided count over the whole array.
fn luby_mis_full(
    cluster: &mut Cluster,
    csr: &CsrAdjacency,
    seed: Seed,
    state: &mut Vec<u8>,
) -> Result<(usize, usize), MpcError> {
    let n = csr.n();
    let mode = cluster.config().parallelism;
    let d = depth(cluster);
    let (mut priority, mut state_next) = (Vec::new(), Vec::new());
    par_map_range_into(mode, n, state, |_| 0u8);
    let mut rounds = 0usize;
    let mut undecided = n;
    while undecided > 0 {
        rounds += 1;
        cluster.advance_rounds(2 * d)?;
        let salt = rounds as u64;
        par_map_range_into(mode, n, &mut priority, |v| mix(seed.0, salt, v as u64));
        {
            let st: &[u8] = state;
            let pr: &[u64] = &priority;
            par_map_range_into(mode, n, &mut state_next, |v| {
                if st[v] != 0 {
                    return st[v];
                }
                let pv = (pr[v], v as u32);
                for &w in csr.neighbors(v) {
                    let wi = w as usize;
                    if st[wi] == 0 && (pr[wi], w) < pv {
                        return 0;
                    }
                }
                1
            });
        }
        std::mem::swap(state, &mut state_next);
        {
            let st: &[u8] = state;
            par_map_range_into(mode, n, &mut state_next, |v| {
                if st[v] != 0 {
                    return st[v];
                }
                for &w in csr.neighbors(v) {
                    if st[w as usize] == 1 {
                        return 2;
                    }
                }
                0
            });
        }
        std::mem::swap(state, &mut state_next);
        undecided = state.iter().filter(|&&s| s == 0).count();
    }
    let size = state.iter().filter(|&&s| s == 1).count();
    Ok((size, rounds))
}

fn smallest_free(nbrs: &[u32], colors: &[u32]) -> u32 {
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

/// Full-sweep Jones–Plassmann: every round maps all `n` vertices into a
/// double buffer, then counts the uncolored ones.
fn ball_coloring_full(
    cluster: &mut Cluster,
    csr: &CsrAdjacency,
    seed: Seed,
    color: &mut Vec<u32>,
) -> Result<(u32, usize), MpcError> {
    let n = csr.n();
    let mode = cluster.config().parallelism;
    let d = depth(cluster);
    let mut priority = Vec::new();
    let mut color_next = Vec::new();
    par_map_range_into(mode, n, &mut priority, |v| {
        mix(seed.0, 0x636f_6c6f_7269_6e67, v as u64)
    });
    par_map_range_into(mode, n, color, |_| UNCOLORED);
    let mut rounds = 0usize;
    let mut uncolored = n;
    while uncolored > 0 {
        rounds += 1;
        cluster.advance_rounds(2 * d)?;
        {
            let pr: &[u64] = &priority;
            let col: &[u32] = color;
            par_map_range_into(mode, n, &mut color_next, |v| {
                if col[v] != UNCOLORED {
                    return col[v];
                }
                let pv = (pr[v], v as u32);
                for &w in csr.neighbors(v) {
                    let wi = w as usize;
                    if col[wi] == UNCOLORED && (pr[wi], w) > pv {
                        return UNCOLORED;
                    }
                }
                smallest_free(csr.neighbors(v), col)
            });
        }
        std::mem::swap(color, &mut color_next);
        uncolored = color.iter().filter(|&&c| c == UNCOLORED).count();
    }
    let used = color.iter().map(|&c| c + 1).max().unwrap_or(0);
    Ok((used, rounds))
}

/// Family `kind % 6` at a size derived from `size`, seeded by `seed`.
fn family(kind: usize, size: usize, seed: u64) -> StreamFamily {
    match kind % 6 {
        0 => StreamFamily::Path { n: size },
        1 => StreamFamily::Cycle { n: 3 + size },
        2 => StreamFamily::TwoCycles {
            n: 2 * (3 + size / 2),
        },
        3 => StreamFamily::Star { leaves: size },
        4 => StreamFamily::Hypercube {
            dim: (size % 11) as u32,
        },
        _ => StreamFamily::RandomTree {
            n: size,
            seed: Seed(seed),
        },
    }
}

fn cluster_for(family: StreamFamily, mode: ParallelismMode) -> Cluster {
    let words = 2 * family.n() + 2 * family.m();
    let cfg = MpcConfig {
        parallelism: mode,
        ..MpcConfig::with_phi(0.5)
    };
    Cluster::new(cfg, family.n(), words, Seed(7))
}

/// Runs MIS then coloring then MIS again (a warm, reused workspace, as a
/// repeated caller sees it) through the frontier kernels and the
/// full-sweep oracles, asserting equal outputs, returns and ledgers.
fn assert_frontier_matches_full(fam: StreamFamily, seed: u64, mode: ParallelismMode) {
    let label = format!("{} n={} seed={seed} {mode:?}", fam.name(), fam.n());
    let mut fast = cluster_for(fam, mode);
    let mut slow = cluster_for(fam, mode);
    let csr = scale::ingest(fam, &mut fast).unwrap();
    scale::ingest(fam, &mut slow).unwrap();
    let mut ws = ScaleWorkspace::new();
    let (mut state, mut color) = (Vec::new(), Vec::new());
    for (k, s) in [seed, seed ^ 0x5eed].into_iter().enumerate() {
        let got = scale::luby_mis(&mut fast, &csr, Seed(s), &mut ws).unwrap();
        let want = luby_mis_full(&mut slow, &csr, Seed(s), &mut state).unwrap();
        assert_eq!(got, want, "luby_mis return, {label}");
        assert_eq!(ws.state, state, "luby_mis state, {label}");
        assert_eq!(fast.stats(), slow.stats(), "Stats ledger, {label}");
        if k == 0 {
            let got = scale::ball_coloring(&mut fast, &csr, Seed(s), &mut ws).unwrap();
            let want = ball_coloring_full(&mut slow, &csr, Seed(s), &mut color).unwrap();
            assert_eq!(got, want, "ball_coloring return, {label}");
            assert_eq!(ws.color, color, "ball_coloring color, {label}");
            assert_eq!(fast.stats(), slow.stats(), "Stats ledger, {label}");
        }
    }
}

#[test]
fn every_family_matches_at_pinned_sizes() {
    for kind in 0..6 {
        for size in [0usize, 1, 2, 3, 7, 64, 300] {
            for mode in [ParallelismMode::Sequential, ParallelismMode::Parallel] {
                assert_frontier_matches_full(family(kind, size, 11), 3, mode);
            }
        }
    }
}

proptest! {
    #[test]
    fn frontier_kernels_match_full_sweeps(
        kind in 0usize..6,
        size in 0usize..3000,
        graph_seed in 0u64..1_000_000_000,
        seed in 0u64..1_000_000_000,
    ) {
        let fam = family(kind, size, graph_seed);
        for mode in [ParallelismMode::Sequential, ParallelismMode::Parallel] {
            assert_frontier_matches_full(fam, seed, mode);
        }
    }
}
