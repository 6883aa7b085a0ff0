//! The ball cache under concurrent scheduling: hits from one job must
//! never perturb another job's charges or output, results stay
//! bit-identical from 2 to 8 scheduler threads, and the LRU bound holds
//! under contention. The shared [`csmpc_mpc::lru::Lru`] behind [`BallCache`]
//! is unit-tested in its own module.

use csmpc_graph::rng::Seed;
use csmpc_graph::{generators, Graph};
use csmpc_mpc::{BallCache, Cluster, DistributedGraph, MpcConfig, ParallelismMode, Stats};

fn roomy_cluster(g: &Graph, seed: Seed) -> Cluster {
    let cfg = MpcConfig {
        min_space: 512,
        ..MpcConfig::with_phi(0.5)
    };
    Cluster::new(cfg, g.n(), csmpc_mpc::graph_words(g), seed)
}

/// A collected ball set plus the `Stats` ledger the run charged.
type JobResult = (Vec<(Graph, usize)>, Stats);

/// One "job": distribute, collect balls (through the global cache), and
/// return the output bits plus the charged ledger.
fn collect_job(g: &Graph, r: usize, seed: Seed) -> JobResult {
    let mut cl = roomy_cluster(g, seed);
    let dg = DistributedGraph::distribute(g, &mut cl).unwrap();
    let balls = dg.collect_balls(&mut cl, r).unwrap();
    (balls.as_ref().clone(), cl.stats().clone())
}

#[test]
fn concurrent_jobs_share_hits_without_perturbing_charges_or_output() {
    let graphs: Vec<Graph> = vec![
        generators::cycle(24),
        generators::two_cycles(24),
        generators::random_tree(30, Seed(4)),
    ];
    // Solo baselines, computed sequentially.
    let solo: Vec<_> = graphs.iter().map(|g| collect_job(g, 2, Seed(9))).collect();

    for threads in [2, 4, 8] {
        let results: Vec<Vec<JobResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let graphs = &graphs;
                    scope.spawn(move || {
                        // Interleave graph order per thread so hits and
                        // misses race in different patterns.
                        (0..graphs.len())
                            .map(|i| {
                                let g = &graphs[(i + t) % graphs.len()];
                                collect_job(g, 2, Seed(9))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, per_thread) in results.iter().enumerate() {
            for (i, (balls, stats)) in per_thread.iter().enumerate() {
                let (base_balls, base_stats) = &solo[(i + t) % graphs.len()];
                assert_eq!(
                    balls, base_balls,
                    "thread {t} of {threads}: cached output diverged from solo"
                );
                assert_eq!(
                    stats, base_stats,
                    "thread {t} of {threads}: a cache hit changed the charges"
                );
            }
        }
    }
}

#[test]
fn lru_eviction_under_contention_keeps_the_bound_and_the_bits() {
    // A 2-entry cache hammered with 6 distinct keys from 8 threads:
    // capacity must hold at every observation point and every returned
    // set must equal a freshly computed one.
    let cache = BallCache::with_capacity(2);
    let graphs: Vec<Graph> = (0..6).map(|i| generators::cycle(10 + 2 * i)).collect();
    let fresh: Vec<_> = graphs
        .iter()
        .map(|g| {
            BallCache::with_capacity(1)
                .collect(g, 1, ParallelismMode::Sequential)
                .0
        })
        .collect();
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let cache = &cache;
            let graphs = &graphs;
            let fresh = &fresh;
            scope.spawn(move || {
                for round in 0..12 {
                    let i = (t + round) % graphs.len();
                    let (balls, _) = cache.collect(&graphs[i], 1, ParallelismMode::Sequential);
                    assert_eq!(
                        balls.as_ref(),
                        fresh[i].as_ref(),
                        "evicted-and-recomputed set drifted"
                    );
                    assert!(cache.len() <= 2, "LRU bound violated under contention");
                }
            });
        }
    });
    assert!(cache.len() <= 2 && !cache.is_empty());
}
