//! Which phase each accounted primitive books its wall time to.
//!
//! [`PhaseTimes`] is observability only, so no bit-identity suite reads
//! it. This suite pins the booking instead: `scale::ingest` moves only
//! `route_ns`, and every scale kernel and `DistributedGraph::{cc_labels,
//! neighbor_reduce, collect_balls}` grows `step_ns` while leaving route,
//! intake, merge and checkpoint where they were. Inputs have 2¹⁴ nodes,
//! so every sweep takes microseconds and a zero reading means a lost
//! booking, not a fast one.

use csmpc_graph::rng::Seed;
use csmpc_graph::{generators, StreamFamily};
use csmpc_mpc::{
    graph_words, scale, Cluster, DistributedGraph, MpcConfig, ParallelismMode, PhaseTimes,
    ScaleWorkspace,
};

const N: usize = 1 << 14;

fn cluster(n: usize, words: usize) -> Cluster {
    let cfg = MpcConfig {
        parallelism: ParallelismMode::Sequential,
        ..MpcConfig::with_phi(0.5)
    };
    Cluster::new(cfg, n, words, Seed(11))
}

/// Runs `f` and checks that it grew the step phase and nothing else.
fn books_step_only(what: &str, cl: &mut Cluster, f: impl FnOnce(&mut Cluster)) {
    let before = cl.phase_times();
    f(cl);
    let after = cl.phase_times();
    assert!(
        after.step_ns > before.step_ns,
        "{what} booked no step time: {before} -> {after}"
    );
    assert_eq!(
        PhaseTimes {
            step_ns: before.step_ns,
            ..after
        },
        before,
        "{what} moved a phase other than step"
    );
}

#[test]
fn scale_ingest_books_route_and_kernels_book_step() {
    for (kernel, family) in [
        StreamFamily::TwoCycles { n: N },
        StreamFamily::Cycle { n: N },
        StreamFamily::RandomTree {
            n: N,
            seed: Seed(21),
        },
    ]
    .into_iter()
    .enumerate()
    {
        let mut cl = cluster(family.n(), 2 * family.n() + 2 * family.m());
        let csr = scale::ingest(family, &mut cl).unwrap();
        let booked = cl.phase_times();
        assert!(booked.route_ns > 0, "ingest booked no route time");
        assert_eq!(
            PhaseTimes {
                route_ns: 0,
                ..booked
            },
            PhaseTimes::default(),
            "ingest moved a phase other than route"
        );
        let mut ws = ScaleWorkspace::new();
        books_step_only(family.name(), &mut cl, |cl| match kernel {
            0 => drop(scale::cc_labels(cl, &csr, &mut ws).unwrap()),
            1 => drop(scale::luby_mis(cl, &csr, Seed(3), &mut ws).unwrap()),
            _ => drop(scale::ball_coloring(cl, &csr, Seed(5), &mut ws).unwrap()),
        });
    }
}

#[test]
fn distributed_sweeps_book_step() {
    let g = generators::cycle(N);
    let mut cl = cluster(g.n(), graph_words(&g));
    let dg = DistributedGraph::distribute(&g, &mut cl).unwrap();
    assert!(
        cl.phase_times().route_ns > 0,
        "distribute booked no route time"
    );
    books_step_only("cc_labels", &mut cl, |cl| {
        dg.cc_labels(cl).unwrap();
    });
    let values: Vec<u64> = (0..N as u64).collect();
    books_step_only("neighbor_reduce", &mut cl, |cl| {
        dg.neighbor_reduce(cl, &values, std::cmp::min).unwrap();
    });
    books_step_only("collect_balls", &mut cl, |cl| {
        dg.collect_balls(cl, 1).unwrap();
    });
}
