//! Admission works from a closed-form footprint: a spec's node and edge
//! counts give `graph_words` without building the graph, so a spec too
//! large for the CSR's `u32` edge offsets is refused with a reason before
//! any generator runs, and its healthy peers still complete.
//!
//! One `#[test]` per process: the check that nothing was built reads the
//! process-wide graph store's miss counter.

use csmpc_graph::rng::Seed;
use csmpc_mpc::graph_words;
use csmpc_service::{
    graph_store, GraphSpec, JobService, JobSpec, JobState, ServiceConfig, Workload,
};

fn job(graph: GraphSpec, seed: u64) -> JobSpec {
    JobSpec::basic("acme", Workload::CcLabels, graph, Seed(seed))
}

#[test]
fn oversized_specs_are_rejected_unbuilt_and_footprints_are_closed_form() {
    // Closed form against the built graph, for every valid spec up to 200
    // nodes.
    for n in 0..=200usize {
        for spec in [
            GraphSpec::Cycle { n },
            GraphSpec::Path { n },
            GraphSpec::TwoCycles { n },
            GraphSpec::RandomTree { n, seed: 7 },
            GraphSpec::RandomTree {
                n,
                seed: n as u64 ^ 0xbeef,
            },
        ] {
            if spec.validate().is_err() {
                continue;
            }
            let g = spec.build();
            assert_eq!(spec.nodes(), g.n(), "{spec:?}");
            assert_eq!(spec.edges(), g.m(), "{spec:?}");
            assert_eq!(spec.words(), Some(graph_words(&g)), "{spec:?}");
        }
    }

    // The largest cycle whose 2m directed edges fit u32 is valid; one more
    // node is not. Neither is built.
    let widest = (u32::MAX / 2) as usize;
    assert_eq!(GraphSpec::Cycle { n: widest }.validate(), Ok(()));
    assert!(GraphSpec::Cycle { n: widest + 1 }.validate().is_err());

    let oversized = [
        GraphSpec::Path { n: 1 << 40 },
        GraphSpec::Cycle { n: widest + 1 },
        GraphSpec::TwoCycles { n: usize::MAX - 1 },
        GraphSpec::RandomTree {
            n: usize::MAX,
            seed: 1,
        },
    ];
    let mut specs = Vec::new();
    for (i, &graph) in oversized.iter().enumerate() {
        specs.push(job(graph, i as u64));
        specs.push(job(GraphSpec::TwoCycles { n: 8 }, i as u64));
    }
    let (_, misses_before) = graph_store::global().stats();
    let report = JobService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .run_batch(specs);
    for (k, graph) in oversized.iter().enumerate() {
        let outcome = &report.outcomes[2 * k];
        assert_eq!(outcome.state, JobState::Rejected, "{graph:?}");
        assert_eq!(outcome.attempts, 0, "{graph:?}");
        let reason = outcome.reject_reason.as_deref().unwrap_or_default();
        assert!(
            reason.contains(&format!("{} edges need more than", graph.edges())),
            "{graph:?}: {reason:?}"
        );
        assert_eq!(report.outcomes[2 * k + 1].state, JobState::Completed);
    }
    // Only the healthy peers' one shared graph was ever built.
    let (_, misses_after) = graph_store::global().stats();
    assert_eq!(misses_after - misses_before, 1);
}
