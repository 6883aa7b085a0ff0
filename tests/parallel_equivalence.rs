//! Sequential-vs-parallel bit-identity gate.
//!
//! The deterministic parallel execution engine promises that
//! [`ParallelismMode`] changes *only* wall-clock time: outputs, the
//! `Stats` ledger, the provenance log, and the event log are all
//! bit-identical between modes for the same seed — including under an
//! armed fault plan with message drops, duplications, and recovered
//! crashes. This suite pins that contract across every parallelized layer:
//! the exact message-moving engine, the accounted graph primitives, the
//! LOCAL simulators, and the repetition harnesses in `csmpc-core`.
//!
//! Run it with `RAYON_NUM_THREADS=4` (as `ci.sh` does) to force real
//! worker threads even on single-core runners.

use csmpc_algorithms::amplify::StableOneShotIs;
use csmpc_algorithms::api::MpcVertexAlgorithm;
use csmpc_algorithms::luby::TruncatedLubyMis;
use csmpc_algorithms::mpc_edge::BallGreedyColoringMpc;
use csmpc_core::runner::success_probability_with_mode;
use csmpc_graph::rng::Seed;
use csmpc_graph::{generators, ops, Graph};
use csmpc_local::{run_ball_algorithm_with_mode, run_local_with_mode, LocalParams};
use csmpc_mpc::{
    exact_aggregate_sum_with_faults, Cluster, ClusterEvent, DistributedGraph, FaultPlan, MpcConfig,
    MpcError, ParallelismMode, RecoveryPolicy, Stats,
};
use csmpc_problems::mis::LargeIndependentSet;

const MODES: [ParallelismMode; 2] = [ParallelismMode::Sequential, ParallelismMode::Parallel];

/// The chaos-harness input: a small target component next to a larger one,
/// big enough that the sweeps clear the parallel inline cutoff.
fn two_component_graph() -> Graph {
    let target = generators::cycle(8);
    let rest = ops::with_fresh_names(&generators::cycle(40), 500);
    ops::disjoint_union(&[&target, &rest])
}

/// A tight cluster in the given mode (the chaos-harness shape: small space
/// floor so records spread over several machines).
fn cluster_in_mode(g: &Graph, seed: Seed, mode: ParallelismMode) -> Cluster {
    let cfg = MpcConfig {
        min_space: 48,
        parallelism: mode,
        ..Default::default()
    };
    Cluster::new(cfg, g.n(), csmpc_mpc::graph_words(g), seed)
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Observed {
    labels: Vec<u64>,
    stats: Stats,
    provenance: csmpc_mpc::ProvenanceLog,
    events: Vec<ClusterEvent>,
}

fn observe(
    run: impl Fn(&Graph, &mut Cluster) -> Result<Vec<u64>, MpcError>,
    g: &Graph,
    seed: Seed,
    mode: ParallelismMode,
    plan: Option<&FaultPlan>,
) -> Observed {
    let mut cluster = cluster_in_mode(g, seed, mode);
    if let Some(plan) = plan {
        cluster.arm_faults(plan.clone(), RecoveryPolicy::restart(8));
    }
    let labels = run(g, &mut cluster).expect("run failed");
    Observed {
        labels,
        stats: cluster.stats().clone(),
        provenance: cluster.provenance().clone(),
        events: cluster.events().to_vec(),
    }
}

#[test]
fn luby_mis_is_mode_independent() {
    let g = two_component_graph();
    let run = |g: &Graph, cl: &mut Cluster| {
        StableOneShotIs
            .run(g, cl)
            .map(|ls| ls.into_iter().map(u64::from).collect())
    };
    let seq = observe(run, &g, Seed(0xC0DE), ParallelismMode::Sequential, None);
    let par = observe(run, &g, Seed(0xC0DE), ParallelismMode::Parallel, None);
    assert_eq!(seq, par, "Luby MIS diverged between modes");
}

#[test]
fn coloring_and_cc_labels_are_mode_independent() {
    let g = two_component_graph();
    let coloring = |g: &Graph, cl: &mut Cluster| {
        BallGreedyColoringMpc { radius: 3 }
            .run(g, cl)
            .map(|ls| ls.into_iter().map(|c| c as u64).collect())
    };
    let cc = |g: &Graph, cl: &mut Cluster| {
        let dg = DistributedGraph::distribute(g, cl)?;
        let (labels, _) = dg.cc_labels(cl)?;
        Ok(labels)
    };
    for seed in [Seed(0xC0DE), Seed(0xBEEF)] {
        let seq = observe(coloring, &g, seed, ParallelismMode::Sequential, None);
        let par = observe(coloring, &g, seed, ParallelismMode::Parallel, None);
        assert_eq!(seq, par, "ball-greedy coloring diverged between modes");
        let seq = observe(cc, &g, seed, ParallelismMode::Sequential, None);
        let par = observe(cc, &g, seed, ParallelismMode::Parallel, None);
        assert_eq!(seq, par, "cc-labels diverged between modes");
    }
}

#[test]
fn faulted_chaos_plans_are_mode_independent() {
    // The full chaos recipe: randomized crash/straggle plans over a tight
    // cluster, recovered from checkpoints. Both modes must agree on every
    // observable — and at least one plan must actually recover a crash, or
    // the test is vacuous.
    let g = two_component_graph();
    let shared = Seed(0xC0DE);
    let machines = cluster_in_mode(&g, shared, ParallelismMode::Sequential).num_machines();
    let run = |g: &Graph, cl: &mut Cluster| {
        StableOneShotIs
            .run(g, cl)
            .map(|ls| ls.into_iter().map(u64::from).collect())
    };
    let mut recoveries_seen = 0usize;
    for p in 0..10u64 {
        let plan = FaultPlan::random(Seed(0xFA57).derive(p), machines, 3, 1, 1);
        let seq = observe(run, &g, shared, ParallelismMode::Sequential, Some(&plan));
        let par = observe(run, &g, shared, ParallelismMode::Parallel, Some(&plan));
        assert_eq!(seq, par, "plan {p}: faulted run diverged between modes");
        recoveries_seen += usize::from(
            seq.events
                .iter()
                .any(|ev| matches!(ev, ClusterEvent::Recovery(_))),
        );
    }
    assert!(recoveries_seen > 0, "no plan recovered a crash; vacuous");
}

#[test]
fn exact_engine_transport_faults_are_mode_independent() {
    // The exact engine under message drops + duplications + crashes: the
    // transport coin stream is consumed in machine-index order during the
    // sequential merge phase, so the fault pattern must be identical in
    // both modes.
    let values: Vec<u64> = (1..=100).collect();
    let expected: u64 = values.iter().sum();
    let mut per_mode: Vec<(u64, Stats, Vec<ClusterEvent>)> = Vec::new();
    for mode in MODES {
        let cfg = MpcConfig {
            parallelism: mode,
            ..MpcConfig::with_phi(0.5)
        };
        let mut cl = Cluster::new(cfg, 400, 800, Seed(7));
        let plan = FaultPlan::random(Seed(0x5EED).derive(3), cl.num_machines(), 3, 1, 1)
            .with_message_faults(100, 100);
        let (sum, rounds) =
            exact_aggregate_sum_with_faults(&mut cl, &values, &plan, RecoveryPolicy::restart(8))
                .expect("faulted sum failed");
        assert_eq!(sum, expected);
        per_mode.push((rounds as u64, cl.stats().clone(), cl.events().to_vec()));
    }
    assert_eq!(
        per_mode[0], per_mode[1],
        "exact engine diverged under faults"
    );
}

#[test]
fn adversarial_transport_faults_are_mode_independent() {
    // The adversarial transport classes — payload corruption, in-round
    // reordering, and a round-scoped partition — on top of the classic
    // drop/dup faults. Corruption detection counts, retransmission costs,
    // and partition stalls must replay identically in both modes.
    let values: Vec<u64> = (1..=100).collect();
    let expected: u64 = values.iter().sum();
    let mut per_mode: Vec<(u64, Stats, Vec<ClusterEvent>)> = Vec::new();
    for mode in MODES {
        let cfg = MpcConfig {
            parallelism: mode,
            ..MpcConfig::with_phi(0.5)
        };
        let mut cl = Cluster::new(cfg, 400, 800, Seed(7));
        let plan = FaultPlan::random(Seed(0x5EED).derive(9), cl.num_machines(), 3, 1, 1)
            .with_message_faults(100, 100)
            .with_corruption(200)
            .with_reordering(250)
            .partition(1, 2, vec![0]);
        let (sum, rounds) =
            exact_aggregate_sum_with_faults(&mut cl, &values, &plan, RecoveryPolicy::restart(8))
                .expect("adversarial sum failed");
        assert_eq!(sum, expected, "transport faults changed the output");
        per_mode.push((rounds as u64, cl.stats().clone(), cl.events().to_vec()));
    }
    assert_eq!(
        per_mode[0], per_mode[1],
        "exact engine diverged under adversarial transport"
    );
    assert!(
        per_mode[0].1.corrupted_detected > 0,
        "no corruption fired; vacuous"
    );
}

#[test]
fn supervised_recovery_is_mode_independent() {
    // Supervision (speculative re-execution of stragglers, exponential
    // backoff before retries, quarantine after repeated failures) drives
    // the event log, which must be bit-identical
    // across modes, as must the overlay counters in Stats.
    let g = two_component_graph();
    let shared = Seed(0xC0DE);
    let run = |g: &Graph, cl: &mut Cluster| {
        StableOneShotIs
            .run(g, cl)
            .map(|ls| ls.into_iter().map(u64::from).collect::<Vec<u64>>())
    };
    let mut per_mode = Vec::new();
    for mode in MODES {
        let mut cluster = cluster_in_mode(&g, shared, mode);
        cluster.supervise(csmpc_mpc::SupervisorConfig {
            deadline_rounds: 2,
            failure_threshold: 1,
        });
        let plan = FaultPlan::quiet(shared)
            .straggle(1, 2, 9)
            .crash(2, 3)
            .crash(2, 5)
            .crash(2, 7);
        cluster.arm_faults(plan, RecoveryPolicy::restart_with_backoff(4, 2));
        let labels = run(&g, &mut cluster).expect("supervised run failed");
        per_mode.push((
            labels,
            cluster.stats().clone(),
            cluster.events().to_vec(),
            cluster.quarantined_machines().clone(),
        ));
    }
    assert_eq!(
        per_mode[0], per_mode[1],
        "supervised run diverged between modes"
    );
    let (_, stats, events, quarantined) = &per_mode[0];
    assert!(
        stats.speculative_rounds > 0,
        "no speculation fired; vacuous"
    );
    assert!(
        events
            .iter()
            .any(|ev| !matches!(ev, ClusterEvent::Recovery(_))),
        "no supervision event logged; vacuous"
    );
    assert!(!quarantined.is_empty(), "no quarantine fired; vacuous");
}

#[test]
fn scale_workloads_are_mode_independent_at_one_hundred_thousand() {
    // The million-vertex scale path (streaming CSR ingestion, identity
    // names, workspace-backed sweeps) under an armed fault plan whose
    // straggler stalls must replay identically: labels, Stats ledger, and
    // iteration counts all bit-identical between modes at n = 10⁵. ci.sh
    // runs this under forced RAYON_NUM_THREADS=4.
    use csmpc_graph::StreamFamily;
    use csmpc_mpc::{scale, ScaleWorkspace};

    let family = StreamFamily::TwoCycles { n: 100_000 };
    let words = 2 * family.n() + 2 * family.m();
    let mut per_mode = Vec::new();
    for mode in MODES {
        let cfg = MpcConfig {
            parallelism: mode,
            ..Default::default()
        };
        let mut cluster = Cluster::new(cfg, family.n(), words, Seed(0xC0DE));
        cluster.arm_faults(
            FaultPlan::quiet(Seed(0xC0DE)).straggle(1, 3, 5),
            RecoveryPolicy::restart(8),
        );
        let mut ws = ScaleWorkspace::new();
        let csr = scale::ingest(family, &mut cluster).expect("scale ingest");
        let iterations = scale::cc_labels(&mut cluster, &csr, &mut ws).expect("scale cc-labels");
        per_mode.push((ws.label.clone(), iterations, cluster.stats().clone()));
    }
    assert_eq!(
        per_mode[0], per_mode[1],
        "scale cc-labels diverged between modes at n = 100000"
    );
    // Both components must actually be labeled by their minimum index.
    let (labels, _, _) = &per_mode[0];
    assert_eq!(labels[0], 0);
    assert_eq!(labels[99_999], 50_000);

    // The streaming ingestion itself must be bit-identical to the
    // materialized Graph's CSR spine at this scale too.
    let oracle = family.materialize();
    let streamed = family.stream_csr();
    assert_eq!(
        &streamed,
        oracle.csr(),
        "streamed CSR diverged at n = 100000"
    );
}

#[test]
fn local_simulators_are_mode_independent() {
    let g = generators::random_tree(64, Seed(11));
    let params = LocalParams::exact(g.n(), g.max_degree(), Seed(3));

    let alg = TruncatedLubyMis { phases: 2 };
    let seq = run_ball_algorithm_with_mode(&g, &alg, &params, ParallelismMode::Sequential);
    let par = run_ball_algorithm_with_mode(&g, &alg, &params, ParallelismMode::Parallel);
    assert_eq!(seq, par, "ball evaluation diverged between modes");

    // Message-passing engine: flood the max ID for a few rounds. The halt
    // pattern and message counts must match exactly.
    struct MaxIdFlood;
    impl csmpc_local::LocalAlgorithm for MaxIdFlood {
        type State = u64;
        type Message = u64;
        type Output = u64;
        fn init(&self, view: &csmpc_local::NodeView<'_>) -> u64 {
            view.id.0
        }
        fn round(
            &self,
            state: &mut u64,
            _view: &csmpc_local::NodeView<'_>,
            round: usize,
            inbox: &[csmpc_local::Incoming<u64>],
        ) -> csmpc_local::Action<u64, u64> {
            for m in inbox {
                *state = (*state).max(m.msg);
            }
            if round > 3 {
                csmpc_local::Action::Halt(*state)
            } else {
                csmpc_local::Action::Broadcast(*state)
            }
        }
    }
    let seq = run_local_with_mode(&g, &MaxIdFlood, &params, 100, ParallelismMode::Sequential)
        .expect("sequential run");
    let par = run_local_with_mode(&g, &MaxIdFlood, &params, 100, ParallelismMode::Parallel)
        .expect("parallel run");
    assert_eq!(seq.outputs, par.outputs, "LOCAL outputs diverged");
    assert_eq!(seq.rounds, par.rounds, "LOCAL round counts diverged");
    assert_eq!(
        seq.messages_sent, par.messages_sent,
        "LOCAL message counts diverged"
    );
}

#[test]
fn success_probability_is_mode_independent() {
    let g = generators::cycle(60);
    let p = LargeIndependentSet { c: 0.5 };
    let seq = success_probability_with_mode(
        &StableOneShotIs,
        &p,
        &g,
        24,
        Seed(4),
        ParallelismMode::Sequential,
    )
    .unwrap();
    let par = success_probability_with_mode(
        &StableOneShotIs,
        &p,
        &g,
        24,
        Seed(4),
        ParallelismMode::Parallel,
    )
    .unwrap();
    assert_eq!(
        seq.to_bits(),
        par.to_bits(),
        "success probability diverged: {seq} vs {par}"
    );
}
