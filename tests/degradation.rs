//! The degradation theorem gate (Definition 13 as a production behavior).
//!
//! For each of three `component_stable()` algorithms, under pinned seeds:
//! a run whose recovery budget is exhausted by faults confined to one
//! component must come back as a [`SupervisedOutcome::Degraded`] partial
//! output in which
//!
//! * the untouched component's verdict is `Healthy` and its labels are
//!   **bit-identical** to the fault-free run,
//! * the tainted components' labels are withheld (`None`), and
//! * the recovery/salvage overhead is visible in `Stats`
//!   (`recovery_rounds`/`recovery_words` — degrading is never free).
//!
//! On top of that: corrupted messages are *always* detected (the output
//! never silently differs), and the whole construction replays
//! bit-identically under [`ParallelismMode::Sequential`] and
//! [`ParallelismMode::Parallel`].

use csmpc_algorithms::amplify::StableOneShotIs;
use csmpc_algorithms::api::MpcVertexAlgorithm;
use csmpc_algorithms::mpc_edge::BallGreedyColoringMpc;
use csmpc_graph::rng::Seed;
use csmpc_graph::{generators, ops, Graph};
use csmpc_mpc::{
    exact_aggregate_sum_with_faults, run_supervised, Cluster, ComponentId, ComponentVerdict,
    DistributedGraph, FaultPlan, MpcConfig, MpcError, ParallelismMode, RecoveryPolicy,
    SupervisedOutcome, SupervisedRun, SupervisorConfig,
};
use std::collections::BTreeSet;

const TARGET_NODES: usize = 8;

/// Small target component next to a larger rest (the chaos-harness shape).
fn two_component_graph() -> Graph {
    let target = generators::cycle(TARGET_NODES);
    let rest = ops::with_fresh_names(&generators::cycle(40), 500);
    ops::disjoint_union(&[&target, &rest])
}

/// Tight cluster so records spread across machines, in the given mode.
fn degradation_cluster(g: &Graph, seed: Seed, mode: ParallelismMode) -> Cluster {
    let cfg = MpcConfig {
        min_space: 48,
        parallelism: mode,
        ..Default::default()
    };
    Cluster::new(cfg, g.n(), csmpc_mpc::graph_words(g), seed)
}

/// The three component-stable algorithms under test, erased to `u64`.
struct StableAlgo {
    name: &'static str,
    run: fn(&Graph, &mut Cluster) -> Result<Vec<u64>, MpcError>,
}

fn run_luby_mis(g: &Graph, cluster: &mut Cluster) -> Result<Vec<u64>, MpcError> {
    let labels = StableOneShotIs.run(g, cluster)?;
    Ok(labels.into_iter().map(u64::from).collect())
}

fn run_coloring(g: &Graph, cluster: &mut Cluster) -> Result<Vec<u64>, MpcError> {
    let labels = BallGreedyColoringMpc { radius: 3 }.run(g, cluster)?;
    Ok(labels.into_iter().map(|c| c as u64).collect())
}

fn run_cc_labels(g: &Graph, cluster: &mut Cluster) -> Result<Vec<u64>, MpcError> {
    let dg = DistributedGraph::distribute(g, cluster)?;
    let (labels, _) = dg.cc_labels(cluster)?;
    Ok(labels)
}

const ALGORITHMS: &[StableAlgo] = &[
    StableAlgo {
        name: "one-shot-luby-mis",
        run: run_luby_mis,
    },
    StableAlgo {
        name: "ball-greedy-coloring",
        run: run_coloring,
    },
    StableAlgo {
        name: "cc-labels",
        run: run_cc_labels,
    },
];

/// Fault-free baseline: labels plus a machine whose provenance tags are
/// disjoint from the target component (the machine whose faults must not
/// touch the target).
fn baseline_and_foreign(
    algo: &StableAlgo,
    g: &Graph,
    seed: Seed,
) -> (Vec<u64>, usize, BTreeSet<ComponentId>) {
    let mut cluster = degradation_cluster(g, seed, ParallelismMode::Sequential);
    let labels = (algo.run)(g, &mut cluster)
        .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", algo.name));
    let target: BTreeSet<ComponentId> = g.component_labels()[..TARGET_NODES]
        .iter()
        .map(|&c| c as ComponentId)
        .collect();
    let foreign = (0..cluster.num_machines())
        .find(|&m| {
            let tags = cluster.machine_components(m);
            !tags.is_empty() && !tags.iter().any(|c| target.contains(c))
        })
        .unwrap_or_else(|| panic!("{}: no foreign-tagged machine", algo.name));
    (labels, foreign, target)
}

fn degraded_run(
    algo: &StableAlgo,
    g: &Graph,
    seed: Seed,
    victim: usize,
    mode: ParallelismMode,
) -> SupervisedRun<u64> {
    // Zero retries: the foreign machine's crash exhausts the budget
    // immediately, forcing the degraded path. Round 3 lands after
    // distribution, so the victim's tags identify its components.
    let plan = FaultPlan::quiet(seed).crash(victim, 3);
    let template = degradation_cluster(g, seed, mode);
    run_supervised(
        g,
        &template,
        &plan,
        RecoveryPolicy::restart(0),
        SupervisorConfig::default(),
        algo.run,
    )
    .unwrap_or_else(|e| {
        panic!(
            "{}: supervised run errored instead of degrading: {e}",
            algo.name
        )
    })
}

#[test]
fn degradation_theorem_certifies_untouched_components() {
    let g = two_component_graph();
    let shared = Seed(0xDE6A);
    for algo in ALGORITHMS {
        let (baseline, victim, target) = baseline_and_foreign(algo, &g, shared);
        let run = degraded_run(algo, &g, shared, victim, ParallelismMode::Sequential);
        let SupervisedOutcome::Degraded(partial) = &run.outcome else {
            panic!("{}: budget exhaustion did not degrade", algo.name);
        };

        // The untouched component is certified Healthy with labels
        // bit-identical to the fault-free run.
        for &c in &target {
            assert_eq!(
                partial.verdicts.get(&c),
                Some(&ComponentVerdict::Healthy),
                "{}: target component {c} not certified healthy",
                algo.name
            );
        }
        for (v, expected) in baseline.iter().enumerate().take(TARGET_NODES) {
            assert_eq!(
                partial.labels[v].as_ref(),
                Some(expected),
                "{}: node {v} label differs from the fault-free run",
                algo.name
            );
        }

        // The victim's components are tainted and withheld.
        assert!(
            partial.tainted_nodes > 0,
            "{}: the crash tainted nothing; the probe is vacuous",
            algo.name
        );
        let comp_of = g.component_labels();
        for (v, label) in partial.labels.iter().enumerate() {
            let c = comp_of[v] as ComponentId;
            match partial.verdicts.get(&c) {
                Some(&ComponentVerdict::Healthy) => {
                    assert!(label.is_some(), "{}: healthy node {v} withheld", algo.name);
                }
                Some(&ComponentVerdict::Tainted) => {
                    assert!(label.is_none(), "{}: tainted node {v} leaked", algo.name);
                }
                None => panic!("{}: component {c} has no verdict", algo.name),
            }
        }

        // Degrading is never free, and the overhead is attributed.
        assert!(
            run.stats.recovery_rounds > 0 && run.stats.recovery_words > 0,
            "{}: salvage overhead invisible in Stats ({})",
            algo.name,
            run.stats
        );

        // Pinned seeds: the whole degraded construction replays exactly.
        let again = degraded_run(algo, &g, shared, victim, ParallelismMode::Sequential);
        assert_eq!(run, again, "{}: degraded run diverged on replay", algo.name);
    }
}

#[test]
fn degraded_runs_are_mode_independent() {
    let g = two_component_graph();
    let shared = Seed(0xDE6A);
    for algo in ALGORITHMS {
        let (_, victim, _) = baseline_and_foreign(algo, &g, shared);
        let seq = degraded_run(algo, &g, shared, victim, ParallelismMode::Sequential);
        let par = degraded_run(algo, &g, shared, victim, ParallelismMode::Parallel);
        assert_eq!(
            seq, par,
            "{}: degraded run diverged between parallelism modes",
            algo.name
        );
        assert!(seq.is_degraded(), "{}: vacuous mode comparison", algo.name);
    }
}

#[test]
fn corruption_is_always_detected_never_silently_applied() {
    // The transport-fault side of the theorem: with every message
    // corrupted in flight *and* the supervisor armed, the exact engine
    // still produces the exact sum — corrupted payloads are detected,
    // discarded, and retransmitted, with every strike counted.
    let values: Vec<u64> = (1..=100).collect();
    let expected: u64 = values.iter().sum();
    let plan = FaultPlan::quiet(Seed(0xBAD))
        .with_corruption(1000)
        .crash(1, 2);
    let run = |mode: ParallelismMode| {
        let cfg = MpcConfig {
            parallelism: mode,
            ..MpcConfig::with_phi(0.5)
        };
        let mut cl = Cluster::new(cfg, 400, 800, Seed(7));
        cl.supervise(SupervisorConfig::default());
        let (sum, _) =
            exact_aggregate_sum_with_faults(&mut cl, &values, &plan, RecoveryPolicy::restart(8))
                .expect("corrupted run failed");
        (sum, cl.stats().clone(), cl.events().to_vec())
    };
    let (seq_sum, seq_stats, seq_recs) = run(ParallelismMode::Sequential);
    let (par_sum, par_stats, par_recs) = run(ParallelismMode::Parallel);
    assert_eq!(seq_sum, expected, "corruption silently changed the output");
    assert!(seq_stats.corrupted_detected > 0, "no corruption detected");
    assert_eq!(
        (seq_sum, &seq_stats, seq_recs),
        (par_sum, &par_stats, par_recs),
        "corrupted run diverged between modes"
    );
}
