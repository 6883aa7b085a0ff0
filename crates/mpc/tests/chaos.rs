//! The chaos harness: seeded fault plans swept over real algorithms and
//! the exact engine.
//!
//! Three properties are enforced, per algorithm, across ≥20 seeded plans:
//!
//! 1. **Replay determinism** — the same seed and the same plan produce the
//!    identical output, `Stats` ledger, provenance log, and event log,
//!    run after run. Faults are part of the replayable execution, not
//!    outside it.
//! 2. **Recovery is never free** — whenever a crash is recovered, the
//!    ledger shows strictly more rounds *and* strictly more total words
//!    than the fault-free baseline.
//! 3. **Foreign-crash immunity** — crashing a machine whose
//!    `machine_components` tags are disjoint from a target component never
//!    changes a component-stable algorithm's output on that component
//!    (Definition 13 extended to the fault model).

use csmpc_algorithms::amplify::StableOneShotIs;
use csmpc_algorithms::api::MpcVertexAlgorithm;
use csmpc_algorithms::mpc_edge::BallGreedyColoringMpc;
use csmpc_core::stability::verify_crash_immunity;
use csmpc_graph::rng::Seed;
use csmpc_graph::{generators, ops, Graph};
use csmpc_mpc::{
    exact_aggregate_sum, exact_aggregate_sum_with_faults, Cluster, ClusterEvent, ComponentId,
    DistributedGraph, FaultPlan, MpcConfig, MpcError, RecoveryPolicy,
};
use std::collections::BTreeSet;

const PLANS_PER_ALGORITHM: u64 = 20;

/// Two components: a small target (nodes `0..8`) next to a much larger
/// rest, so that several machines hold *only* rest records — the foreign
/// machines the crash-immunity probes need.
fn chaos_graph() -> Graph {
    let target = generators::cycle(8);
    let rest = ops::with_fresh_names(&generators::cycle(40), 500);
    ops::disjoint_union(&[&target, &rest])
}

/// A deliberately tight cluster: a small space floor spreads the records
/// over several machines, so crashes can strike a real subset of state.
fn chaos_cluster(g: &Graph, seed: Seed) -> Cluster {
    let cfg = MpcConfig {
        min_space: 48,
        ..Default::default()
    };
    Cluster::new(cfg, g.n(), csmpc_mpc::graph_words(g), seed)
}

/// The swept algorithms, erased to a common label type.
struct ChaosAlgo {
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

const ALGORITHMS: &[ChaosAlgo] = &[
    ChaosAlgo {
        name: "one-shot-luby-mis",
        run: run_luby_mis,
    },
    ChaosAlgo {
        name: "ball-greedy-coloring",
        run: run_coloring,
    },
    ChaosAlgo {
        name: "cc-labels",
        run: run_cc_labels,
    },
];

/// One faulted execution: fresh cluster, armed plan, restart policy.
fn faulted_run(algo: &ChaosAlgo, g: &Graph, seed: Seed, plan: &FaultPlan) -> (Vec<u64>, Cluster) {
    let mut cluster = chaos_cluster(g, seed);
    cluster.arm_faults(plan.clone(), RecoveryPolicy::restart(8));
    let labels = (algo.run)(g, &mut cluster)
        .unwrap_or_else(|e| panic!("{}: faulted run failed: {e}", algo.name));
    (labels, cluster)
}

#[test]
fn chaos_sweep_replays_deterministically_and_charges_recovery() {
    let g = chaos_graph();
    let shared = Seed(0xC0DE);
    for algo in ALGORITHMS {
        let mut baseline_cluster = chaos_cluster(&g, shared);
        let baseline = (algo.run)(&g, &mut baseline_cluster)
            .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", algo.name));
        let base_stats = baseline_cluster.stats().clone();
        let machines = baseline_cluster.num_machines();
        let mut crashes_fired = 0usize;

        for p in 0..PLANS_PER_ALGORITHM {
            // Horizon 3 keeps every event inside even the shortest run.
            let plan = FaultPlan::random(Seed(0xFA57).derive(p), machines, 3, 1, 1);
            let (la, ca) = faulted_run(algo, &g, shared, &plan);
            let (lb, cb) = faulted_run(algo, &g, shared, &plan);

            // (1) Replay determinism: output, ledger, provenance, and the
            // recovery history are all identical.
            assert_eq!(la, lb, "{} plan {p}: outputs diverged on replay", algo.name);
            assert_eq!(
                ca.stats(),
                cb.stats(),
                "{} plan {p}: ledgers diverged on replay",
                algo.name
            );
            assert_eq!(
                ca.provenance(),
                cb.provenance(),
                "{} plan {p}: provenance diverged on replay",
                algo.name
            );
            assert_eq!(
                ca.events(),
                cb.events(),
                "{} plan {p}: event logs diverged on replay",
                algo.name
            );

            // Accounted-layer recovery replays in-process state, so the
            // output must equal the fault-free baseline exactly.
            assert_eq!(
                la, baseline,
                "{} plan {p}: faults changed the output",
                algo.name
            );

            // (2) Recovery is never free.
            if ca
                .events()
                .iter()
                .any(|ev| matches!(ev, ClusterEvent::Recovery(_)))
            {
                crashes_fired += 1;
                assert!(
                    ca.stats().rounds > base_stats.rounds,
                    "{} plan {p}: recovery did not cost rounds",
                    algo.name
                );
                assert!(
                    ca.stats().total_words > base_stats.total_words,
                    "{} plan {p}: recovery did not cost words",
                    algo.name
                );
            }
        }
        assert!(
            crashes_fired > 0,
            "{}: no plan's crash ever fired; the sweep is vacuous",
            algo.name
        );
    }
}

#[test]
fn foreign_component_crashes_never_change_outputs() {
    // (3) directly on machine tags, for every swept algorithm: the target
    // is the first component (nodes 0..10); a machine is foreign when its
    // provenance tags are disjoint from the target's component labels.
    let g = chaos_graph();
    let shared = Seed(0xBEEF);
    let target_nodes = 8usize;
    for algo in ALGORITHMS {
        let mut baseline_cluster = chaos_cluster(&g, shared);
        let baseline = (algo.run)(&g, &mut baseline_cluster).unwrap();
        let target: BTreeSet<ComponentId> = g.component_labels()[..target_nodes]
            .iter()
            .map(|&c| c as ComponentId)
            .collect();
        let foreign: Vec<usize> = (0..baseline_cluster.num_machines())
            .filter(|&m| {
                let tags = baseline_cluster.machine_components(m);
                !tags.is_empty() && !tags.iter().any(|c| target.contains(c))
            })
            .collect();
        assert!(
            !foreign.is_empty(),
            "{}: no foreign-tagged machine; tighten the cluster",
            algo.name
        );
        let mut crashes_fired = 0usize;
        for p in 0..PLANS_PER_ALGORITHM {
            let victim = foreign[(p as usize) % foreign.len()];
            let round = 1 + (p as usize) % 3;
            let plan = FaultPlan::quiet(shared.derive(p)).crash(victim, round);
            let (labels, cluster) = faulted_run(algo, &g, shared, &plan);
            if cluster
                .events()
                .iter()
                .any(|ev| matches!(ev, ClusterEvent::Recovery(_)))
            {
                crashes_fired += 1;
            }
            assert_eq!(
                &labels[..target_nodes],
                &baseline[..target_nodes],
                "{} plan {p}: foreign crash of machine {victim} leaked into the component",
                algo.name
            );
        }
        assert!(crashes_fired > 0, "{}: no crash fired", algo.name);
    }
}

#[test]
fn stable_algorithms_pass_the_core_crash_immunity_verifier() {
    // The packaged verifier (baseline tags -> targeted foreign crash ->
    // compare component outputs) agrees with the direct sweep above.
    let comp = generators::cycle(12);
    let mis = verify_crash_immunity(&StableOneShotIs, &comp, 20, Seed(21)).unwrap();
    assert!(mis.immune(), "witnesses: {:?}", mis.witnesses);
    assert!(mis.crashes_recovered > 0);
    let coloring =
        verify_crash_immunity(&BallGreedyColoringMpc { radius: 4 }, &comp, 20, Seed(22)).unwrap();
    assert!(coloring.immune(), "witnesses: {:?}", coloring.witnesses);
    assert!(coloring.crashes_recovered > 0);
}

#[test]
fn engine_chaos_sweep_sums_survive_transport_and_crash_faults() {
    // The exact engine under the same discipline: message drops and
    // duplications plus one crash, across 20 seeded plans. The tree sum
    // must come out exact, replays identical, and recovery charged.
    let values: Vec<u64> = (1..=100).collect();
    let expected: u64 = values.iter().sum();
    let mk_cluster = || Cluster::new(MpcConfig::with_phi(0.5), 400, 800, Seed(7));
    let mut quiet_cl = mk_cluster();
    let (quiet_sum, _) = exact_aggregate_sum(&mut quiet_cl, &values).unwrap();
    assert_eq!(quiet_sum, expected);
    let quiet_stats = quiet_cl.stats().clone();

    let mut recoveries_seen = 0usize;
    for p in 0..PLANS_PER_ALGORITHM {
        let machines = mk_cluster().num_machines();
        let plan = FaultPlan::random(Seed(0x5EED).derive(p), machines, 3, 1, 1)
            .with_message_faults(100, 100);
        let run = |policy| {
            let mut cl = mk_cluster();
            let out = exact_aggregate_sum_with_faults(&mut cl, &values, &plan, policy);
            (out, cl.stats().clone(), cl.events().to_vec())
        };
        let (out_a, stats_a, rec_a) = run(RecoveryPolicy::restart(8));
        let (out_b, stats_b, rec_b) = run(RecoveryPolicy::restart(8));
        let (sum_a, _) = out_a.unwrap_or_else(|e| panic!("plan {p}: {e}"));
        let (sum_b, _) = out_b.unwrap();
        assert_eq!(sum_a, expected, "plan {p}: wrong sum under faults");
        assert_eq!(sum_b, expected);
        assert_eq!(stats_a, stats_b, "plan {p}: engine replay diverged");
        assert_eq!(rec_a, rec_b, "plan {p}: event logs diverged");
        if rec_a
            .iter()
            .any(|ev| matches!(ev, ClusterEvent::Recovery(_)))
        {
            recoveries_seen += 1;
            assert!(
                stats_a.rounds > quiet_stats.rounds
                    && stats_a.total_words > quiet_stats.total_words,
                "plan {p}: engine recovery was free (faulted {stats_a:?} vs quiet {quiet_stats:?})"
            );
        }
    }
    assert!(recoveries_seen > 0, "no engine crash ever fired");
}

#[test]
fn engine_chaos_sweep_survives_adversarial_transport() {
    // The adversarial transport classes layered onto the classic sweep:
    // payload corruption, in-round reordering, and a round-scoped
    // partition, on top of drops, duplications, and a crash. The sum must
    // stay exact across every plan (corruption is detected and retried,
    // never applied), replays must be identical, and every detected strike
    // must show up in the ledger.
    let values: Vec<u64> = (1..=100).collect();
    let expected: u64 = values.iter().sum();
    let mk_cluster = || Cluster::new(MpcConfig::with_phi(0.5), 400, 800, Seed(7));

    let mut corruption_seen = 0usize;
    for p in 0..PLANS_PER_ALGORITHM {
        let machines = mk_cluster().num_machines();
        let plan = FaultPlan::random(Seed(0xADE5).derive(p), machines, 3, 1, 1)
            .with_message_faults(60, 60)
            .with_corruption(150)
            .with_reordering(150)
            .partition(1 + (p as usize) % 2, 2, vec![(p as usize) % machines]);
        let run = || {
            let mut cl = mk_cluster();
            let out = exact_aggregate_sum_with_faults(
                &mut cl,
                &values,
                &plan,
                RecoveryPolicy::restart(8),
            );
            (out, cl.stats().clone(), cl.events().to_vec())
        };
        let (out_a, stats_a, rec_a) = run();
        let (out_b, stats_b, rec_b) = run();
        let (sum_a, _) = out_a.unwrap_or_else(|e| panic!("plan {p}: {e}"));
        let (sum_b, _) = out_b.unwrap();
        assert_eq!(
            sum_a, expected,
            "plan {p}: adversarial transport changed the sum"
        );
        assert_eq!(sum_b, expected);
        assert_eq!(stats_a, stats_b, "plan {p}: adversarial replay diverged");
        assert_eq!(rec_a, rec_b, "plan {p}: event logs diverged");
        if stats_a.corrupted_detected > 0 {
            corruption_seen += 1;
        }
    }
    assert!(corruption_seen > 0, "no plan ever detected a corruption");
}
