//! One-call evaluation harness: run an MPC algorithm against a problem and
//! collect correctness + resource evidence — the workflow every experiment
//! table is built from.

use csmpc_algorithms::api::{MpcEdgeAlgorithm, MpcVertexAlgorithm};
use csmpc_graph::rng::Seed;
use csmpc_graph::Graph;
use csmpc_mpc::Stats;
use csmpc_mpc::{
    run_supervised, Cluster, ClusterEvent, FaultPlan, MpcConfig, MpcError, ParallelismMode,
    RecoveryPolicy, SupervisedOutcome, SupervisedRun, SupervisorConfig,
};
use csmpc_parallel::par_map_range;
use csmpc_problems::matching::EdgeProblem;
use csmpc_problems::problem::{GraphProblem, Violation};

/// The outcome of one evaluated run.
#[derive(Debug, Clone)]
pub struct Evaluation<L> {
    /// Algorithm name.
    pub algorithm: String,
    /// Problem name.
    pub problem: String,
    /// Produced labels.
    pub labels: Vec<L>,
    /// Resource ledger of the run.
    pub stats: Stats,
    /// Validation outcome.
    pub validity: Result<(), Violation>,
}

impl<L> Evaluation<L> {
    /// Did the run produce a valid output?
    #[must_use]
    pub fn valid(&self) -> bool {
        self.validity.is_ok()
    }
}

/// Builds the standard evaluation cluster (`φ = 0.5`, roomy floor).
#[must_use]
pub fn evaluation_cluster(g: &Graph, seed: Seed) -> Cluster {
    let cfg = MpcConfig {
        min_space: 1 << 14,
        ..Default::default()
    };
    Cluster::new(cfg, g.n(), csmpc_mpc::graph_words(g), seed)
}

/// Runs a vertex algorithm and validates it against a vertex problem.
///
/// # Errors
///
/// Propagates algorithm errors (validation failures are reported in the
/// evaluation, not as errors).
pub fn evaluate_vertex<A, P>(
    alg: &A,
    problem: &P,
    g: &Graph,
    seed: Seed,
) -> Result<Evaluation<A::Label>, MpcError>
where
    A: MpcVertexAlgorithm,
    P: GraphProblem<Label = A::Label>,
{
    let mut cluster = evaluation_cluster(g, seed);
    let labels = alg.run(g, &mut cluster)?;
    let validity = problem.validate(g, &labels);
    Ok(Evaluation {
        algorithm: alg.name().to_string(),
        problem: problem.name().to_string(),
        labels,
        stats: cluster.stats().clone(),
        validity,
    })
}

/// An [`Evaluation`] produced under an armed fault plan, together with the
/// recovery actions the cluster had to take.
#[derive(Debug, Clone)]
pub struct FaultEvaluation<L> {
    /// The ordinary evaluation outcome (labels, stats, validity). The
    /// stats include every recovery charge — recovery is never free.
    pub evaluation: Evaluation<L>,
    /// The cluster's event log: recovered crashes (and charged backoffs),
    /// in order.
    pub events: Vec<ClusterEvent>,
}

/// Runs a vertex algorithm under an armed fault plan and validates the
/// (possibly recovered) output.
///
/// # Errors
///
/// Propagates algorithm errors, including unrecovered machine failures
/// (`MpcError::MachineFailed` under `RecoveryPolicy::FailFast` or an
/// exhausted retry budget).
pub fn evaluate_vertex_with_faults<A, P>(
    alg: &A,
    problem: &P,
    g: &Graph,
    seed: Seed,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
) -> Result<FaultEvaluation<A::Label>, MpcError>
where
    A: MpcVertexAlgorithm,
    P: GraphProblem<Label = A::Label>,
{
    let mut cluster = evaluation_cluster(g, seed);
    cluster.arm_faults(plan.clone(), policy);
    let labels = alg.run(g, &mut cluster)?;
    let validity = problem.validate(g, &labels);
    Ok(FaultEvaluation {
        evaluation: Evaluation {
            algorithm: alg.name().to_string(),
            problem: problem.name().to_string(),
            labels,
            stats: cluster.stats().clone(),
            validity,
        },
        events: cluster.events().to_vec(),
    })
}

/// An evaluation produced by the supervision layer: the run either
/// completed (validated like any other evaluation) or degraded to a
/// partial output whose healthy components carry trustworthy labels.
#[derive(Debug, Clone)]
pub struct SupervisedEvaluation<L> {
    /// Algorithm name.
    pub algorithm: String,
    /// Problem name.
    pub problem: String,
    /// The full supervised run: outcome (complete or partial), ledger,
    /// event log, quarantined machines.
    pub run: SupervisedRun<L>,
    /// Validation outcome — `Some` only when the run completed; a
    /// degraded partial output is certified per-component by the
    /// degraded-immunity verifier instead of whole-graph validation.
    pub validity: Option<Result<(), Violation>>,
}

impl<L> SupervisedEvaluation<L> {
    /// Completed and validated.
    #[must_use]
    pub fn valid(&self) -> bool {
        matches!(self.validity, Some(Ok(())))
    }
}

/// Runs a vertex algorithm under supervision: straggler speculation,
/// quarantine, bounded backoff, and component-scoped graceful
/// degradation when the recovery budget runs out.
///
/// # Errors
///
/// Propagates algorithm errors other than the machine failures the
/// supervisor degrades through (bandwidth/space/addressing violations
/// are real model errors and still fail the call).
pub fn evaluate_vertex_supervised<A, P>(
    alg: &A,
    problem: &P,
    g: &Graph,
    seed: Seed,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    supervisor: SupervisorConfig,
) -> Result<SupervisedEvaluation<A::Label>, MpcError>
where
    A: MpcVertexAlgorithm,
    P: GraphProblem<Label = A::Label>,
{
    let template = evaluation_cluster(g, seed);
    let run = run_supervised(g, &template, plan, policy, supervisor, |g, cluster| {
        alg.run(g, cluster)
    })?;
    let validity = match &run.outcome {
        SupervisedOutcome::Complete(labels) => Some(problem.validate(g, labels)),
        SupervisedOutcome::Degraded(_) => None,
    };
    Ok(SupervisedEvaluation {
        algorithm: alg.name().to_string(),
        problem: problem.name().to_string(),
        run,
        validity,
    })
}

/// Runs an edge algorithm and validates it against an edge problem.
///
/// # Errors
///
/// Propagates algorithm errors.
pub fn evaluate_edge<A, P>(
    alg: &A,
    problem: &P,
    g: &Graph,
    seed: Seed,
) -> Result<Evaluation<A::Label>, MpcError>
where
    A: MpcEdgeAlgorithm,
    P: EdgeProblem<Label = A::Label>,
{
    let mut cluster = evaluation_cluster(g, seed);
    let labels = alg.run(g, &mut cluster)?;
    let validity = problem.validate(g, &labels);
    Ok(Evaluation {
        algorithm: alg.name().to_string(),
        problem: problem.name().to_string(),
        labels,
        stats: cluster.stats().clone(),
        validity,
    })
}

/// Success probability over `trials` independent seeds.
///
/// Trial `t` always runs with seed `master_seed.derive(t)` against a
/// freshly-reset cluster ([`Cluster::reset_for_repetition`] wipes the
/// ledger, the provenance log, and the machine component tags), so the
/// estimate is a pure function of `(alg, problem, g, trials, master_seed)`.
///
/// Runs with [`ParallelismMode::default`]; use
/// [`success_probability_with_mode`] to force a mode.
///
/// # Errors
///
/// Propagates algorithm errors from any trial.
pub fn success_probability<A, P>(
    alg: &A,
    problem: &P,
    g: &Graph,
    trials: u64,
    master_seed: Seed,
) -> Result<f64, MpcError>
where
    A: MpcVertexAlgorithm + Sync,
    P: GraphProblem<Label = A::Label> + Sync,
{
    success_probability_with_mode(
        alg,
        problem,
        g,
        trials,
        master_seed,
        ParallelismMode::default(),
    )
}

/// [`success_probability`] with an explicit [`ParallelismMode`].
///
/// Each trial clones a template cluster, resets it, and derives its own
/// seed from `master_seed` and the trial index — no state flows between
/// trials, so the sweep is a pure per-trial map and both modes return the
/// same estimate (and the same first error, in trial order, if any trial
/// fails).
///
/// # Errors
///
/// Propagates algorithm errors from any trial.
pub fn success_probability_with_mode<A, P>(
    alg: &A,
    problem: &P,
    g: &Graph,
    trials: u64,
    master_seed: Seed,
    mode: ParallelismMode,
) -> Result<f64, MpcError>
where
    A: MpcVertexAlgorithm + Sync,
    P: GraphProblem<Label = A::Label> + Sync,
{
    let base = evaluation_cluster(g, master_seed);
    let verdicts: Vec<Result<bool, MpcError>> =
        par_map_range(mode, usize::try_from(trials).unwrap_or(usize::MAX), |t| {
            let mut cluster = base.clone();
            cluster.reset_for_repetition();
            cluster.set_shared_seed(master_seed.derive(t as u64));
            let labels = alg.run(g, &mut cluster)?;
            Ok(problem.validate(g, &labels).is_ok())
        });
    let mut ok = 0u64;
    for verdict in verdicts {
        if verdict? {
            ok += 1;
        }
    }
    Ok(ok as f64 / trials.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmpc_algorithms::amplify::{AmplifiedLargeIs, StableOneShotIs};
    use csmpc_algorithms::mpc_edge::SinklessOrientationMpc;
    use csmpc_graph::generators;
    use csmpc_problems::mis::LargeIndependentSet;
    use csmpc_problems::sinkless::SinklessOrientation;

    #[test]
    fn vertex_evaluation_roundtrip() {
        let g = generators::cycle(40);
        let ev = evaluate_vertex(
            &AmplifiedLargeIs { repetitions: 0 },
            &LargeIndependentSet { c: 0.2 },
            &g,
            Seed(1),
        )
        .unwrap();
        assert!(ev.valid());
        assert!(ev.stats.rounds > 0);
        assert_eq!(ev.labels.len(), 40);
    }

    #[test]
    fn edge_evaluation_roundtrip() {
        let g = generators::random_regular(24, 4, Seed(2));
        let ev = evaluate_edge(&SinklessOrientationMpc, &SinklessOrientation, &g, Seed(3)).unwrap();
        assert!(ev.valid());
        assert_eq!(ev.labels.len(), g.m());
    }

    #[test]
    fn repeated_trials_do_not_leak_state() {
        // One trial on a reused cluster must cost exactly what a fresh
        // cluster costs: reset_for_repetition clears the ledger, the
        // provenance log, and the machine component tags (reset_stats
        // alone leaks the latter two).
        let g = generators::cycle(40);
        let alg = StableOneShotIs;
        let p = LargeIndependentSet { c: 0.1 };
        let fresh = evaluate_vertex(&alg, &p, &g, Seed(7)).unwrap();
        let mut cluster = evaluation_cluster(&g, Seed(0));
        for _ in 0..3 {
            cluster.reset_for_repetition();
            assert!(
                (0..cluster.num_machines()).all(|m| cluster.machine_components(m).is_empty()),
                "machine tags leaked across repetitions"
            );
            cluster.set_shared_seed(Seed(7));
            let labels = alg.run(&g, &mut cluster).unwrap();
            assert_eq!(labels, fresh.labels);
            assert_eq!(cluster.stats(), &fresh.stats, "ledger leaked");
        }
    }

    #[test]
    fn ball_collecting_trials_repeat_identically_and_never_reuse_stale_balls() {
        use csmpc_mpc::DistributedGraph;
        // Repetition loops (success-probability / stability / sensitivity
        // trials) re-collect the same graph's balls every trial; the
        // process-wide ball cache serves them from one computed set. That
        // must be invisible: every trial returns the same balls and the
        // same ledger charges as the first.
        let g = generators::cycle(40);
        let mut cluster = evaluation_cluster(&g, Seed(3));
        let dg = DistributedGraph::distribute(&g, &mut cluster).unwrap();
        let first = dg.collect_balls(&mut cluster, 2).unwrap();
        let first_stats = cluster.stats().clone();
        for t in 0..3 {
            cluster.reset_for_repetition();
            cluster.set_shared_seed(Seed(3));
            let dg_t = DistributedGraph::distribute(&g, &mut cluster).unwrap();
            let balls = dg_t.collect_balls(&mut cluster, 2).unwrap();
            assert_eq!(*balls, *first, "trial {t} returned different balls");
            assert_eq!(
                cluster.stats(),
                &first_stats,
                "trial {t} charged differently"
            );
        }
        // A mutated input (the cycle minus one edge — the shape of a
        // fault-perturbed trial) must never be served the old graph's
        // cached balls: the key is the exact graph content.
        let mutated = generators::path(40);
        let mut cl2 = evaluation_cluster(&mutated, Seed(3));
        let dg2 = DistributedGraph::distribute(&mutated, &mut cl2).unwrap();
        let mutated_balls = dg2.collect_balls(&mut cl2, 2).unwrap();
        assert_eq!(mutated_balls[0].0.n(), 3, "path endpoint ball is one-sided");
        assert_eq!(first[0].0.n(), 5, "cycle ball spans both sides");
    }

    #[test]
    fn fault_evaluation_recovers_and_charges() {
        let g = generators::cycle(40);
        let p = LargeIndependentSet { c: 0.1 };
        let baseline = evaluate_vertex(&StableOneShotIs, &p, &g, Seed(9)).unwrap();
        let plan = FaultPlan::quiet(Seed(9)).crash(0, 2);
        let out = evaluate_vertex_with_faults(
            &StableOneShotIs,
            &p,
            &g,
            Seed(9),
            &plan,
            RecoveryPolicy::restart(4),
        )
        .unwrap();
        assert_eq!(out.evaluation.labels, baseline.labels);
        assert!(matches!(out.events[..], [ClusterEvent::Recovery(_)]));
        assert!(out.evaluation.stats.rounds > baseline.stats.rounds);
        assert!(out.evaluation.stats.total_words > baseline.stats.total_words);
    }

    #[test]
    fn fault_evaluation_fail_fast_surfaces_crash() {
        let g = generators::cycle(40);
        let p = LargeIndependentSet { c: 0.1 };
        let plan = FaultPlan::quiet(Seed(9)).crash(0, 2);
        let err = evaluate_vertex_with_faults(
            &StableOneShotIs,
            &p,
            &g,
            Seed(9),
            &plan,
            RecoveryPolicy::FailFast,
        )
        .unwrap_err();
        assert!(matches!(err, MpcError::MachineFailed { machine: 0, .. }));
    }

    #[test]
    fn supervised_evaluation_completes_when_recoverable() {
        let g = generators::cycle(40);
        let p = LargeIndependentSet { c: 0.1 };
        let baseline = evaluate_vertex(&StableOneShotIs, &p, &g, Seed(9)).unwrap();
        let plan = FaultPlan::quiet(Seed(9)).crash(0, 2);
        let out = evaluate_vertex_supervised(
            &StableOneShotIs,
            &p,
            &g,
            Seed(9),
            &plan,
            RecoveryPolicy::restart(4),
            SupervisorConfig::default(),
        )
        .unwrap();
        assert!(out.valid());
        match &out.run.outcome {
            SupervisedOutcome::Complete(labels) => assert_eq!(labels, &baseline.labels),
            other => panic!("expected a complete outcome, got {other:?}"),
        }
        assert!(matches!(out.run.events[..], [ClusterEvent::Recovery(_)]));
        assert!(out.run.stats.recovery_rounds > 0);
    }

    #[test]
    fn supervised_evaluation_degrades_when_budget_exhausted() {
        // Two components; crash a machine until the zero-retry budget
        // blows. The run must degrade rather than error, withholding only
        // the tainted components' labels.
        let a = generators::cycle(12);
        let b = csmpc_graph::ops::with_fresh_names(&generators::cycle(30), 900);
        let g = csmpc_graph::ops::disjoint_union(&[&a, &b]);
        let p = LargeIndependentSet { c: 0.1 };
        let plan = FaultPlan::quiet(Seed(5)).crash(0, 2);
        let out = evaluate_vertex_supervised(
            &StableOneShotIs,
            &p,
            &g,
            Seed(5),
            &plan,
            RecoveryPolicy::restart(0),
            SupervisorConfig::default(),
        )
        .unwrap();
        assert!(out.run.is_degraded());
        assert!(out.validity.is_none());
        match &out.run.outcome {
            SupervisedOutcome::Degraded(partial) => {
                assert_eq!(partial.labels.len(), g.n());
                assert!(partial.tainted_nodes > 0, "nothing was tainted");
                // Degrading is never free: the salvage re-run landed on
                // the primary ledger as recovery overhead.
                assert!(out.run.stats.recovery_rounds > 0);
                assert!(partial.salvage_stats.is_some());
            }
            other => panic!("expected a degraded outcome, got {other:?}"),
        }
    }

    #[test]
    fn success_probability_ordering() {
        // Amplified beats one-shot at the aggressive threshold.
        let g = generators::cycle(90);
        let p = LargeIndependentSet { c: 2.0 / 3.0 };
        let ps = success_probability(&StableOneShotIs, &p, &g, 60, Seed(4)).unwrap();
        let pa =
            success_probability(&AmplifiedLargeIs { repetitions: 0 }, &p, &g, 60, Seed(5)).unwrap();
        assert!(pa >= ps, "amplified {pa} vs one-shot {ps}");
        assert!(pa > 0.9);
    }
}
