//! Component stability (Definition 13) as a *testable* property.
//!
//! Definition 13 says: a randomized MPC algorithm is component-stable when
//! its output at `v` is a deterministic function of
//! `(CC(v), v, n, Δ, S)` — the topology and **IDs** (not names) of `v`'s
//! component, the exact `n` and `Δ` of the whole input, and the shared
//! seed. Two falsifiable consequences drive the verifier:
//!
//! 1. **Sibling swap** — replacing a *different* component with any other
//!    graph of the same size and maximum degree must not change the output
//!    on `CC(v)`;
//! 2. **Renaming** — changing node *names* (keeping IDs) must not change
//!    any output.
//!
//! A violation of either is a constructive witness of component
//! *instability*; surviving many trials is (only) evidence of stability,
//! which is the right epistemic status for an empirical check.

use csmpc_algorithms::api::MpcVertexAlgorithm;
use csmpc_graph::rng::{Seed, SplitMix64};
use csmpc_graph::{generators, ops, Graph};
use csmpc_mpc::{
    run_supervised, Cluster, ClusterEvent, ComponentId, ComponentVerdict, FaultPlan, MpcConfig,
    MpcError, RecoveryPolicy, SupervisedOutcome, SupervisorConfig,
};
use csmpc_parallel::{par_map_range, ParallelismMode};
use std::collections::BTreeSet;

/// A concrete witness that an algorithm is component-unstable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstabilityWitness {
    /// Which probe produced the witness.
    pub probe: ProbeKind,
    /// Trial index (for reproduction).
    pub trial: usize,
    /// Index (within the observed component) of the first differing node.
    pub node_in_component: usize,
}

/// The kind of stability probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// Swapped an unrelated sibling component (same `n`, same `Δ`).
    SiblingSwap,
    /// Renamed all nodes (names only; IDs untouched).
    Renaming,
}

/// Result of a stability verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StabilityReport {
    /// Algorithm name.
    pub algorithm: String,
    /// Trials executed per probe kind.
    pub trials: usize,
    /// Witnesses found (empty = consistent with stability).
    pub witnesses: Vec<InstabilityWitness>,
}

impl StabilityReport {
    /// No witness was found.
    #[must_use]
    pub fn looks_stable(&self) -> bool {
        self.witnesses.is_empty()
    }
}

/// Builds a cluster for stability probes (generous space so that the probes
/// measure stability, not space limits).
fn probe_cluster(g: &Graph, seed: Seed) -> Cluster {
    let cfg = MpcConfig {
        min_space: 1 << 14,
        ..Default::default()
    };
    Cluster::new(cfg, g.n(), csmpc_mpc::graph_words(g), seed)
}

/// Generates a sibling component with `n` nodes and maximum degree ≤
/// `delta_cap`, with IDs in `0..n` and names drawn from `name_base..`.
fn sibling(n: usize, delta_cap: usize, name_base: u64, seed: Seed) -> Graph {
    let base = if n < 3 || delta_cap < 2 {
        csmpc_graph::GraphBuilder::with_sequential_nodes(n)
            .build()
            .expect("isolated nodes are valid")
    } else {
        let mut rng = SplitMix64::new(seed);
        match rng.index(3) {
            0 => generators::cycle(n),
            1 => generators::path(n),
            _ => {
                if n >= 6 && n.is_multiple_of(2) {
                    generators::two_cycles(n)
                } else {
                    generators::random_tree(n, seed.derive(1))
                }
            }
        }
    };
    let shuffled = generators::shuffle_identity(&base, 0, 0, seed.derive(2));
    ops::with_fresh_names(&shuffled, name_base)
}

/// Runs the Definition 13 verifier on `alg`, observing the component
/// `component` embedded next to varying siblings.
///
/// Trials derive their seeds from the trial index and share no state, so
/// they run as a parallel sweep ([`ParallelismMode::default`]); witnesses
/// are collected in trial order, and the report is identical in both modes.
///
/// # Errors
///
/// Propagates algorithm errors (e.g. space violations).
pub fn verify_component_stability<A: MpcVertexAlgorithm + Sync>(
    alg: &A,
    component: &Graph,
    trials: usize,
    master_seed: Seed,
) -> Result<StabilityReport, MpcError> {
    let nc = component.n();
    let delta = component.max_degree();

    // Reference embedding: component ⊎ reference sibling.
    let per_trial: Vec<Result<Vec<InstabilityWitness>, MpcError>> =
        par_map_range(ParallelismMode::default(), trials, |trial| {
            let mut found = Vec::new();
            let trial_seed = master_seed.derive(trial as u64);
            let sib_a = sibling(nc.max(3), delta.max(2), 10_000, trial_seed.derive(10));
            let sib_b = sibling(nc.max(3), delta.max(2), 10_000, trial_seed.derive(11));
            // Ensure identical (n, Δ): regenerate b until Δ matches a.
            let sib_b = if sib_b.max_degree() == sib_a.max_degree() {
                sib_b
            } else {
                ops::with_fresh_names(
                    &generators::shuffle_identity(&sib_a, 0, 0, trial_seed.derive(12)),
                    10_000,
                )
            };
            let ga = ops::disjoint_union(&[component, &sib_a]);
            let gb = ops::disjoint_union(&[component, &sib_b]);
            debug_assert_eq!(ga.n(), gb.n());
            debug_assert_eq!(ga.max_degree(), gb.max_degree());
            let shared = trial_seed.derive(99);
            let la = alg.run(&ga, &mut probe_cluster(&ga, shared))?;
            let lb = alg.run(&gb, &mut probe_cluster(&gb, shared))?;
            if let Some(idx) = (0..nc).find(|&v| la[v] != lb[v]) {
                found.push(InstabilityWitness {
                    probe: ProbeKind::SiblingSwap,
                    trial,
                    node_in_component: idx,
                });
            }

            // Renaming probe: same graph, fresh names everywhere.
            let renamed = ops::with_fresh_names(&ga, 700_000 + trial as u64 * 1_000);
            let lr = alg.run(&renamed, &mut probe_cluster(&renamed, shared))?;
            if let Some(idx) = (0..nc).find(|&v| la[v] != lr[v]) {
                found.push(InstabilityWitness {
                    probe: ProbeKind::Renaming,
                    trial,
                    node_in_component: idx,
                });
            }
            Ok(found)
        });
    let mut witnesses = Vec::new();
    for trial_witnesses in per_trial {
        witnesses.extend(trial_witnesses?);
    }
    Ok(StabilityReport {
        algorithm: alg.name().to_string(),
        trials,
        witnesses,
    })
}

/// Builds a cluster for crash-immunity probes. Deliberately *tighter*
/// than [`probe_cluster`]: a small space floor spreads the records over
/// enough machines that some machine's provenance tags are disjoint from
/// the observed component — otherwise there is nothing foreign to crash.
fn immunity_cluster(g: &Graph, seed: Seed) -> Cluster {
    let cfg = MpcConfig {
        min_space: 64,
        ..Default::default()
    };
    Cluster::new(cfg, g.n(), csmpc_mpc::graph_words(g), seed)
}

/// A concrete witness that crashing a *foreign* machine (one whose
/// provenance tags are disjoint from the observed component) changed the
/// output on that component — a fault-tolerance breach of Definition 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWitness {
    /// Trial index (for reproduction).
    pub trial: usize,
    /// The crashed machine.
    pub machine: usize,
    /// Index (within the observed component) of the first differing node.
    pub node_in_component: usize,
}

/// Result of a crash-immunity verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashImmunityReport {
    /// Algorithm name.
    pub algorithm: String,
    /// Trials attempted.
    pub trials: usize,
    /// Crashes actually injected and recovered (trials without a foreign
    /// machine, or whose crash never fired, inject nothing).
    pub crashes_recovered: usize,
    /// Witnesses found (empty = crash-immune as far as observed).
    pub witnesses: Vec<CrashWitness>,
}

impl CrashImmunityReport {
    /// No witness was found.
    #[must_use]
    pub fn immune(&self) -> bool {
        self.witnesses.is_empty()
    }
}

/// Verifies that a component-stable algorithm's output on a component
/// survives crashes of machines *outside* that component.
///
/// Definition 13 promises the output at `v` is a function of
/// `(CC(v), v, n, Δ, S)` alone; with checkpointed recovery, a crash of a
/// machine holding no `CC(v)` state should therefore be invisible to
/// `CC(v)` (beyond the ledger charge). Each trial embeds `component` next
/// to a varying sibling, runs a fault-free baseline to learn the machine
/// component tags, then deterministically re-runs with a crash of one
/// foreign-tagged machine under [`RecoveryPolicy::RestartFromCheckpoint`]
/// and compares the outputs on the component.
///
/// # Errors
///
/// Propagates algorithm errors (e.g. space violations or exhausted retry
/// budgets).
pub fn verify_crash_immunity<A: MpcVertexAlgorithm + Sync>(
    alg: &A,
    component: &Graph,
    trials: usize,
    master_seed: Seed,
) -> Result<CrashImmunityReport, MpcError> {
    let seed = master_seed.derive(0xc7a5);
    let (crashes_recovered, witnesses) =
        foreign_crash_trials(alg, component, trials, seed, |g, mut faulted, plan, la| {
            faulted.arm_faults(plan, RecoveryPolicy::restart(4));
            let lb = alg.run(g, &mut faulted)?;
            if !faulted
                .events()
                .iter()
                .any(|ev| matches!(ev, ClusterEvent::Recovery(_)))
            {
                return Ok(None); // the run finished before the crash round
            }
            Ok(Some((0..component.n()).find(|&v| la[v] != lb[v])))
        })?;
    Ok(CrashImmunityReport {
        algorithm: alg.name().to_string(),
        trials,
        crashes_recovered,
        witnesses,
    })
}

/// The foreign-crash trials [`verify_crash_immunity`] and
/// [`verify_degraded_immunity`] share, run as a parallel sweep (trials
/// are seed-independent) and folded in trial order. Trial `t` embeds
/// `component` next to a sibling drawn from `seed.derive(t)`, learns the
/// output and the machine tags from a fault-free baseline, then hands
/// `faulted` the graph, a fresh cluster built like the baseline's, a plan
/// crashing the first machine whose tags miss the component (in round
/// 1–3, to strike mid-run) and the baseline labels. `faulted` returns
/// `None` when the crash never struck, otherwise the first component node
/// whose output fails its check, if any. Returns how many trials had a
/// foreign machine and a crash that struck, and their witnesses.
fn foreign_crash_trials<A, F>(
    alg: &A,
    component: &Graph,
    trials: usize,
    seed: Seed,
    faulted: F,
) -> Result<(usize, Vec<CrashWitness>), MpcError>
where
    A: MpcVertexAlgorithm + Sync,
    F: Fn(&Graph, Cluster, FaultPlan, &[A::Label]) -> Result<Option<Option<usize>>, MpcError>
        + Sync,
{
    type Probe = Result<Option<Option<CrashWitness>>, MpcError>;
    let nc = component.n();
    let delta = component.max_degree();
    let per_trial: Vec<Probe> = par_map_range(ParallelismMode::default(), trials, |trial| {
        let trial_seed = seed.derive(trial as u64);
        let sib = sibling(nc.max(3), delta.max(2), 10_000, trial_seed.derive(10));
        let g = ops::disjoint_union(&[component, &sib]);
        let shared = trial_seed.derive(99);
        let mut baseline = immunity_cluster(&g, shared);
        let la = alg.run(&g, &mut baseline)?;
        let target: BTreeSet<ComponentId> = g.component_labels()[..nc]
            .iter()
            .map(|&c| c as ComponentId)
            .collect();
        let victim = (0..baseline.num_machines()).find(|&m| {
            let tags = baseline.machine_components(m);
            !tags.is_empty() && !tags.iter().any(|c| target.contains(c))
        });
        let Some(victim) = victim else {
            return Ok(None); // every machine touches the component
        };
        let mut rng = SplitMix64::new(trial_seed.derive(7));
        let plan = FaultPlan::quiet(shared).crash(victim, 1 + rng.index(3));
        let node = faulted(&g, immunity_cluster(&g, shared), plan, &la)?;
        Ok(node.map(|node| {
            node.map(|idx| CrashWitness {
                trial,
                machine: victim,
                node_in_component: idx,
            })
        }))
    });
    let mut witnesses = Vec::new();
    let mut struck = 0usize;
    for outcome in per_trial {
        if let Some(witness) = outcome? {
            struck += 1;
            witnesses.extend(witness);
        }
    }
    Ok((struck, witnesses))
}

/// Result of a degraded-run immunity verification: the crash-immunity
/// contract extended past the recovery budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedImmunityReport {
    /// Algorithm name.
    pub algorithm: String,
    /// Trials attempted.
    pub trials: usize,
    /// Trials whose recovery budget was actually exhausted and that came
    /// back as a degraded partial output (trials without a foreign
    /// machine, or whose crash never fired, degrade nothing).
    pub degraded_runs: usize,
    /// Witnesses found: a healthy component's salvaged label differed
    /// from the fault-free run (empty = the degraded-output contract
    /// held as far as observed).
    pub witnesses: Vec<CrashWitness>,
}

impl DegradedImmunityReport {
    /// No witness was found.
    #[must_use]
    pub fn immune(&self) -> bool {
        self.witnesses.is_empty()
    }
}

/// Verifies the *degraded-output* contract: when the recovery budget is
/// exhausted by faults confined to machines *outside* the observed
/// component, [`run_supervised`] must return a
/// [`csmpc_mpc::PartialOutput`] whose verdict for the observed component
/// is `Healthy` and whose labels on it are **bit-identical** to the
/// fault-free run.
///
/// This is [`verify_crash_immunity`] pushed past the point of recovery:
/// each trial learns the machine tags from a fault-free baseline, then
/// crashes one foreign-tagged machine under a zero-retry budget — so the
/// run *cannot* recover — and compares the salvaged labels on the
/// component against the baseline. For a component-stable algorithm
/// (Definition 13) the salvage re-run cannot observe the tainted
/// components' stand-ins, so the labels must agree exactly.
///
/// # Errors
///
/// Propagates algorithm errors other than the deliberately induced
/// machine failure (which degrades instead of erroring).
pub fn verify_degraded_immunity<A: MpcVertexAlgorithm + Sync>(
    alg: &A,
    component: &Graph,
    trials: usize,
    master_seed: Seed,
) -> Result<DegradedImmunityReport, MpcError>
where
    A::Label: Send + Sync,
{
    let seed = master_seed.derive(0xdeca);
    let (degraded_runs, witnesses) =
        foreign_crash_trials(alg, component, trials, seed, |g, template, plan, la| {
            // Zero retries: the first crash exhausts the budget, forcing
            // the degraded path instead of a checkpoint recovery.
            let run = run_supervised(
                g,
                &template,
                &plan,
                RecoveryPolicy::restart(0),
                SupervisorConfig::default(),
                |g, cluster| alg.run(g, cluster),
            )?;
            let SupervisedOutcome::Degraded(partial) = &run.outcome else {
                return Ok(None); // the run finished before the crash round
            };
            // The observed component was never touched: its verdict must
            // be Healthy and its salvaged labels bit-identical to the
            // baseline.
            let comp_of = g.component_labels();
            Ok(Some((0..component.n()).find(|&v| {
                let c = ComponentId::try_from(comp_of[v]).unwrap_or(ComponentId::MAX);
                partial.verdicts.get(&c) != Some(&ComponentVerdict::Healthy)
                    || partial.labels[v].as_ref() != Some(&la[v])
            })))
        })?;
    Ok(DegradedImmunityReport {
        algorithm: alg.name().to_string(),
        trials,
        degraded_runs,
        witnesses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmpc_algorithms::amplify::{AmplifiedLargeIs, StableOneShotIs};
    use csmpc_algorithms::det_is::DerandomizedLargeIs;

    #[test]
    fn stable_algorithm_passes() {
        let comp = generators::cycle(10);
        let report = verify_component_stability(&StableOneShotIs, &comp, 6, Seed(1)).unwrap();
        assert!(report.looks_stable(), "witnesses: {:?}", report.witnesses);
    }

    #[test]
    fn amplified_algorithm_fails() {
        let comp = generators::cycle(10);
        let alg = AmplifiedLargeIs { repetitions: 8 };
        let report = verify_component_stability(&alg, &comp, 12, Seed(2)).unwrap();
        assert!(
            !report.looks_stable(),
            "amplification should be caught as unstable"
        );
    }

    #[test]
    fn derandomized_is_fails_renaming_or_swap() {
        // The pairwise-MCE algorithm hashes node *ranks* and fixes the seed
        // by global agreement — unstable under sibling swaps.
        let comp = generators::cycle(10);
        let report = verify_component_stability(&DerandomizedLargeIs, &comp, 12, Seed(3)).unwrap();
        assert!(!report.looks_stable());
    }

    #[test]
    fn stable_algorithm_is_crash_immune() {
        let comp = generators::cycle(12);
        let report = verify_crash_immunity(&StableOneShotIs, &comp, 8, Seed(11)).unwrap();
        assert!(report.immune(), "witnesses: {:?}", report.witnesses);
        assert!(
            report.crashes_recovered > 0,
            "no crash ever fired; the probe is vacuous"
        );
    }

    #[test]
    fn stable_algorithm_survives_budget_exhaustion_degraded() {
        let comp = generators::cycle(12);
        let report = verify_degraded_immunity(&StableOneShotIs, &comp, 8, Seed(31)).unwrap();
        assert!(report.immune(), "witnesses: {:?}", report.witnesses);
        assert!(
            report.degraded_runs > 0,
            "no trial ever degraded; the probe is vacuous"
        );
    }

    #[test]
    fn report_metadata() {
        let comp = generators::path(5);
        let report = verify_component_stability(&StableOneShotIs, &comp, 3, Seed(4)).unwrap();
        assert_eq!(report.trials, 3);
        assert!(report.algorithm.contains("stable"));
    }
}
