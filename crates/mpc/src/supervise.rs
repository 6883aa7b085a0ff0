//! Supervision and component-scoped graceful degradation.
//!
//! The paper's component-stability property (Definition 13) says a
//! component-stable algorithm's output at `v` depends only on `v`'s own
//! component (topology + IDs), `v` itself, and the globals `(n, Δ, S)` —
//! never on other components' structure, IDs, or any names. This module
//! turns that theorem into a production behavior: when a fault plan
//! exhausts the cluster's recovery budget, the run does not simply fail.
//! Instead, [`run_supervised`] computes per-component verdicts from the
//! machine-level fault/quarantine record and the component-provenance
//! tags, salvages every component whose machines were never touched, and
//! returns a [`PartialOutput`] in which — for algorithms declared
//! `component_stable()` — the healthy components' labels are bit-identical
//! to the fault-free run.
//!
//! Three supervision mechanisms feed this (armed via
//! [`crate::Cluster::supervise`]):
//!
//! * **straggler speculation** — a stall past
//!   [`SupervisorConfig::deadline_rounds`] is clamped: a spare re-executes
//!   the machine from its last snapshot off the critical path, charging
//!   the duplicated work to [`crate::Stats::speculative_rounds`] and the
//!   re-shipped state to the word ledger;
//! * **quarantine** — a machine whose fault count exceeds
//!   [`SupervisorConfig::failure_threshold`] is decommissioned at a
//!   charged migration cost; its components are tainted and its future
//!   faults stop consuming retries;
//! * **bounded backoff** — [`crate::RecoveryPolicy::RestartWithBackoff`]
//!   idles exponentially growing (charged) round budgets before each
//!   retry.
//!
//! The salvage step is itself a Definition 13 probe, not a bookkeeping
//! trick: tainted components are replaced by *structural stand-ins* —
//! same topology (hence the same per-component `n_c` and `Δ_c`, so the
//! global `(n, Δ)` are preserved) with freshly permuted IDs and fresh
//! names — and the computation re-runs fault-free. A component-stable
//! algorithm cannot tell the difference on the healthy components, so
//! their salvaged labels equal the fault-free run's bit-for-bit; an
//! unstable algorithm may diverge, which is exactly what
//! `csmpc_core::verify_degraded_immunity` detects empirically.
//!
//! Everything stays deterministic per seed, in either
//! [`crate::ParallelismMode`].

use crate::cluster::{Cluster, MpcError, Stats};
use crate::faults::{FaultPlan, RecoveryEvent, RecoveryPolicy};
use crate::provenance::ComponentId;
use csmpc_graph::rng::{Seed, SplitMix64};
use csmpc_graph::{Graph, GraphBuilder, NodeId, NodeName};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identity space for stand-in components, far above anything the test
/// and experiment graphs use; names offset per component so stand-ins
/// stay globally unique.
const STANDIN_IDENTITY_BASE: u64 = 1 << 40;

/// Supervision policy: per-round deadline budgets for stragglers and a
/// failure threshold for quarantine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Barrier rounds the cluster is willing to wait on a straggler
    /// before a spare speculatively re-executes it from the last
    /// snapshot. Stalls at or under the deadline are simply waited out.
    pub deadline_rounds: usize,
    /// Fault events (crashes, speculated straggles) a machine may survive
    /// before the supervisor quarantines it.
    pub failure_threshold: usize,
}

impl Default for SupervisorConfig {
    /// Wait at most 2 rounds on a straggler; quarantine after the third
    /// fault on one machine.
    fn default() -> Self {
        SupervisorConfig {
            deadline_rounds: 2,
            failure_threshold: 2,
        }
    }
}

/// One entry of the cluster's model-event log ([`crate::Cluster::events`]):
/// a crash recovery or a supervision action.
///
/// Each event's round stamp (`crash_round` for a recovery, `round`
/// otherwise) is a ledger round ([`crate::Stats::rounds`]) on the
/// accounted layer, so stamps never decrease in log order there. On the
/// exact engine, recoveries and speculations are stamped with the
/// 1-indexed *execution* round the fault struck, which a checkpoint
/// restore rolls back, and quarantines and backoffs with ledger rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A crash recovered from a checkpoint.
    Recovery(RecoveryEvent),
    /// A straggler stalled past the deadline; a spare re-executed it
    /// speculatively.
    Speculation {
        /// The straggling machine.
        machine: usize,
        /// Round the speculation started.
        round: usize,
        /// Barrier rounds the speculation saved (charged as
        /// [`crate::Stats::speculative_rounds`] instead).
        stall_avoided: usize,
        /// Words re-shipped to seed the spare (charged).
        reshipped_words: usize,
    },
    /// A machine exceeded the failure threshold and was decommissioned.
    Quarantine {
        /// The decommissioned machine.
        machine: usize,
        /// Ledger round after the charged migration.
        round: usize,
        /// Components whose words the machine held — tainted from here on.
        components: Vec<ComponentId>,
    },
    /// Exponential-backoff idling charged before a retry.
    Backoff {
        /// The machine whose crash triggered the retry.
        machine: usize,
        /// Ledger round the backoff ended.
        round: usize,
        /// Retry number (1-indexed) the backoff preceded.
        retry: usize,
        /// Charged idle rounds.
        stall_rounds: usize,
    },
}

impl fmt::Display for ClusterEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterEvent::Recovery(ev) => write!(f, "{ev}"),
            ClusterEvent::Speculation {
                machine,
                round,
                stall_avoided,
                reshipped_words,
            } => write!(
                f,
                "machine {machine} speculated at round {round}: avoided {stall_avoided} \
                 stall round(s), re-shipped {reshipped_words} word(s)"
            ),
            ClusterEvent::Quarantine {
                machine,
                round,
                components,
            } => write!(
                f,
                "machine {machine} quarantined at round {round} ({} tainted component(s))",
                components.len()
            ),
            ClusterEvent::Backoff {
                machine,
                round,
                retry,
                stall_rounds,
            } => write!(
                f,
                "machine {machine} backed off {stall_rounds} round(s) before retry \
                 {retry}, through round {round}"
            ),
        }
    }
}

/// Per-component verdict in a degraded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentVerdict {
    /// No machine holding this component's words was ever faulted or
    /// quarantined: for a component-stable algorithm its labels are
    /// bit-identical to the fault-free run.
    Healthy,
    /// A fault or quarantine touched this component's machines; its
    /// labels are withheld.
    Tainted,
}

/// The degraded result of a supervised run whose recovery budget ran out
/// (or that quarantined machines): every node of a healthy component
/// keeps its label, tainted components' labels are withheld.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialOutput<L> {
    /// Per-node labels; `None` exactly on nodes of tainted components.
    pub labels: Vec<Option<L>>,
    /// Verdict for every component of the input graph, keyed by component
    /// number (the [`Graph::component_labels`] order).
    pub verdicts: BTreeMap<ComponentId, ComponentVerdict>,
    /// Nodes carrying a label.
    pub healthy_nodes: usize,
    /// Nodes whose label was withheld.
    pub tainted_nodes: usize,
    /// Ledger of the fault-free salvage re-run (already absorbed into the
    /// primary ledger as recovery overhead), if one ran.
    pub salvage_stats: Option<Stats>,
}

/// Outcome of [`run_supervised`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisedOutcome<L> {
    /// The run finished with every component intact.
    Complete(Vec<L>),
    /// The run degraded: healthy components salvaged, tainted withheld.
    Degraded(PartialOutput<L>),
}

/// Everything a supervised execution reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisedRun<L> {
    /// Labels (complete or partial).
    pub outcome: SupervisedOutcome<L>,
    /// The primary ledger, including all recovery, speculation,
    /// quarantine, backoff, and salvage charges.
    pub stats: Stats,
    /// Crash recoveries and supervision actions, in the order they
    /// happened.
    pub events: Vec<ClusterEvent>,
    /// Machines quarantined, ascending.
    pub quarantined: Vec<usize>,
}

impl<L> SupervisedRun<L> {
    /// `true` when the outcome is degraded.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        matches!(self.outcome, SupervisedOutcome::Degraded(_))
    }

    /// Per-node labels with tainted nodes as `None` (complete runs are
    /// all `Some`).
    #[must_use]
    pub fn labels(&self) -> Vec<Option<L>>
    where
        L: Clone,
    {
        match &self.outcome {
            SupervisedOutcome::Complete(ls) => ls.iter().cloned().map(Some).collect(),
            SupervisedOutcome::Degraded(p) => p.labels.clone(),
        }
    }
}

/// Replaces every tainted component of `g` with a structural stand-in:
/// identical topology at the same node indices — so each component's
/// `(n_c, Δ_c)`, and therefore the global `(n, Δ)`, are preserved — but
/// freshly permuted IDs and fresh globally unique names, both derived
/// deterministically from `seed`. Healthy components are untouched.
///
/// For a component-stable algorithm this substitution is invisible on the
/// healthy components (Definition 13: their output may not depend on
/// other components' identity), which is what makes salvage labels
/// comparable bit-for-bit against the fault-free run.
#[must_use]
pub fn salvage_graph(g: &Graph, tainted: &BTreeSet<ComponentId>, seed: Seed) -> Graph {
    let mut ids: Vec<NodeId> = g.ids().to_vec();
    let mut names: Vec<NodeName> = g.names().to_vec();
    for (c, members) in g.components().iter().enumerate() {
        let c_id = ComponentId::try_from(c).unwrap_or(ComponentId::MAX);
        if !tainted.contains(&c_id) {
            continue;
        }
        let mut rng = SplitMix64::new(seed.derive(0x5a17_0000 + c as u64));
        let idp = rng.permutation(members.len());
        let namep = rng.permutation(members.len());
        // IDs only need component-uniqueness; names get a per-component
        // offset so stand-ins never collide globally.
        let name_base = STANDIN_IDENTITY_BASE + (c as u64 + 1) * g.n() as u64;
        for (k, &v) in members.iter().enumerate() {
            ids[v] = NodeId(STANDIN_IDENTITY_BASE + idp[k] as u64);
            names[v] = NodeName(name_base + namep[k] as u64);
        }
    }
    let mut b = GraphBuilder::new();
    for v in 0..g.n() {
        b.add_node(ids[v], names[v]);
    }
    for (u, v) in g.edges() {
        b.add_edge(u, v);
    }
    b.build().expect("stand-in relabeling preserves legality")
}

/// Components tainted by the given machines' provenance tags, read at the
/// moment the run stopped. A faulted machine taints exactly the
/// components whose words it held *then*: the failed execution's state is
/// discarded wholesale and the salvage re-runs fault-free from the input
/// graph, so a machine that died before any placement (empty tags) taints
/// nothing.
fn tainted_components(
    cluster: &Cluster,
    machines: impl IntoIterator<Item = usize>,
) -> BTreeSet<ComponentId> {
    let mut tainted = BTreeSet::new();
    for m in machines {
        tainted.extend(cluster.machine_components(m).iter().copied());
    }
    tainted
}

/// Builds the partial output for `g` given `labels` from a trusted run
/// and the tainted component set.
fn degrade<L: Clone>(
    g: &Graph,
    labels: &[L],
    tainted: &BTreeSet<ComponentId>,
    salvage_stats: Option<Stats>,
) -> PartialOutput<L> {
    let comp_of = g.component_labels();
    let mut verdicts = BTreeMap::new();
    for c in 0..g.component_count() {
        let c_id = ComponentId::try_from(c).unwrap_or(ComponentId::MAX);
        let verdict = if tainted.contains(&c_id) {
            ComponentVerdict::Tainted
        } else {
            ComponentVerdict::Healthy
        };
        verdicts.insert(c_id, verdict);
    }
    let mut out = Vec::with_capacity(g.n());
    let mut healthy_nodes = 0usize;
    let mut tainted_nodes = 0usize;
    for (v, label) in labels.iter().enumerate() {
        let c_id = ComponentId::try_from(comp_of[v]).unwrap_or(ComponentId::MAX);
        if tainted.contains(&c_id) {
            tainted_nodes += 1;
            out.push(None);
        } else {
            healthy_nodes += 1;
            out.push(Some(label.clone()));
        }
    }
    PartialOutput {
        labels: out,
        verdicts,
        healthy_nodes,
        tainted_nodes,
        salvage_stats,
    }
}

/// Runs `run` on a supervised clone of `template` under `plan`/`policy`,
/// degrading gracefully instead of failing when the recovery budget runs
/// out.
///
/// * If the run completes without quarantines, the result is
///   [`SupervisedOutcome::Complete`].
/// * If it completes but machines were quarantined, the quarantined
///   machines' components are tainted and their labels withheld
///   ([`SupervisedOutcome::Degraded`]); the healthy labels come from the
///   completed run itself.
/// * If the run fails with [`MpcError::MachineFailed`] (exhausted
///   retries, fail-fast, or lost quorum), every component touched by a
///   fired fault or quarantine is tainted, the tainted components are
///   replaced by structural stand-ins ([`salvage_graph`]), and the
///   computation re-runs fault-free on spare machines. The salvage
///   ledger is charged to the primary ledger as recovery overhead
///   (degrading is never free), and the healthy components' labels are
///   taken from the salvage run — bit-identical to the fault-free run
///   for component-stable algorithms.
///
/// Other errors (bandwidth, space, addressing, round limits) are real
/// model violations and propagate unchanged.
///
/// Fully deterministic in (`template`, `plan`, `policy`, `cfg`, the
/// closure), in either [`crate::ParallelismMode`].
///
/// # Errors
///
/// Whatever `run` raises other than [`MpcError::MachineFailed`], and any
/// error of the fault-free salvage re-run.
pub fn run_supervised<L, F>(
    g: &Graph,
    template: &Cluster,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    cfg: SupervisorConfig,
    run: F,
) -> Result<SupervisedRun<L>, MpcError>
where
    L: Clone,
    F: Fn(&Graph, &mut Cluster) -> Result<Vec<L>, MpcError>,
{
    let mut cluster = template.clone();
    cluster.reset_for_repetition();
    cluster.arm_faults(plan.clone(), policy);
    cluster.supervise(cfg);
    let primary = run(g, &mut cluster);
    let report = |cluster: &Cluster, outcome: SupervisedOutcome<L>| SupervisedRun {
        outcome,
        stats: cluster.stats().clone(),
        events: cluster.events().to_vec(),
        quarantined: cluster.quarantined_machines().iter().copied().collect(),
    };
    match primary {
        Ok(labels) => {
            // The run completed; recovered faults are exact (replayed from
            // checkpoints), so only quarantined machines taint components.
            let tainted = tainted_components(
                &cluster,
                cluster
                    .quarantined_machines()
                    .iter()
                    .copied()
                    .collect::<Vec<_>>(),
            );
            if tainted.is_empty() {
                return Ok(report(&cluster, SupervisedOutcome::Complete(labels)));
            }
            let partial = degrade(g, &labels, &tainted, None);
            Ok(report(&cluster, SupervisedOutcome::Degraded(partial)))
        }
        Err(MpcError::MachineFailed { .. }) => {
            // Budget exhausted: an interrupted recovery may have left any
            // fault-touched component inconsistent, so all of them are
            // tainted — not just the quarantined ones.
            let suspects: Vec<usize> = cluster.faulted_machines().iter().copied().collect();
            let tainted = tainted_components(&cluster, suspects);
            // Healthy components re-run fault-free on spares, against a
            // graph whose tainted components are structural stand-ins.
            let salvage = salvage_graph(g, &tainted, plan.seed().derive(0xde9a));
            let mut spare = template.clone();
            spare.reset_for_repetition();
            let salvage_labels = run(&salvage, &mut spare)?;
            let salvage_stats = spare.stats().clone();
            // Salvage work lands on the primary ledger: every round and
            // word of the re-run is recovery overhead.
            let salvage_words = usize::try_from(salvage_stats.total_words)
                .unwrap_or(usize::MAX)
                .max(1);
            cluster.charge_recovery(salvage_stats.rounds.max(1), salvage_words);
            let partial = degrade(g, &salvage_labels, &tainted, Some(salvage_stats));
            Ok(report(&cluster, SupervisedOutcome::Degraded(partial)))
        }
        Err(other) => Err(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmpc_graph::{generators, ops};

    fn two_comp() -> Graph {
        let a = generators::cycle(6);
        let b = ops::with_fresh_names(&generators::cycle(10), 700);
        ops::disjoint_union(&[&a, &b])
    }

    #[test]
    fn salvage_preserves_healthy_identity_and_global_shape() {
        let g = two_comp();
        let tainted: BTreeSet<ComponentId> = [1].into_iter().collect();
        let s = salvage_graph(&g, &tainted, Seed(9));
        assert_eq!(s.n(), g.n());
        assert_eq!(s.m(), g.m());
        assert_eq!(s.max_degree(), g.max_degree());
        assert!(s.is_legal());
        let comp = g.component_labels();
        for (v, &c) in comp.iter().enumerate() {
            if c == 0 {
                assert_eq!(s.id(v), g.id(v), "healthy node {v} id changed");
                assert_eq!(s.name(v), g.name(v), "healthy node {v} name changed");
            } else {
                assert_ne!(s.name(v), g.name(v), "tainted node {v} kept its name");
            }
        }
        // Same seed, same stand-in; different seed, different stand-in.
        assert_eq!(s, salvage_graph(&g, &tainted, Seed(9)));
        assert_ne!(s, salvage_graph(&g, &tainted, Seed(10)));
    }

    #[test]
    fn salvage_with_no_taint_is_identity() {
        let g = two_comp();
        let s = salvage_graph(&g, &BTreeSet::new(), Seed(1));
        assert_eq!(s, g);
    }

    #[test]
    fn supervisor_config_default_is_sane() {
        let cfg = SupervisorConfig::default();
        assert!(cfg.deadline_rounds >= 1);
        assert!(cfg.failure_threshold >= 1);
    }

    #[test]
    fn supervision_event_displays_name_everything() {
        let spec = ClusterEvent::Speculation {
            machine: 3,
            round: 7,
            stall_avoided: 2,
            reshipped_words: 11,
        };
        let s = spec.to_string();
        assert!(s.contains("machine 3"), "{s}");
        assert!(s.contains("11 word(s)"), "{s}");
        let q = ClusterEvent::Quarantine {
            machine: 5,
            round: 9,
            components: vec![0, 2],
        };
        let s = q.to_string();
        assert!(s.contains("machine 5"), "{s}");
        assert!(s.contains("2 tainted component(s)"), "{s}");
        let b = ClusterEvent::Backoff {
            machine: 1,
            round: 12,
            retry: 2,
            stall_rounds: 4,
        };
        let s = b.to_string();
        assert!(s.contains("retry"), "{s}");
        assert!(s.contains("4 round(s)"), "{s}");
        let r = RecoveryEvent {
            machine: 4,
            crash_round: 9,
            checkpoint_round: 8,
            replayed_rounds: 1,
            reshipped_words: 17,
        };
        assert_eq!(ClusterEvent::Recovery(r).to_string(), r.to_string());
    }
}
