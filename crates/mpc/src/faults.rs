//! Deterministic fault injection and checkpoint/recovery.
//!
//! Component stability (Definition 13) is a robustness property: a
//! component-stable algorithm's output at `v` must be invariant to
//! perturbations of the rest of the graph. This module supplies the
//! *machine-level* analogue — crashes, stragglers, and message-transport
//! faults — so that question can be asked executably: does destroying
//! machines that hold only *other* components' data change a
//! component-stable algorithm's output?
//!
//! Everything here is **replayable bit-for-bit**: a [`FaultPlan`] is plain
//! data derived from a [`Seed`], so the same seed and plan produce the same
//! faults, the same recoveries, the same output, the same [`Stats`] ledger
//! and the same provenance log on every run (Definition 9, replicability).
//!
//! Two layers consume a plan, through one shared event driver in
//! [`crate::Cluster`] (event triage, straggler speculation, crash triage
//! with quarantine, retry budget and backoff):
//!
//! * the **exact engine** ([`crate::Cluster::run_program_with_faults`])
//!   injects faults message by message — including payload corruption
//!   (always *detected* via the checksummed [`crate::Envelope`]), inbox
//!   reordering and round-scoped network [`Partition`]s — and recovers by
//!   restoring a round-boundary [`Checkpoint`] and deterministically
//!   re-executing the lost rounds;
//! * the **accounted primitives** observe the plan through
//!   [`crate::Cluster::advance_rounds`]: stragglers and partitions stall
//!   the synchronous barrier, and a crash is either fatal
//!   ([`RecoveryPolicy::FailFast`]) or charged as a checkpoint replay
//!   (recovery is never free). Message-level faults only have meaning
//!   where real messages move, i.e. on the exact engine.
//!
//! [`Stats`]: crate::Stats
//! [`Seed`]: csmpc_graph::rng::Seed

use crate::cluster::Message;
use crate::provenance::{ProvenanceLog, TagTable};
use csmpc_graph::rng::{Seed, SplitMix64};
use std::fmt;
use std::sync::Arc;

/// What happens to a machine at a scheduled round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The machine fails: its in-flight state is lost at the start of the
    /// round. Fatal under [`RecoveryPolicy::FailFast`]; otherwise recovered
    /// from the last checkpoint at a ledger cost.
    Crash,
    /// The machine stalls for the given number of rounds: it processes no
    /// messages and sends nothing while the barrier (and the round ledger)
    /// keeps advancing.
    Straggle {
        /// Rounds the machine stays unresponsive.
        rounds: usize,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// 1-indexed execution round the fault strikes at.
    pub round: usize,
    /// The afflicted machine.
    pub machine: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A round-scoped network partition: for rounds `start ..
/// start + rounds - 1` (1-indexed, inclusive), messages crossing the
/// boundary between `members` and the rest of the cluster are held by the
/// transport and delivered — and charged a second time — when the
/// partition heals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// First execution round the partition is active (1-indexed).
    pub start: usize,
    /// Rounds the partition stays up (`0` is a no-op).
    pub rounds: usize,
    /// Machines on one side of the cut (the complement forms the other).
    pub members: Vec<usize>,
}

impl Partition {
    /// `true` while the partition is active at execution round `round`.
    #[must_use]
    pub fn active_at(&self, round: usize) -> bool {
        self.rounds > 0 && round >= self.start && round < self.start + self.rounds
    }

    /// First round at which held traffic may flow again.
    #[must_use]
    pub fn heal_round(&self) -> usize {
        self.start.saturating_add(self.rounds)
    }

    /// `true` when a message from `from` to `to` crosses the cut.
    #[must_use]
    pub fn cuts(&self, from: usize, to: usize) -> bool {
        self.members.contains(&from) != self.members.contains(&to)
    }
}

/// A seeded, fully deterministic fault schedule.
///
/// Plans are plain data: the same plan injected into the same execution
/// yields identical behavior, which is what makes chaos runs replayable.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: Seed,
    events: Vec<FaultEvent>,
    /// Per-message drop probability in 1/1000 (exact engine only). A
    /// dropped message is retransmitted by the transport one round later —
    /// delivery is reliable but delayed, and the retransmission is charged.
    drop_per_mille: u16,
    /// Per-message duplication probability in 1/1000 (exact engine only).
    /// The duplicate transmission is charged; the receiver deduplicates.
    dup_per_mille: u16,
    /// Per-message payload-corruption probability in 1/1000 (exact engine
    /// only). A corrupted payload always fails [`crate::Envelope`]
    /// verification: the receiver discards it and the transport
    /// retransmits the original one round later, both charged.
    corrupt_per_mille: u16,
    /// Per-inbox in-round reordering probability in 1/1000 (exact engine
    /// only). A reordered inbox is delivered in adversarially reversed
    /// arrival order.
    reorder_per_mille: u16,
    /// Round-scoped network partitions.
    partitions: Vec<Partition>,
}

impl FaultPlan {
    /// A plan with no faults (useful as the identity element of chaos
    /// sweeps).
    pub fn quiet(seed: Seed) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
            drop_per_mille: 0,
            dup_per_mille: 0,
            corrupt_per_mille: 0,
            reorder_per_mille: 0,
            partitions: Vec::new(),
        }
    }

    /// Adds a crash of `machine` at execution round `round` (1-indexed).
    pub fn crash(mut self, machine: usize, round: usize) -> Self {
        self.push(FaultEvent {
            round,
            machine,
            kind: FaultKind::Crash,
        });
        self
    }

    /// Adds a straggler: `machine` stalls for `rounds` rounds starting at
    /// execution round `round`.
    pub fn straggle(mut self, machine: usize, round: usize, rounds: usize) -> Self {
        self.push(FaultEvent {
            round,
            machine,
            kind: FaultKind::Straggle { rounds },
        });
        self
    }

    /// Sets message-transport fault rates (per mille; exact engine only).
    pub fn with_message_faults(mut self, drop_per_mille: u16, dup_per_mille: u16) -> Self {
        self.drop_per_mille = drop_per_mille.min(1000);
        self.dup_per_mille = dup_per_mille.min(1000);
        self
    }

    /// Sets the per-message payload-corruption rate (per mille, clamped to
    /// 1000; exact engine only). Corruption is adversarial but always
    /// *detected*: the tampered envelope fails checksum verification, the
    /// receiver discards it, and the original is retransmitted (and
    /// re-charged) one round later. Output never silently differs.
    pub fn with_corruption(mut self, corrupt_per_mille: u16) -> Self {
        self.corrupt_per_mille = corrupt_per_mille.min(1000);
        self
    }

    /// Sets the per-inbox in-round reordering rate (per mille, clamped to
    /// 1000; exact engine only). A reordered inbox is handed to the machine
    /// in adversarially reversed arrival order — programs whose round
    /// functions are order-sensitive will diverge, which is exactly what
    /// the chaos suite checks they do not.
    pub fn with_reordering(mut self, reorder_per_mille: u16) -> Self {
        self.reorder_per_mille = reorder_per_mille.min(1000);
        self
    }

    /// Adds a round-scoped network partition: for `rounds` rounds starting
    /// at execution round `start` (1-indexed), traffic between `members`
    /// and the rest of the cluster is held by the transport and delivered
    /// (and charged again) once the partition heals.
    pub fn partition(mut self, start: usize, rounds: usize, members: Vec<usize>) -> Self {
        let mut members = members;
        members.sort_unstable();
        members.dedup();
        self.partitions.push(Partition {
            start: start.max(1),
            rounds,
            members,
        });
        self.partitions
            .sort_by(|a, b| (a.start, a.rounds, &a.members).cmp(&(b.start, b.rounds, &b.members)));
        self
    }

    /// A randomized-but-seeded plan for chaos sweeps: `crashes` crash
    /// events and `stragglers` stall events, uniformly over `machines`
    /// machines and rounds `1..=horizon`. Identical arguments always
    /// produce the identical plan.
    pub fn random(
        seed: Seed,
        machines: usize,
        horizon: usize,
        crashes: usize,
        stragglers: usize,
    ) -> Self {
        let mut rng = SplitMix64::new(seed.derive(0xc4a0));
        let mut plan = FaultPlan::quiet(seed);
        let horizon = horizon.max(1);
        let machines = machines.max(1);
        for _ in 0..crashes {
            let m = rng.index(machines);
            let r = 1 + rng.index(horizon);
            plan = plan.crash(m, r);
        }
        for _ in 0..stragglers {
            let m = rng.index(machines);
            let r = 1 + rng.index(horizon);
            let stall = 1 + rng.index(3);
            plan = plan.straggle(m, r, stall);
        }
        plan
    }

    fn push(&mut self, ev: FaultEvent) {
        self.events.push(ev);
        self.events.sort_by_key(|e| {
            (
                e.round,
                e.machine,
                matches!(e.kind, FaultKind::Straggle { .. }),
            )
        });
    }

    /// The plan's seed (drives message-level coin flips).
    #[must_use]
    pub fn seed(&self) -> Seed {
        self.seed
    }

    /// All scheduled events, sorted by round.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Per-message drop probability in 1/1000.
    #[must_use]
    pub fn drop_per_mille(&self) -> u16 {
        self.drop_per_mille
    }

    /// Per-message duplication probability in 1/1000.
    #[must_use]
    pub fn dup_per_mille(&self) -> u16 {
        self.dup_per_mille
    }

    /// Per-message payload-corruption probability in 1/1000.
    #[must_use]
    pub fn corrupt_per_mille(&self) -> u16 {
        self.corrupt_per_mille
    }

    /// Per-inbox in-round reordering probability in 1/1000.
    #[must_use]
    pub fn reorder_per_mille(&self) -> u16 {
        self.reorder_per_mille
    }

    /// All scheduled network partitions, sorted by start round.
    #[must_use]
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// `true` when the plan schedules nothing at all.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.events.is_empty()
            && self.drop_per_mille == 0
            && self.dup_per_mille == 0
            && self.corrupt_per_mille == 0
            && self.reorder_per_mille == 0
            && self.partitions.iter().all(|p| p.rounds == 0)
    }
}

/// What the cluster does when a machine crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Surface the crash immediately as
    /// [`crate::MpcError::MachineFailed`].
    FailFast,
    /// Restore the last round-boundary checkpoint and deterministically
    /// re-execute, up to `max_retries` recoveries per execution. Every
    /// recovery charges the replayed rounds and the re-shipped checkpoint
    /// words to the [`crate::Stats`] ledger.
    RestartFromCheckpoint {
        /// Recoveries allowed before the execution is declared failed.
        max_retries: usize,
    },
    /// Like [`RecoveryPolicy::RestartFromCheckpoint`], but the `k`-th retry
    /// first idles the barrier for `base_backoff_rounds << (k - 1)` rounds
    /// of bounded exponential backoff. Every backoff round is charged to
    /// the ledger and surfaced in [`crate::Stats::recovery_rounds`] —
    /// backing off is never free.
    RestartWithBackoff {
        /// Recoveries allowed before the execution is declared failed.
        max_retries: usize,
        /// Backoff idle rounds before the first retry; doubles per retry.
        base_backoff_rounds: usize,
    },
}

impl RecoveryPolicy {
    /// The default recovery posture for chaos runs: restart with a small
    /// bounded retry budget.
    #[must_use]
    pub fn restart(max_retries: usize) -> Self {
        RecoveryPolicy::RestartFromCheckpoint { max_retries }
    }

    /// Restart with bounded exponential backoff: retry `k` idles
    /// `base_backoff_rounds << (k - 1)` charged rounds before restoring.
    #[must_use]
    pub fn restart_with_backoff(max_retries: usize, base_backoff_rounds: usize) -> Self {
        RecoveryPolicy::RestartWithBackoff {
            max_retries,
            base_backoff_rounds,
        }
    }

    /// Retry budget allowed by this policy (`0` under
    /// [`RecoveryPolicy::FailFast`]).
    #[must_use]
    pub fn max_retries(&self) -> usize {
        match *self {
            RecoveryPolicy::FailFast => 0,
            RecoveryPolicy::RestartFromCheckpoint { max_retries }
            | RecoveryPolicy::RestartWithBackoff { max_retries, .. } => max_retries,
        }
    }

    /// Charged idle rounds before retry number `retry` (1-indexed); zero
    /// for policies without backoff. The shift is clamped so the charge
    /// saturates instead of overflowing.
    #[must_use]
    pub fn backoff_rounds(&self, retry: usize) -> usize {
        match *self {
            RecoveryPolicy::RestartWithBackoff {
                base_backoff_rounds,
                ..
            } if retry >= 1 => {
                let shift = (retry - 1).min(usize::BITS as usize - 1) as u32;
                if base_backoff_rounds > 0 && shift > base_backoff_rounds.leading_zeros() {
                    usize::MAX
                } else {
                    base_backoff_rounds << shift
                }
            }
            _ => 0,
        }
    }
}

/// One completed crash recovery, logged as
/// [`crate::ClusterEvent::Recovery`] in [`crate::Cluster::events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// The machine that crashed.
    pub machine: usize,
    /// Round at which the crash struck: the ledger round on the accounted
    /// layer, the 1-indexed execution round on the exact engine.
    pub crash_round: usize,
    /// Round of the checkpoint restored from, on `crash_round`'s clock.
    pub checkpoint_round: usize,
    /// Rounds deterministically re-executed (charged to the ledger).
    pub replayed_rounds: usize,
    /// Words re-shipped to restore machine state (charged to the ledger).
    pub reshipped_words: usize,
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "machine {} crashed at round {}; restored checkpoint of round {}, \
             replayed {} round(s), re-shipped {} word(s)",
            self.machine,
            self.crash_round,
            self.checkpoint_round,
            self.replayed_rounds,
            self.reshipped_words
        )
    }
}

/// The exact engine's transport state — the coin stream and every fault
/// still in flight — which a [`Checkpoint`] captures as one clone.
#[derive(Debug, Clone)]
pub(crate) struct Transport {
    /// Transport RNG position (drop/corruption/duplication/reorder coins).
    pub(crate) rng: SplitMix64,
    /// Exec round (inclusive) through which each machine stalls.
    pub(crate) straggle_until: Vec<usize>,
    /// Messages awaiting transport retransmission.
    pub(crate) pending_retransmit: Vec<Message>,
    /// Messages held by active network partitions, with the round at
    /// which each becomes deliverable again.
    pub(crate) partition_held: Vec<(usize, Message)>,
}

/// A round-boundary snapshot of everything the exact engine needs to
/// deterministically re-execute: pending inboxes, the program's machine
/// storage (via [`crate::MachineProgram::snapshot`]), component-provenance
/// tags, the provenance log, and the engine's transport state (RNG
/// position, in-flight straggler, retransmission and partition state).
///
/// The bulky fields are **copy-on-write**: each per-machine inbox and
/// program snapshot, the component-tag table, and the provenance log sit
/// behind an [`Arc`] that consecutive captures share whenever the content
/// is unchanged (content equality is checked before sharing, so a restore
/// from a shared slot is value-identical to one from a deep copy). A
/// checkpoint of a mostly-idle round therefore costs a handful of
/// reference bumps instead of a full state clone.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Execution round the snapshot was taken at (state *after* this many
    /// rounds completed).
    pub round: usize,
    /// Pending per-machine inboxes (per-destination arrival order), shared
    /// with the previous capture when unchanged.
    pub inboxes: Vec<Arc<Vec<Message>>>,
    /// Per-machine program state, indexed by machine id, as captured by
    /// [`crate::MachineProgram::snapshot`] on each shard; shared with the
    /// previous capture when unchanged.
    pub program: Vec<Arc<Vec<u64>>>,
    /// Component tags of every machine at the boundary.
    pub machine_components: Arc<TagTable>,
    /// Provenance log at the boundary.
    pub provenance: Arc<ProvenanceLog>,
    /// The engine's transport state at the boundary.
    pub(crate) transport: Transport,
}

impl Checkpoint {
    /// Words a restore must re-ship: the program snapshot plus everything
    /// in flight (pending inbox and retransmission payloads). Sharing does
    /// not discount the bill — a restore re-ships the words regardless of
    /// how the host deduplicated the snapshot in memory.
    #[must_use]
    pub fn words(&self) -> usize {
        let inbox: usize = self
            .inboxes
            .iter()
            .flat_map(|ms| ms.iter().map(|m| m.words.len()))
            .sum();
        let t = &self.transport;
        let pending: usize = t.pending_retransmit.iter().map(|m| m.words.len()).sum();
        let held: usize = t.partition_held.iter().map(|(_, m)| m.words.len()).sum();
        let program: usize = self.program.iter().map(|p| p.len()).sum();
        program + inbox + pending + held
    }
}

/// Runtime fault bookkeeping, shared by both fault layers: the accounted
/// layer keeps one armed by [`crate::Cluster::arm_faults`], the exact
/// engine builds one per [`crate::Cluster::run_program_with_faults`] call.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    pub(crate) policy: RecoveryPolicy,
    /// One flag per plan event: events fire exactly once per execution,
    /// including across recovery replays.
    pub(crate) fired: Vec<bool>,
    pub(crate) retries_used: usize,
    /// One flag per plan partition: the accounted layer charges each
    /// partition's barrier stall exactly once per execution.
    partitions_charged: Vec<bool>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, policy: RecoveryPolicy) -> Self {
        let fired = vec![false; plan.events().len()];
        let partitions_charged = vec![false; plan.partitions().len()];
        FaultState {
            plan,
            policy,
            fired,
            retries_used: 0,
            partitions_charged,
        }
    }

    /// Index of the first unfired event scheduled for rounds `from..=to`.
    pub(crate) fn next_due(&self, from: usize, to: usize) -> Option<usize> {
        self.plan
            .events()
            .iter()
            .zip(&self.fired)
            .position(|(ev, &fired)| !fired && (from..=to).contains(&ev.round))
    }

    /// The barrier stall of the first uncharged partition window open by
    /// ledger round `now`, now marked charged (accounted layer).
    pub(crate) fn take_partition_stall(&mut self, now: usize) -> Option<usize> {
        let i = self
            .plan
            .partitions()
            .iter()
            .zip(&self.partitions_charged)
            .position(|(p, &charged)| !charged && p.rounds > 0 && p.start <= now)?;
        self.partitions_charged[i] = true;
        Some(self.plan.partitions()[i].rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_sort_events_by_round() {
        let plan = FaultPlan::quiet(Seed(1))
            .crash(3, 9)
            .straggle(1, 2, 4)
            .crash(0, 5);
        let rounds: Vec<usize> = plan.events().iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![2, 5, 9]);
    }

    #[test]
    fn random_plans_are_reproducible() {
        let a = FaultPlan::random(Seed(7), 16, 10, 3, 2);
        let b = FaultPlan::random(Seed(7), 16, 10, 3, 2);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 5);
        let c = FaultPlan::random(Seed(8), 16, 10, 3, 2);
        assert_ne!(a, c, "different seeds should give different plans");
    }

    #[test]
    fn random_plan_respects_bounds() {
        let plan = FaultPlan::random(Seed(3), 8, 6, 10, 10);
        for ev in plan.events() {
            assert!(ev.machine < 8);
            assert!((1..=6).contains(&ev.round));
            if let FaultKind::Straggle { rounds } = ev.kind {
                assert!((1..=3).contains(&rounds));
            }
        }
    }

    #[test]
    fn quiet_plan_is_quiet() {
        assert!(FaultPlan::quiet(Seed(0)).is_quiet());
        assert!(!FaultPlan::quiet(Seed(0)).crash(0, 1).is_quiet());
        assert!(!FaultPlan::quiet(Seed(0))
            .with_message_faults(10, 0)
            .is_quiet());
        assert!(!FaultPlan::quiet(Seed(0)).with_corruption(10).is_quiet());
        assert!(!FaultPlan::quiet(Seed(0)).with_reordering(10).is_quiet());
        assert!(!FaultPlan::quiet(Seed(0))
            .partition(2, 3, vec![0, 1])
            .is_quiet());
        // A zero-length partition window schedules nothing.
        assert!(FaultPlan::quiet(Seed(0))
            .partition(2, 0, vec![0])
            .is_quiet());
    }

    #[test]
    fn message_fault_rates_are_clamped() {
        let plan = FaultPlan::quiet(Seed(0))
            .with_message_faults(5000, 2000)
            .with_corruption(9999)
            .with_reordering(1001);
        assert_eq!(plan.drop_per_mille(), 1000);
        assert_eq!(plan.dup_per_mille(), 1000);
        assert_eq!(plan.corrupt_per_mille(), 1000);
        assert_eq!(plan.reorder_per_mille(), 1000);
    }

    #[test]
    fn partitions_normalize_members_and_sort() {
        let plan = FaultPlan::quiet(Seed(0))
            .partition(5, 2, vec![3, 1, 3])
            .partition(0, 1, vec![0]);
        let ps = plan.partitions();
        assert_eq!(ps.len(), 2);
        // `start` is clamped to round 1 and entries sort by start round.
        assert_eq!(ps[0].start, 1);
        assert_eq!(ps[1].members, vec![1, 3]);
        assert!(ps[1].active_at(5));
        assert!(ps[1].active_at(6));
        assert!(!ps[1].active_at(7));
        assert_eq!(ps[1].heal_round(), 7);
        assert!(ps[1].cuts(1, 0));
        assert!(ps[1].cuts(0, 3));
        assert!(!ps[1].cuts(1, 3));
        assert!(!ps[1].cuts(0, 2));
    }

    #[test]
    fn backoff_schedule_doubles_and_saturates() {
        let p = RecoveryPolicy::restart_with_backoff(4, 2);
        assert_eq!(p.backoff_rounds(1), 2);
        assert_eq!(p.backoff_rounds(2), 4);
        assert_eq!(p.backoff_rounds(3), 8);
        assert_eq!(p.max_retries(), 4);
        // Non-backoff policies never idle.
        assert_eq!(RecoveryPolicy::restart(4).backoff_rounds(3), 0);
        assert_eq!(RecoveryPolicy::FailFast.backoff_rounds(1), 0);
        assert_eq!(RecoveryPolicy::FailFast.max_retries(), 0);
        // A huge retry count saturates instead of overflowing the shift.
        let big = RecoveryPolicy::restart_with_backoff(usize::MAX, 3);
        assert_eq!(big.backoff_rounds(4000), usize::MAX);
    }

    #[test]
    fn random_plan_handles_degenerate_dimensions() {
        // Zero machines / zero horizon clamp to 1 rather than panicking,
        // and the result is still perfectly reproducible.
        let a = FaultPlan::random(Seed(5), 0, 0, 4, 4);
        let b = FaultPlan::random(Seed(5), 0, 0, 4, 4);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 8);
        for ev in a.events() {
            assert_eq!(ev.machine, 0, "only machine 0 exists after clamping");
            assert_eq!(ev.round, 1, "only round 1 exists after clamping");
        }
        // Zero requested events yields a quiet plan.
        assert!(FaultPlan::random(Seed(5), 8, 8, 0, 0).is_quiet());
    }

    #[test]
    fn random_plan_determinism_is_argument_sensitive() {
        let base = FaultPlan::random(Seed(9), 16, 10, 3, 2);
        assert_eq!(base, FaultPlan::random(Seed(9), 16, 10, 3, 2));
        assert_ne!(base, FaultPlan::random(Seed(9), 16, 10, 2, 3));
        assert_ne!(base, FaultPlan::random(Seed(9), 8, 10, 3, 2));
        // Transport rates survive the builder chain on random plans too.
        let dressed = FaultPlan::random(Seed(9), 16, 10, 3, 2)
            .with_message_faults(50, 50)
            .with_corruption(25)
            .with_reordering(25);
        assert_eq!(dressed.events(), base.events());
        assert_eq!(dressed.corrupt_per_mille(), 25);
    }

    #[test]
    fn recovery_event_display_names_everything() {
        let ev = RecoveryEvent {
            machine: 4,
            crash_round: 9,
            checkpoint_round: 8,
            replayed_rounds: 1,
            reshipped_words: 17,
        };
        let s = ev.to_string();
        assert!(s.contains("machine 4"), "{s}");
        assert!(s.contains("round 9"), "{s}");
        assert!(s.contains("17 word(s)"), "{s}");
    }
}
