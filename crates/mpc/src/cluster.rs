//! The MPC cluster: machines, round execution, and resource accounting.
//!
//! Two execution layers share one [`Stats`] ledger:
//!
//! * the **exact engine** ([`Cluster::run_program`]) moves explicit word
//!   messages between machines, enforcing the per-round send/receive caps —
//!   used by the genuinely distributed primitives (aggregate, broadcast)
//!   and by tests that demonstrate cap enforcement;
//! * the **accounted primitives** (in [`crate::distributed`]) perform graph
//!   operations in-process but *charge* the documented round cost and
//!   *assert* space feasibility, which is the standard way research code
//!   simulates MPC faithfully: the model's observable resources (rounds,
//!   per-machine words) are enforced, local computation is free — as in the
//!   paper, which explicitly allows unbounded local computation.
//!
//! Beside the ledger a cluster keeps its model-event log
//! ([`Cluster::events`]), its provenance log, and the host's wall-clock
//! [`PhaseTimes`] ([`Cluster::phase_times`]), which no ledger sees.

use crate::config::{MpcConfig, CHECKPOINT_INTERVAL};
use crate::faults::{
    Checkpoint, FaultKind, FaultPlan, FaultState, Partition, RecoveryEvent, RecoveryPolicy,
    Transport,
};
use crate::phase::{PhaseTimer, PhaseTimes};
use crate::provenance::{ComponentId, ProvenanceLog, TagTable};
use crate::route::RouteArena;
use crate::supervise::{ClusterEvent, SupervisorConfig};
use csmpc_graph::fnv::fnv1a_words;
use csmpc_graph::rng::{Seed, SplitMix64};
use csmpc_parallel::par_map_mut_into;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Resource ledger for one MPC execution: the model's observables only.
/// Host wall-clock time sits beside it, in [`Cluster::phase_times`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Synchronous communication rounds elapsed.
    pub rounds: usize,
    /// Largest number of words any machine sent or received in one round.
    pub max_round_words: usize,
    /// Largest number of words any machine stored at any time.
    pub max_storage_words: usize,
    /// Total words moved across the whole execution.
    pub total_words: u64,
    /// Rounds spent on recovery — checkpoint replays, restore barriers,
    /// backoff idling, quarantine migrations. Also counted in [`rounds`]:
    /// this field attributes overhead, it does not extend the ledger.
    ///
    /// [`rounds`]: Stats::rounds
    pub recovery_rounds: usize,
    /// Words re-shipped by recovery and speculation (also counted in
    /// [`total_words`](Stats::total_words)).
    pub recovery_words: u64,
    /// Machine-rounds of speculative re-execution run by supervisor
    /// spares off the critical path: they cost work (and their shipped
    /// state costs words) but not barrier rounds.
    pub speculative_rounds: usize,
    /// Corrupted envelopes detected (and discarded) by checksum
    /// verification. Detection is total: a tampered payload is never
    /// handed to a machine, so this counter is exactly the number of
    /// corruption faults that struck.
    pub corrupted_detected: u64,
}

impl Stats {
    /// The model observables — every field — in canonical order.
    /// `Display`, the service journal codec and the service report
    /// fingerprint all walk this one list, so their field sets cannot
    /// drift apart.
    pub const MODEL_FIELDS: [&'static str; 8] = [
        "rounds",
        "max_round_words",
        "max_storage_words",
        "total_words",
        "recovery_rounds",
        "recovery_words",
        "speculative_rounds",
        "corrupted_detected",
    ];

    /// The model observables as words, in [`Stats::MODEL_FIELDS`] order.
    #[must_use]
    pub fn model_words(&self) -> [u64; 8] {
        [
            self.rounds as u64,
            self.max_round_words as u64,
            self.max_storage_words as u64,
            self.total_words,
            self.recovery_rounds as u64,
            self.recovery_words,
            self.speculative_rounds as u64,
            self.corrupted_detected,
        ]
    }

    /// The ledger whose model observables are `words` (in
    /// [`Stats::MODEL_FIELDS`] order).
    #[must_use]
    pub fn from_model_words(w: [u64; 8]) -> Self {
        Stats {
            rounds: w[0] as usize,
            max_round_words: w[1] as usize,
            max_storage_words: w[2] as usize,
            total_words: w[3],
            recovery_rounds: w[4] as usize,
            recovery_words: w[5],
            speculative_rounds: w[6] as usize,
            corrupted_detected: w[7],
        }
    }

    /// Merges another ledger (e.g. a sub-computation, or one machine's
    /// per-round delta in the parallel engine) into this one, summing
    /// rounds and word totals (saturating at the type maxima) and taking
    /// maxima of space figures.
    ///
    /// `absorb` is associative and commutative (`+` and `max` both are, and
    /// saturation preserves that), so a set of per-machine deltas merges to
    /// the same ledger in any order — the property the parallel engine's
    /// fixed-order merge relies on, verified by a property test.
    pub fn absorb(&mut self, other: &Stats) {
        self.rounds = self.rounds.saturating_add(other.rounds);
        self.max_round_words = self.max_round_words.max(other.max_round_words);
        self.max_storage_words = self.max_storage_words.max(other.max_storage_words);
        self.total_words = self.total_words.saturating_add(other.total_words);
        self.recovery_rounds = self.recovery_rounds.saturating_add(other.recovery_rounds);
        self.recovery_words = self.recovery_words.saturating_add(other.recovery_words);
        self.speculative_rounds = self
            .speculative_rounds
            .saturating_add(other.speculative_rounds);
        self.corrupted_detected = self
            .corrupted_detected
            .saturating_add(other.corrupted_detected);
    }

    /// Charges journal-replay work onto a bare ledger — the service-layer
    /// analogue of [`Cluster::charge_recovery`], for recovery paths that
    /// run *before* any cluster exists (replaying a crashed service's
    /// write-ahead log). Same discipline: replay rounds and words land in
    /// both the headline totals and the dedicated recovery columns, so
    /// recovery is never free and never hidden.
    pub fn charge_replay(&mut self, rounds: usize, words: u64) {
        self.rounds = self.rounds.saturating_add(rounds);
        self.total_words = self.total_words.saturating_add(words);
        self.max_round_words = self.max_round_words.max(words as usize);
        self.recovery_rounds = self.recovery_rounds.saturating_add(rounds);
        self.recovery_words = self.recovery_words.saturating_add(words);
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in Self::MODEL_FIELDS
            .iter()
            .zip(self.model_words())
            .enumerate()
        {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{}={value}", name.replace('_', " "))?;
        }
        Ok(())
    }
}

/// Error raised when an execution violates the low-space constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpcError {
    /// A machine tried to send or receive more than `S` words in one round.
    BandwidthExceeded {
        /// Machine index.
        machine: usize,
        /// Words attempted.
        words: usize,
        /// The cap `S`.
        limit: usize,
        /// Value of the round counter when the violation occurred.
        round: usize,
    },
    /// A machine's storage exceeded `S` words.
    SpaceExceeded {
        /// Machine index (or a representative).
        machine: usize,
        /// Words stored.
        words: usize,
        /// The cap `S`.
        limit: usize,
        /// Value of the round counter when the violation occurred.
        round: usize,
    },
    /// A message was addressed to a machine that does not exist.
    UnknownMachine {
        /// The bad address.
        machine: usize,
        /// Number of machines.
        count: usize,
    },
    /// An operation needed more rounds than the caller's cap.
    RoundLimitExceeded {
        /// The cap.
        limit: usize,
    },
    /// A machine crashed and the execution could not (or was not allowed
    /// to) recover: fail-fast policy, exhausted retry budget, or a lost
    /// quorum (a majority of machines down in one round).
    MachineFailed {
        /// The crashed machine.
        machine: usize,
        /// Value of the round counter when the crash struck.
        round: usize,
    },
    /// An input is larger than the model's word-indexed structures can
    /// address; it was refused before anything was built.
    InputTooLarge {
        /// What does not fit, and the limit it exceeds.
        reason: String,
    },
    /// An input spec describes no graph of its family (a cycle on fewer
    /// than 3 nodes, say); it was refused before anything was built.
    MalformedInput {
        /// Which constraint the spec breaks.
        reason: String,
    },
}

impl fmt::Display for MpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpcError::BandwidthExceeded {
                machine,
                words,
                limit,
                round,
            } => write!(
                f,
                "machine {machine} moved {words} words in round {round} (limit {limit})"
            ),
            MpcError::SpaceExceeded {
                machine,
                words,
                limit,
                round,
            } => {
                // `Cluster::require_fits` reports space pressure that is not
                // attributable to one machine with the sentinel
                // `usize::MAX`, which is no machine index.
                if *machine == usize::MAX {
                    f.write_str("unattributed machine")?;
                } else {
                    write!(f, "machine {machine}")?;
                }
                write!(f, " stored {words} words in round {round} (limit {limit})")
            }
            MpcError::UnknownMachine { machine, count } => {
                write!(f, "machine {machine} does not exist ({count} machines)")
            }
            MpcError::RoundLimitExceeded { limit } => {
                write!(f, "round limit {limit} exceeded")
            }
            MpcError::MachineFailed { machine, round } => {
                write!(
                    f,
                    "machine {machine} failed in round {round} beyond recovery"
                )
            }
            MpcError::InputTooLarge { reason } => write!(f, "input too large: {reason}"),
            MpcError::MalformedInput { reason } => write!(f, "malformed input: {reason}"),
        }
    }
}

impl std::error::Error for MpcError {}

/// A word-addressed message between machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Destination machine.
    pub to: usize,
    /// Payload words.
    pub words: Vec<u64>,
}

/// FNV-1a over the destination, the payload length, and the payload words
/// with word `word` XORed by `mask`: the transport checksum sealed into an
/// [`Envelope`] (`mask = 0`), or the one a receiver recomputes after an
/// in-flight flip, without materializing the tampered payload.
fn transport_checksum(message: &Message, word: usize, mask: u64) -> u64 {
    let words = message.words.iter().enumerate();
    let words = words.map(|(i, &w)| if i == word { w ^ mask } else { w });
    fnv1a_words(
        [message.to as u64, message.words.len() as u64]
            .into_iter()
            .chain(words),
    )
}

/// A checksummed transport envelope around a [`Message`].
///
/// The exact engine seals every payload it exposes to the corruption
/// fault class: an adversarial in-flight bit-flip makes the envelope fail
/// [`Envelope::verify`], so the receiver discards it, the transport
/// retransmits the original (both transmissions charged), and
/// [`Stats::corrupted_detected`] counts the strike. A tampered payload is
/// *never* handed to a machine — corruption is detected, not silently
/// applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    message: Message,
    checksum: u64,
}

impl Envelope {
    /// Seals `message` with its transport checksum.
    #[must_use]
    pub fn seal(message: Message) -> Self {
        let checksum = Self::checksum_of(&message);
        Envelope { message, checksum }
    }

    /// `true` when the payload still matches the sealed checksum.
    #[must_use]
    pub fn verify(&self) -> bool {
        Self::checksum_of(&self.message) == self.checksum
    }

    /// The enclosed message (payload as currently carried, tampered or
    /// not — callers must [`Envelope::verify`] before trusting it).
    #[must_use]
    pub fn message(&self) -> &Message {
        &self.message
    }

    /// The adversary's move: XORs `mask` into payload word `word` without
    /// re-sealing. A nonzero mask on a valid index makes
    /// [`Envelope::verify`] fail (FNV-1a mixes every payload byte).
    #[must_use]
    pub fn tampered(mut self, word: usize, mask: u64) -> Self {
        if let Some(w) = self.message.words.get_mut(word) {
            *w ^= mask;
        }
        self
    }

    /// The sealed transport checksum (FNV-1a over destination, length,
    /// and payload words).
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// The checksum [`Envelope::seal`] would stamp on `message`, computed
    /// on the borrowed payload — no clone, no envelope allocation. The
    /// engine's clean path uses this for zero-copy verification.
    #[must_use]
    pub fn checksum_of(message: &Message) -> u64 {
        transport_checksum(message, 0, 0)
    }

    /// The checksum a receiver would recompute after the adversary XORs
    /// `mask` into payload word `word` in flight — again on the borrowed
    /// payload. Out-of-range `word` leaves the payload untouched (the
    /// same no-op as [`Envelope::tampered`]).
    #[must_use]
    pub fn tampered_checksum_of(message: &Message, word: usize, mask: u64) -> u64 {
        transport_checksum(message, word, mask)
    }

    /// Unwraps the message if the checksum verifies; `None` for a
    /// detected corruption.
    #[must_use]
    pub fn open(self) -> Option<Message> {
        self.verify().then_some(self.message)
    }
}

/// One machine's resident program for the exact engine: one callback per
/// round.
///
/// The engine drives a slice of these — one shard per machine, indexed by
/// machine id — so that a round can step all machines concurrently
/// ([`crate::MpcConfig::parallelism`]). A shard owns only its machine's
/// state: `round` sees its own inbox and returns its own outgoing
/// messages, and must not share mutable state with other shards (the
/// `Send` bound plus `&mut self` access enforce exclusivity).
pub trait MachineProgram: Send {
    /// Executes one round on machine `id` with the messages received this
    /// round; returns outgoing messages. Return an empty set from every
    /// machine to quiesce.
    fn round(&mut self, id: usize, inbox: &[Message]) -> Vec<Message>;

    /// Current storage footprint of this machine, in words, for space
    /// enforcement.
    fn storage_words(&self) -> usize;

    /// Serializes this machine's resident state into words for a recovery
    /// [`Checkpoint`]. The default (empty) is correct only for programs
    /// whose `round` logic is insensitive to replay; programs that
    /// accumulate state should capture it here so restart-from-checkpoint
    /// recovery re-executes from a consistent snapshot.
    fn snapshot(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restores state previously captured by [`MachineProgram::snapshot`].
    fn restore(&mut self, snapshot: &[u64]) {
        let _ = snapshot;
    }
}

/// A low-space MPC cluster for an `n`-node input.
#[derive(Debug, Clone)]
pub struct Cluster {
    cfg: MpcConfig,
    n_input: usize,
    local_space: usize,
    num_machines: usize,
    shared_seed: Seed,
    stats: Stats,
    phase: PhaseTimes,
    events: Vec<ClusterEvent>,
    provenance: ProvenanceLog,
    /// Components whose words each machine currently holds, for the exact
    /// engine's message-level provenance propagation.
    machine_components: TagTable,
    /// Armed fault plan and recovery policy for the accounted layer, if any.
    faults: Option<FaultState>,
    /// Armed supervision policy (straggler speculation + quarantine), if
    /// any. See [`Cluster::supervise`].
    supervisor: Option<SupervisorConfig>,
    /// Per-machine count of fault events survived (crashes, speculated
    /// straggles) — the quarantine trigger.
    failure_counts: Vec<usize>,
    /// Machines decommissioned by the supervisor; their fault events no
    /// longer fire and their components are considered tainted.
    quarantined: BTreeSet<usize>,
    /// Machines struck by any fired fault event this execution, for the
    /// degraded-output taint computation.
    faulted: BTreeSet<usize>,
    /// Armed job-level deadline: total ledger rounds the execution may
    /// consume before the barrier refuses to advance. `None` = unlimited.
    /// See [`Cluster::arm_job_deadline`].
    job_deadline: Option<usize>,
    /// Per-execution marker: `true` once the armed job deadline has been
    /// tripped. Cleared by [`Cluster::reset_for_repetition`] (the armed
    /// deadline itself stays, like the fault plan).
    deadline_tripped: bool,
}

impl Cluster {
    /// Creates a cluster sized for an `n`-node, `total_words`-word input.
    #[must_use]
    pub fn new(cfg: MpcConfig, n: usize, total_words: usize, shared_seed: Seed) -> Self {
        let local_space = cfg.local_space(n);
        let num_machines = cfg.machines_for(n, total_words.max(1));
        Cluster {
            cfg,
            n_input: n,
            local_space,
            num_machines,
            shared_seed,
            stats: Stats::default(),
            phase: PhaseTimes::default(),
            events: Vec::new(),
            provenance: ProvenanceLog::new(),
            machine_components: TagTable::new(num_machines),
            faults: None,
            supervisor: None,
            failure_counts: vec![0; num_machines],
            quarantined: BTreeSet::new(),
            faulted: BTreeSet::new(),
            job_deadline: None,
            deadline_tripped: false,
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &MpcConfig {
        &self.cfg
    }

    /// Local space `S` per machine, in words.
    #[must_use]
    pub fn local_space(&self) -> usize {
        self.local_space
    }

    /// Number of machines `M`.
    #[must_use]
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// Input size `n` this cluster was provisioned for.
    #[must_use]
    pub fn input_n(&self) -> usize {
        self.n_input
    }

    /// Aggregation-tree depth `d = ⌈log_S M⌉` over this cluster's machines:
    /// every accounted primitive charges a multiple of it.
    #[must_use]
    pub fn tree_depth(&self) -> usize {
        self.cfg.tree_depth(self.n_input, self.num_machines)
    }

    /// The shared random seed `S` available to all machines.
    #[must_use]
    pub fn shared_seed(&self) -> Seed {
        self.shared_seed
    }

    /// The resource ledger so far.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Host wall-clock time spent in each engine phase so far.
    /// Observability only: it sits beside the [`Stats`] ledger, not in it.
    #[must_use]
    pub fn phase_times(&self) -> PhaseTimes {
        self.phase
    }

    /// Resets the ledger and the phase timings (e.g. between repetitions).
    ///
    /// Note this clears *only* those two: provenance flows, machine
    /// component tags, and the event log survive. Repeated independent
    /// runs on one cluster should use [`Cluster::reset_for_repetition`]
    /// instead, or stale tags from trial `t` leak into trial `t + 1`.
    pub fn reset_stats(&mut self) {
        self.stats = Stats::default();
        self.phase = PhaseTimes::default();
    }

    /// Resets everything one repetition of an experiment observes: the
    /// [`Stats`] ledger and phase timings, the provenance log, the
    /// per-machine component tags, the event log and the supervisor's
    /// failure/quarantine/taint bookkeeping, and any armed fault plan's
    /// fired/retry/partition cursors. After this, the cluster behaves as
    /// freshly built for the next trial (the supervision *policy* itself
    /// stays armed, like the fault plan does).
    pub fn reset_for_repetition(&mut self) {
        self.reset_stats();
        self.provenance.clear();
        self.machine_components.clear();
        self.events.clear();
        self.failure_counts.fill(0);
        self.quarantined.clear();
        self.faulted.clear();
        // Deadline bookkeeping is per-execution state; the armed deadline
        // itself (the policy) survives, exactly like the fault plan.
        self.deadline_tripped = false;
        if let Some(fs) = &mut self.faults {
            *fs = FaultState::new(fs.plan.clone(), fs.policy);
        }
    }

    /// Re-seeds the shared randomness (e.g. one derived stream per trial of
    /// a repeated experiment on a reused cluster).
    pub fn set_shared_seed(&mut self, seed: Seed) {
        self.shared_seed = seed;
    }

    /// Arms a fault plan for the *accounted* layer: subsequent
    /// [`Cluster::advance_rounds`] calls (and therefore every accounted
    /// primitive) observe the plan's crashes and stragglers under `policy`.
    /// The exact engine takes its plan per call via
    /// [`Cluster::run_program_with_faults`] instead.
    pub fn arm_faults(&mut self, plan: FaultPlan, policy: RecoveryPolicy) {
        self.faults = Some(FaultState::new(plan, policy));
    }

    /// Arms a [`SupervisorConfig`]: stragglers past the deadline budget are
    /// speculatively re-executed by spares (charged, off the critical
    /// path), and machines whose fault count exceeds the failure threshold
    /// are quarantined instead of consuming retries.
    pub fn supervise(&mut self, cfg: SupervisorConfig) {
        self.supervisor = Some(cfg);
    }

    /// Arms a job-level deadline: once the ledger's round counter exceeds
    /// `rounds`, the synchronous barrier refuses to advance and the
    /// execution fails with [`MpcError::RoundLimitExceeded`]. This is the
    /// per-job deadline hook of the service layer, enforced at the same
    /// barrier where the supervision machinery (straggler deadlines,
    /// backoff, quarantine) already runs — stalls, backoff idling, and
    /// partition waits all consume the deadline budget, so a job cannot
    /// hide overruns in recovery overhead.
    pub fn arm_job_deadline(&mut self, rounds: usize) {
        self.job_deadline = Some(rounds);
        self.deadline_tripped = false;
    }

    /// Removes any armed job deadline (and its tripped marker).
    pub fn disarm_job_deadline(&mut self) {
        self.job_deadline = None;
        self.deadline_tripped = false;
    }

    /// The armed job deadline (total ledger rounds), if any.
    #[must_use]
    pub fn job_deadline(&self) -> Option<usize> {
        self.job_deadline
    }

    /// `true` once this execution has tripped the armed job deadline.
    /// Per-execution bookkeeping: cleared by
    /// [`Cluster::reset_for_repetition`].
    #[must_use]
    pub fn deadline_tripped(&self) -> bool {
        self.deadline_tripped
    }

    /// Fails the execution when the ledger has advanced past the armed
    /// job deadline. Called at every barrier advance, after fault and
    /// supervision processing, so recovery stalls count against the
    /// budget too.
    fn check_job_deadline(&mut self) -> Result<(), MpcError> {
        if let Some(limit) = self.job_deadline {
            if self.stats.rounds > limit {
                self.deadline_tripped = true;
                return Err(MpcError::RoundLimitExceeded { limit });
            }
        }
        Ok(())
    }

    /// The supervision policy in force, if any.
    #[must_use]
    pub fn supervisor(&self) -> Option<&SupervisorConfig> {
        self.supervisor.as_ref()
    }

    /// Crash recoveries and supervision actions so far, in the order they
    /// happened. A checkpoint restore never rolls this log back.
    #[must_use]
    pub fn events(&self) -> &[ClusterEvent] {
        &self.events
    }

    /// Machines decommissioned by the supervisor, ascending.
    #[must_use]
    pub fn quarantined_machines(&self) -> &BTreeSet<usize> {
        &self.quarantined
    }

    /// Machines struck by any fired fault event this execution (crashes
    /// and straggles, whether or not they were recovered), ascending.
    /// Quarantined machines are included. This is the machine-level input
    /// to the degraded-output taint computation.
    #[must_use]
    pub fn faulted_machines(&self) -> &BTreeSet<usize> {
        &self.faulted
    }

    /// The component-provenance log of this execution. It is kept apart
    /// from [`Cluster::events`] because a checkpoint restore rolls it back.
    #[must_use]
    pub fn provenance(&self) -> &ProvenanceLog {
        &self.provenance
    }

    /// Mutable access to the provenance log, for accounted primitives that
    /// record flows and for clearing between repetitions.
    pub fn provenance_mut(&mut self) -> &mut ProvenanceLog {
        &mut self.provenance
    }

    /// Tags `machine` as holding words originating from `component`. Called
    /// when input data is first placed on machines (e.g. by
    /// [`crate::DistributedGraph::distribute`]); the exact engine then
    /// propagates tags along messages.
    pub fn tag_machine(&mut self, machine: usize, component: ComponentId) {
        self.machine_components.insert(machine, component);
    }

    /// Replaces `machine`'s component tags with `tags` (ascending,
    /// distinct) in one bulk write — the distribution-time seeding path,
    /// equivalent to [`Cluster::tag_machine`] per element on a machine
    /// with no prior tags but without the per-element set maintenance.
    pub fn seed_machine_tags(&mut self, machine: usize, tags: &[ComponentId]) {
        self.machine_components.set(machine, tags);
    }

    /// Bulk tag seeding from per-machine component bitmasks (bit `i` ⇒
    /// component `i`); machines with an empty mask are untouched. One
    /// spine append per machine — the distribution sweep's fast path.
    pub fn seed_machine_tag_masks(&mut self, masks: &[u64]) {
        self.machine_components.seed_from_masks(masks);
    }

    /// Bulk tag seeding for a connected input: every yielded machine's
    /// tag run becomes exactly `[component 0]`.
    pub fn seed_machines_component_zero(&mut self, machines: impl Iterator<Item = usize>) {
        self.machine_components.seed_component_zero(machines);
    }

    /// The components whose words `machine` currently holds, ascending.
    #[must_use]
    pub fn machine_components(&self, machine: usize) -> &[ComponentId] {
        self.machine_components.machine(machine)
    }

    /// Charges `rounds` rounds to the ledger (used by accounted primitives).
    /// Saturates at `usize::MAX` rather than wrapping.
    pub fn charge_rounds(&mut self, rounds: usize) {
        self.stats.rounds = self.stats.rounds.saturating_add(rounds);
    }

    /// Absorbs a wall-clock phase attribution recorded by an accounted
    /// primitive into [`Cluster::phase_times`]. Observability only — it
    /// never feeds a model observable.
    pub fn record_phase(&mut self, delta: &PhaseTimes) {
        self.phase.absorb(delta);
    }

    /// Runs `f`, one accounted primitive's host-side sweep, and books its
    /// wall time to [`PhaseTimes::step_ns`]. The caller charges the rounds.
    pub(crate) fn time_step<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let timer = PhaseTimer::start();
        let out = f();
        add_elapsed(&mut self.phase.step_ns, timer);
        out
    }

    /// Advances the round counter one synchronous barrier at a time,
    /// letting any armed [`FaultPlan`] strike. This is what accounted
    /// primitives call instead of [`Cluster::charge_rounds`]: with no plan
    /// armed it is exactly `charge_rounds(rounds)`; with a plan armed,
    /// stragglers stall the barrier (extra ledger rounds), and crashes
    /// either fail the computation ([`RecoveryPolicy::FailFast`]) or
    /// trigger a charged restart-from-checkpoint recovery.
    ///
    /// # Errors
    ///
    /// [`MpcError::MachineFailed`] if a crash strikes under fail-fast or
    /// after the retry budget is exhausted;
    /// [`MpcError::UnknownMachine`] for an event on a machine the cluster
    /// does not have; [`MpcError::RoundLimitExceeded`] once an armed job
    /// deadline ([`Cluster::arm_job_deadline`]) is tripped.
    pub fn advance_rounds(&mut self, rounds: usize) -> Result<(), MpcError> {
        let Some(mut fs) = self.faults.take() else {
            self.stats.rounds = self.stats.rounds.saturating_add(rounds);
            return self.check_job_deadline();
        };
        let result = (0..rounds).try_for_each(|_| {
            self.stats.rounds = self.stats.rounds.saturating_add(1);
            self.drive_accounted_faults(&mut fs)?;
            self.check_job_deadline()
        });
        self.faults = Some(fs);
        result
    }

    /// The accounted layer's loop over the shared fault driver: fires every
    /// event whose round the ledger has reached, one at a time, because
    /// each stall or recovery extends the ledger and can pull later events
    /// (and partitions) into range.
    fn drive_accounted_faults(&mut self, fs: &mut FaultState) -> Result<(), MpcError> {
        loop {
            let now = self.stats.rounds;
            // Each partition window charges its barrier stall exactly once:
            // while the cut is up, boundary-crossing traffic is held and
            // the synchronous computation waits out the window.
            if let Some(stall) = fs.take_partition_stall(now) {
                self.stats.rounds = self.stats.rounds.saturating_add(stall);
                continue;
            }
            let reshipped = self.stats.max_storage_words.max(1);
            match self.fire_next_event(fs, 0, now, |_| reshipped)? {
                None => return Ok(()),
                // The synchronous barrier waits for the slowest machine:
                // everyone pays the (possibly clamped) stall.
                Some(Strike::Stall { rounds, .. }) => {
                    self.stats.rounds = self.stats.rounds.saturating_add(rounds);
                }
                Some(Strike::Crash(machine)) => {
                    if let Some(machine) = self.triage_crashes(fs, &[machine], false)? {
                        self.recover_accounted_crash(machine);
                    }
                }
            }
        }
    }

    /// The one fault-event driver both layers share: fires the next
    /// unfired event on a live machine scheduled for rounds `from..=round`
    /// (each event fires once per execution, recovery replays included)
    /// and dispatches it on its kind. A straggle is speculated with
    /// `reshipped(machine)` words and stamped `round`; a crash is handed
    /// back for crash triage. `None` once nothing is due;
    /// [`MpcError::UnknownMachine`] for an event on a machine the cluster
    /// does not have.
    fn fire_next_event(
        &mut self,
        fs: &mut FaultState,
        from: usize,
        round: usize,
        reshipped: impl Fn(usize) -> usize,
    ) -> Result<Option<Strike>, MpcError> {
        while let Some(idx) = fs.next_due(from, round) {
            fs.fired[idx] = true;
            let ev = fs.plan.events()[idx];
            self.check_machine(ev.machine)?;
            if self.quarantined.contains(&ev.machine) {
                // A decommissioned machine's spare already carries its
                // state; further scheduled faults on it are moot.
                continue;
            }
            let machine = ev.machine;
            self.faulted.insert(machine);
            return Ok(Some(match ev.kind {
                FaultKind::Straggle { rounds } => {
                    let rounds =
                        self.speculate_straggler(machine, rounds, reshipped(machine), round);
                    Strike::Stall { machine, rounds }
                }
                FaultKind::Crash => Strike::Crash(machine),
            }));
        }
        Ok(None)
    }

    /// Crash triage for the crashes at one barrier: a machine past the
    /// supervisor's failure threshold is quarantined; the others consume
    /// retries, and the first of them pays the policy's backoff once.
    /// Returns that machine (`None` if all were quarantined), or
    /// [`MpcError::MachineFailed`] on a lost quorum (a majority down at
    /// once), under fail-fast, or past the retry budget.
    ///
    /// `fail_fast_first` checks fail-fast before quarantine, as the exact
    /// engine must: under fail-fast it holds no checkpoint to hand a
    /// quarantined machine's state to a spare.
    fn triage_crashes(
        &mut self,
        fs: &mut FaultState,
        crashed: &[usize],
        fail_fast_first: bool,
    ) -> Result<Option<usize>, MpcError> {
        let fail_fast = fs.policy == RecoveryPolicy::FailFast;
        if crashed.len() * 2 > self.num_machines || (fail_fast_first && fail_fast) {
            return Err(self.machine_failed(crashed[0]));
        }
        let (mut first, mut retries) = (None, 0);
        for &machine in crashed {
            self.failure_counts[machine] += 1;
            if self.should_quarantine(machine) {
                self.quarantine_machine(machine);
            } else {
                first = first.or(Some(machine));
                retries += 1;
            }
        }
        let Some(first) = first else {
            return Ok(None);
        };
        // Fail-fast's retry budget is zero.
        fs.retries_used += retries;
        if fs.retries_used > fs.policy.max_retries() {
            return Err(self.machine_failed(first));
        }
        self.charge_backoff(first, fs.policy, fs.retries_used);
        Ok(Some(first))
    }

    /// The unrecoverable-crash error, stamped with the ledger round.
    fn machine_failed(&self, machine: usize) -> MpcError {
        MpcError::MachineFailed {
            machine,
            round: self.stats.rounds,
        }
    }

    /// `true` when `machine`'s accumulated failure count crosses the armed
    /// supervisor's quarantine threshold.
    fn should_quarantine(&self, machine: usize) -> bool {
        self.supervisor.as_ref().is_some_and(|sup| {
            !self.quarantined.contains(&machine)
                && self.failure_counts[machine] > sup.failure_threshold
        })
    }

    /// Decommissions `machine`: its salvageable state migrates to a spare
    /// (one synchronous round plus the re-shipped words, charged — even
    /// giving up on a machine is never free), its components are marked
    /// tainted for the degraded-output contract, and subsequent fault
    /// events on it no longer fire or consume retries.
    fn quarantine_machine(&mut self, machine: usize) {
        let migrated = self.stats.max_storage_words.max(1);
        self.charge_recovery(1, migrated);
        self.quarantined.insert(machine);
        self.faulted.insert(machine);
        let components: Vec<ComponentId> = self.machine_components(machine).to_vec();
        self.events.push(ClusterEvent::Quarantine {
            machine,
            round: self.stats.rounds,
            components,
        });
    }

    /// Applies the supervisor's straggler deadline to a `stall`-round
    /// stall on `machine`, returning the barrier rounds actually paid.
    /// With no supervisor (or a stall within the deadline) that is the
    /// full stall. Past the deadline, a spare speculatively re-executes
    /// the machine from its last snapshot: the barrier only waits out the
    /// deadline budget, while the spare's duplicated work is charged as
    /// [`Stats::speculative_rounds`] and its `reshipped` state as words —
    /// speculation trades rounds for work, it is not free.
    fn speculate_straggler(
        &mut self,
        machine: usize,
        stall: usize,
        reshipped: usize,
        round: usize,
    ) -> usize {
        let Some(sup) = self.supervisor else {
            return stall;
        };
        if stall <= sup.deadline_rounds {
            return stall;
        }
        let speculated = stall - sup.deadline_rounds;
        self.charge_recovery(0, reshipped);
        self.stats.speculative_rounds = self.stats.speculative_rounds.saturating_add(speculated);
        self.failure_counts[machine] += 1;
        self.events.push(ClusterEvent::Speculation {
            machine,
            round,
            stall_avoided: speculated,
            reshipped_words: reshipped,
        });
        sup.deadline_rounds
    }

    /// Charges the exponential-backoff idle rounds owed before retry
    /// number `retry` under `policy` (zero for non-backoff policies). The
    /// barrier idles, so the rounds land on the ledger and are attributed
    /// to recovery.
    fn charge_backoff(&mut self, machine: usize, policy: RecoveryPolicy, retry: usize) {
        let stall = policy.backoff_rounds(retry);
        if stall == 0 {
            return;
        }
        self.charge_recovery(stall, 0);
        self.events.push(ClusterEvent::Backoff {
            machine,
            round: self.stats.rounds,
            retry,
            stall_rounds: stall,
        });
    }

    /// Books one restart-from-checkpoint recovery on the accounted layer:
    /// the rounds since the last conceptual checkpoint are re-executed and
    /// the crashed machine's state is re-shipped, all charged to the
    /// ledger. Recovery is never free — at least one round and one word.
    fn recover_accounted_crash(&mut self, machine: usize) {
        let crash_round = self.stats.rounds;
        let checkpoint_round =
            (crash_round.saturating_sub(1) / CHECKPOINT_INTERVAL) * CHECKPOINT_INTERVAL;
        let replayed = (crash_round - checkpoint_round).max(1);
        let reshipped = self.stats.max_storage_words.max(1);
        self.charge_recovery(replayed, reshipped);
        self.events.push(ClusterEvent::Recovery(RecoveryEvent {
            machine,
            crash_round,
            checkpoint_round,
            replayed_rounds: replayed,
            reshipped_words: reshipped,
        }));
    }

    /// Charges `rounds` recovery rounds and `words` re-shipped recovery
    /// words to the ledger, attributing both to recovery overhead
    /// ([`Stats::recovery_rounds`]/[`Stats::recovery_words`]). Used by
    /// every recovery-class path — checkpoint replay, quarantine
    /// migration, degraded-mode salvage — so the overhead of surviving
    /// faults is always visible in one place.
    pub fn charge_recovery(&mut self, rounds: usize, words: usize) {
        self.charge_rounds(rounds);
        self.charge_words(words, words as u64);
        self.stats.recovery_rounds = self.stats.recovery_rounds.saturating_add(rounds);
        self.stats.recovery_words = self.stats.recovery_words.saturating_add(words as u64);
    }

    /// Charges a communication volume observation. The running total
    /// saturates at `u64::MAX` rather than wrapping — large-`n` parallel
    /// sweeps can push the cumulative volume far beyond test-scale values.
    pub fn charge_words(&mut self, per_machine_max: usize, total: u64) {
        self.stats.max_round_words = self.stats.max_round_words.max(per_machine_max);
        self.stats.total_words = self.stats.total_words.saturating_add(total);
    }

    /// Records a storage high-water mark and enforces the space cap.
    ///
    /// # Errors
    ///
    /// [`MpcError::SpaceExceeded`] if `words > S`.
    pub fn charge_storage(&mut self, machine: usize, words: usize) -> Result<(), MpcError> {
        self.charge_storage_at(machine, words, self.stats.rounds)
    }

    /// [`Cluster::charge_storage`], with a violation stamped `round`.
    fn charge_storage_at(
        &mut self,
        machine: usize,
        words: usize,
        round: usize,
    ) -> Result<(), MpcError> {
        self.stats.max_storage_words = self.stats.max_storage_words.max(words);
        if words > self.local_space {
            return Err(MpcError::SpaceExceeded {
                machine,
                words,
                limit: self.local_space,
                round,
            });
        }
        Ok(())
    }

    /// [`MpcError::UnknownMachine`] unless `machine` exists.
    fn check_machine(&self, machine: usize) -> Result<(), MpcError> {
        if machine >= self.num_machines {
            return Err(MpcError::UnknownMachine {
                machine,
                count: self.num_machines,
            });
        }
        Ok(())
    }

    /// Asserts that a per-machine working set fits in `S` without
    /// attributing it to a specific machine.
    ///
    /// # Errors
    ///
    /// [`MpcError::SpaceExceeded`] if `words > S`.
    pub fn require_fits(&mut self, words: usize) -> Result<(), MpcError> {
        self.charge_storage(usize::MAX, words)
    }

    /// Runs a program — one [`MachineProgram`] shard per machine, indexed
    /// by machine id — on the exact engine until it quiesces (a round in
    /// which no machine sends) or `max_rounds` is hit.
    ///
    /// Every round, each machine's total sent words and received words are
    /// checked against `S`, as is its reported storage. Under
    /// [`crate::MpcConfig::parallelism`]`== ParallelismMode::Parallel` the
    /// machines of a round step concurrently; results are bit-identical to
    /// sequential execution either way.
    ///
    /// # Panics
    ///
    /// If `machines.len() != self.num_machines()`.
    ///
    /// # Errors
    ///
    /// Bandwidth, space, addressing, or round-limit violations.
    pub fn run_program<P: MachineProgram>(
        &mut self,
        machines: &mut [P],
        initial: Vec<Message>,
        max_rounds: usize,
    ) -> Result<(), MpcError> {
        let quiet = FaultPlan::quiet(self.shared_seed);
        self.run_program_with_faults(
            machines,
            initial,
            max_rounds,
            &quiet,
            RecoveryPolicy::FailFast,
        )
    }

    /// Runs `program` on the exact engine under a [`FaultPlan`].
    ///
    /// Each execution round (1-indexed) first strikes the plan's events
    /// for that round: stragglers stall their machine while its inbox
    /// buffers; crashes either fail the run ([`RecoveryPolicy::FailFast`],
    /// exhausted retries, or a lost quorum) or restore the latest
    /// round-boundary [`Checkpoint`] and re-execute the lost rounds, the
    /// replay and the re-shipped state charged to the ledger. Then the
    /// surviving machines run one round — route, intake, step, merge —
    /// with pending retransmissions delivered (and charged again) and every
    /// sent message exposed to the plan's seeded drop, corruption and
    /// duplication coins. Under a restart policy a checkpoint is captured
    /// every [`CHECKPOINT_INTERVAL`] rounds; fault events fire once per
    /// execution, recovery replays included.
    ///
    /// Everything is deterministic in (`machines`, `initial`, the plan, the
    /// policy) — result, [`Stats`] ledger and provenance log alike — in
    /// **either** [`crate::MpcConfig::parallelism`] mode: only the
    /// per-machine step runs concurrently, while intake and merge walk the
    /// machines in index order, so the transport RNG draws the same coins.
    ///
    /// # Panics
    ///
    /// If `machines.len() != self.num_machines()`.
    ///
    /// # Errors
    ///
    /// Bandwidth, space, addressing, or round-limit violations, plus
    /// [`MpcError::MachineFailed`] for unrecoverable crashes.
    pub fn run_program_with_faults<P: MachineProgram>(
        &mut self,
        machines: &mut [P],
        initial: Vec<Message>,
        max_rounds: usize,
        plan: &FaultPlan,
        policy: RecoveryPolicy,
    ) -> Result<(), MpcError> {
        let m = self.num_machines;
        assert_eq!(
            machines.len(),
            m,
            "the engine takes one program shard per machine"
        );
        for msg in &initial {
            self.check_machine(msg.to)?;
        }
        let mut state = EngineState::new(m, initial, plan.seed());
        let mut fs = FaultState::new(plan.clone(), policy);
        let mut checkpoint: Option<Checkpoint> = None;
        // Completed execution rounds. Distinct from the ledger's round
        // counter: a recovery rolls `exec` back to the checkpoint while the
        // ledger keeps growing (replayed rounds are paid for twice).
        let mut exec = 0usize;
        while exec < max_rounds {
            // An armed job deadline bounds the *ledger* rounds, which a
            // recovery replay keeps growing even as `exec` rolls back — so
            // a crash-looping execution cannot outrun its deadline.
            self.check_job_deadline()?;
            if policy != RecoveryPolicy::FailFast && exec.is_multiple_of(CHECKPOINT_INTERVAL) {
                let timer = PhaseTimer::start();
                let cp = self.capture_checkpoint(exec, &state, machines, checkpoint.as_ref());
                checkpoint = Some(cp);
                add_elapsed(&mut self.phase.checkpoint_ns, timer);
            }
            let cp = checkpoint.as_ref();
            if let Some(resume) = self.strike_faults(&mut state, &mut fs, machines, exec, cp)? {
                exec = resume;
                continue;
            }
            let round_now = exec + 1;
            self.route(&mut state, round_now);
            self.intake(&mut state, plan, round_now)?;
            self.step(&mut state, machines, round_now);
            let any_sent = self.merge(&mut state, plan, round_now)?;
            if !any_sent && !state.work_pending(round_now) {
                return Ok(());
            }
            exec += 1;
        }
        Err(MpcError::RoundLimitExceeded { limit: max_rounds })
    }

    /// Fault phase of execution round `exec + 1`: fires its plan events.
    /// Straggles stall their machine through the (possibly speculated)
    /// stall; the round's crashes are triaged together and recovered.
    /// Returns the execution round to resume from after a recovery.
    fn strike_faults<P: MachineProgram>(
        &mut self,
        state: &mut EngineState,
        fs: &mut FaultState,
        machines: &mut [P],
        exec: usize,
        checkpoint: Option<&Checkpoint>,
    ) -> Result<Option<usize>, MpcError> {
        let round_now = exec + 1;
        // A speculating spare re-ships the machine's program snapshot.
        let snapshot_words = |id: usize| machines[id].snapshot().len().max(1);
        let mut crashed: Vec<usize> = Vec::new();
        while let Some(strike) = self.fire_next_event(fs, round_now, round_now, snapshot_words)? {
            match strike {
                Strike::Stall { machine, rounds } if rounds > 0 => {
                    let until = &mut state.transport.straggle_until[machine];
                    *until = (*until).max(round_now + rounds - 1);
                }
                Strike::Stall { .. } => {}
                Strike::Crash(machine) => crashed.push(machine),
            }
        }
        if crashed.is_empty() {
            return Ok(None);
        }
        self.triage_crashes(fs, &crashed, true)?;
        // Even when every crash was quarantined, the checkpoint is restored
        // once so the spares resume from consistent state.
        let cp = checkpoint.expect("restart policy always captures a round-0 checkpoint");
        self.recover(state, machines, cp, &crashed, exec);
        Ok(Some(cp.round))
    }

    /// Recovery phase: restores checkpoint `cp` for the whole cluster and
    /// charges one restore round plus the re-shipped checkpoint words (at
    /// least one — recovery is never free), logs each crash, and
    /// attributes the rounds about to be replayed to recovery overhead.
    /// Inboxes flatten back in machine-id order; only per-destination
    /// order is observable, and it is exactly as captured.
    fn recover<P: MachineProgram>(
        &mut self,
        state: &mut EngineState,
        machines: &mut [P],
        cp: &Checkpoint,
        crashed: &[usize],
        exec: usize,
    ) {
        let timer = PhaseTimer::start();
        state.incoming.clear();
        for inbox in &cp.inboxes {
            state.incoming.extend(inbox.iter().cloned());
        }
        for (shard, snap) in machines.iter_mut().zip(&cp.program) {
            shard.restore(snap);
        }
        self.machine_components = (*cp.machine_components).clone();
        self.provenance = (*cp.provenance).clone();
        state.transport = cp.transport.clone();
        let reshipped = cp.words().max(1);
        self.charge_recovery(1, reshipped);
        add_elapsed(&mut self.phase.checkpoint_ns, timer);
        let replayed = exec - cp.round;
        // Stamped with the execution round the crash struck, which this
        // restore rolls back — not the ledger round.
        for &machine in crashed {
            self.events.push(ClusterEvent::Recovery(RecoveryEvent {
                machine,
                crash_round: exec + 1,
                checkpoint_round: cp.round,
                replayed_rounds: replayed,
                reshipped_words: reshipped,
            }));
        }
        self.stats.recovery_rounds = self.stats.recovery_rounds.saturating_add(replayed);
    }

    /// Route phase: delivers last round's dropped messages and the traffic
    /// released by healed partitions into the staging buffer, charging
    /// each repeated transmission again, then sorts everything in flight
    /// by destination.
    fn route(&mut self, state: &mut EngineState, round_now: usize) {
        let timer = PhaseTimer::start();
        let mut retransmit_words = 0u64;
        for msg in state.transport.pending_retransmit.drain(..) {
            retransmit_words += msg.words.len() as u64;
            state.incoming.push(msg);
        }
        let held = &mut state.transport.partition_held;
        for (_, msg) in held.extract_if(.., |(heal, _)| *heal <= round_now) {
            retransmit_words += msg.words.len() as u64;
            state.incoming.push(msg);
        }
        self.charge_words(0, retransmit_words);
        state.fabric.scatter(&mut state.incoming);
        add_elapsed(&mut self.phase.route_ns, timer);
    }

    /// Intake phase (sequential, machine-index order): enforces the
    /// receive cap on every machine participating this round. Stragglers'
    /// slices stay untouched in the routing buffer — they neither receive
    /// nor send this round; [`Cluster::step`] carries their backlog.
    fn intake(
        &mut self,
        state: &mut EngineState,
        plan: &FaultPlan,
        round_now: usize,
    ) -> Result<(), MpcError> {
        let timer = PhaseTimer::start();
        let round = self.stats.rounds + 1;
        let (fabric, transport) = (&mut state.fabric, &mut state.transport);
        for (id, &stalled_until) in transport.straggle_until.iter().enumerate() {
            if round_now <= stalled_until {
                continue;
            }
            let (lo, hi) = fabric.ranges[id];
            // In-round adversarial reordering: one coin per non-empty
            // inbox (drawn only when the fault class is armed, so the
            // coin stream is unchanged otherwise); a hit hands the
            // machine its messages in reversed arrival order.
            if plan.reorder_per_mille() > 0
                && hi - lo > 1
                && (transport.rng.index(1000) as u16) < plan.reorder_per_mille()
            {
                fabric.buf[lo..hi].reverse();
            }
            let received: usize = fabric.buf[lo..hi].iter().map(|m| m.words.len()).sum();
            if received > self.local_space {
                return Err(MpcError::BandwidthExceeded {
                    machine: id,
                    words: received,
                    limit: self.local_space,
                    round,
                });
            }
        }
        add_elapsed(&mut self.phase.intake_ns, timer);
        Ok(())
    }

    /// Step phase (concurrent under `ParallelismMode::Parallel`): every
    /// participating machine runs its round on its own state and inbox
    /// slice — a pure per-machine map, so the execution mode cannot
    /// influence any observable. Then the straggler carry (timed as
    /// routing): a stalled machine's slice moves back into the staging
    /// buffer *before* this round's sends are merged, so next round's
    /// stable scatter delivers the backlog ahead of newer traffic.
    fn step<P: MachineProgram>(
        &mut self,
        state: &mut EngineState,
        machines: &mut [P],
        round_now: usize,
    ) {
        let timer = PhaseTimer::start();
        let stalled = |id: usize| round_now <= state.transport.straggle_until[id];
        let (buf, ranges) = (&state.fabric.buf, &state.fabric.ranges);
        par_map_mut_into(
            self.cfg.parallelism,
            machines,
            &mut state.stepped,
            |id, shard| {
                if stalled(id) {
                    return None;
                }
                let (lo, hi) = ranges[id];
                let outs = shard.round(id, &buf[lo..hi]);
                Some((outs, shard.storage_words()))
            },
        );
        add_elapsed(&mut self.phase.step_ns, timer);
        let timer = PhaseTimer::start();
        for id in (0..self.num_machines).filter(|&id| stalled(id)) {
            let (lo, hi) = state.fabric.ranges[id];
            for slot in &mut state.fabric.buf[lo..hi] {
                state.incoming.push(Message {
                    to: id,
                    words: std::mem::take(&mut slot.words),
                });
            }
        }
        add_elapsed(&mut self.phase.route_ns, timer);
    }

    /// Merge phase (sequential, fixed machine-index order): send caps,
    /// storage charges, per-machine ledger deltas (absorbed associatively
    /// into one round delta), component-tag propagation, transport coins
    /// (drawn in machine order — the coin stream a sequential engine
    /// draws), partition holds, and staging of sends. Completes the round
    /// on the ledger and returns whether any machine sent.
    fn merge(
        &mut self,
        state: &mut EngineState,
        plan: &FaultPlan,
        round_now: usize,
    ) -> Result<bool, MpcError> {
        let timer = PhaseTimer::start();
        let round = self.stats.rounds + 1;
        let mut any_sent = false;
        let mut round_delta = Stats::default();
        for (id, step) in state.stepped.drain(..).enumerate() {
            let Some((outs, storage)) = step else {
                continue;
            };
            let (lo, hi) = state.fabric.ranges[id];
            let received: usize = state.fabric.buf[lo..hi].iter().map(|m| m.words.len()).sum();
            let sent: usize = outs.iter().map(|m| m.words.len()).sum();
            if sent > self.local_space {
                return Err(MpcError::BandwidthExceeded {
                    machine: id,
                    words: sent,
                    limit: self.local_space,
                    round,
                });
            }
            // Stamp the in-flight round (the ledger's counter advances
            // only once the round completes).
            self.charge_storage_at(id, storage, round)?;
            round_delta.absorb(&Stats {
                max_round_words: sent.max(received),
                total_words: sent as u64,
                ..Stats::default()
            });
            any_sent |= !outs.is_empty();
            for msg in outs {
                self.check_machine(msg.to)?;
                // Tags propagate at send time even if the transport
                // delays the physical delivery: the words left the
                // sender this round.
                if msg.to != id && !msg.words.is_empty() {
                    let tags = self.machine_components.machine(id);
                    state.incoming_tags[msg.to].extend_from_slice(tags);
                }
                let transport = &mut state.transport;
                let rng = &mut transport.rng;
                if plan.drop_per_mille() > 0 && (rng.index(1000) as u16) < plan.drop_per_mille() {
                    // Lost in transit; the transport retransmits the
                    // (moved, not cloned) payload next round, charged again.
                    transport.pending_retransmit.push(msg);
                    continue;
                } else if plan.corrupt_per_mille() > 0
                    && !msg.words.is_empty()
                    && (rng.index(1000) as u16) < plan.corrupt_per_mille()
                {
                    // Corrupted in transit: the adversary flips bits in one
                    // payload word of the sealed envelope, the receiver's
                    // checksum catches it and discards the envelope, and
                    // the original is retransmitted next round, charged.
                    // Both checksums are computed on the borrowed payload.
                    let word = rng.index(msg.words.len());
                    let mask = rng.next_u64() | 1;
                    let sealed = Envelope::checksum_of(&msg);
                    let tampered = Envelope::tampered_checksum_of(&msg, word, mask);
                    debug_assert_ne!(
                        sealed, tampered,
                        "a nonzero payload flip must break the seal"
                    );
                    if sealed != tampered {
                        self.stats.corrupted_detected =
                            self.stats.corrupted_detected.saturating_add(1);
                        transport.pending_retransmit.push(msg);
                        continue;
                    }
                    // (On an improbable checksum collision the *original*
                    // message is delivered below — output never differs.)
                } else if plan.dup_per_mille() > 0
                    && (rng.index(1000) as u16) < plan.dup_per_mille()
                {
                    // Duplicated in transit: the receiver deduplicates,
                    // but the extra transmission is paid for.
                    round_delta.total_words = round_delta
                        .total_words
                        .saturating_add(msg.words.len() as u64);
                }
                // An active partition cutting sender from receiver holds
                // the message until the last such window heals; delivery
                // then is charged like a retransmission.
                let heal = plan
                    .partitions()
                    .iter()
                    .filter(|p| p.active_at(round_now) && p.cuts(id, msg.to))
                    .map(Partition::heal_round)
                    .max();
                match heal {
                    Some(h) => transport.partition_held.push((h, msg)),
                    None => state.incoming.push(msg),
                }
            }
        }
        self.propagate_tags(&mut state.incoming_tags, round);
        self.stats.rounds = self.stats.rounds.saturating_add(1);
        self.charge_words(round_delta.max_round_words, round_delta.total_words);
        add_elapsed(&mut self.phase.merge_ns, timer);
        Ok(any_sent)
    }

    /// Merges this round's travelling tags (sorted and deduplicated in
    /// their reused buffers) into the receivers' tag sets, recording a
    /// cross-component flow whenever a machine holding component `a`
    /// receives words tagged with component `b ≠ a`.
    fn propagate_tags(&mut self, incoming_tags: &mut [Vec<ComponentId>], round: usize) {
        for (to, tags) in incoming_tags.iter_mut().enumerate() {
            if tags.is_empty() {
                continue;
            }
            tags.sort_unstable();
            tags.dedup();
            let fresh: Vec<ComponentId> = tags
                .iter()
                .copied()
                .filter(|&c| !self.machine_components.contains(to, c))
                .collect();
            for &from in &fresh {
                for &held in self.machine_components.machine(to) {
                    self.provenance
                        .record("exact-engine message", round, from, held);
                }
            }
            self.machine_components.extend(to, tags);
            tags.clear();
        }
    }

    /// Captures a round-boundary snapshot of the exact engine: in-flight
    /// messages by destination, program snapshots, component tags and
    /// provenance — each shared copy-on-write with `prev` when its content
    /// is unchanged, so a restore never depends on what was shared — plus
    /// one clone of the transport state.
    fn capture_checkpoint<P: MachineProgram>(
        &self,
        exec_round: usize,
        state: &EngineState,
        machines: &[P],
        prev: Option<&Checkpoint>,
    ) -> Checkpoint {
        // Group the flat in-flight buffer by destination. Per-destination
        // arrival order is preserved — the only order the routing sort
        // (stable per destination) can observe.
        let mut by_dest: Vec<Vec<Message>> = vec![Vec::new(); self.num_machines];
        for msg in &state.incoming {
            by_dest[msg.to].push(msg.clone());
        }
        let inboxes: Vec<Arc<Vec<Message>>> = by_dest
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| match prev.and_then(|p| p.inboxes.get(i)) {
                Some(shared) if **shared == inbox => Arc::clone(shared),
                _ => Arc::new(inbox),
            })
            .collect();
        let program: Vec<Arc<Vec<u64>>> = machines
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let snap = shard.snapshot();
                match prev.and_then(|p| p.program.get(i)) {
                    Some(shared) if **shared == snap => Arc::clone(shared),
                    _ => Arc::new(snap),
                }
            })
            .collect();
        let machine_components = match prev {
            Some(p) if *p.machine_components == self.machine_components => {
                Arc::clone(&p.machine_components)
            }
            _ => Arc::new(self.machine_components.clone()),
        };
        let provenance = match prev {
            Some(p) if *p.provenance == self.provenance => Arc::clone(&p.provenance),
            _ => Arc::new(self.provenance.clone()),
        };
        Checkpoint {
            round: exec_round,
            inboxes,
            program,
            machine_components,
            provenance,
            transport: state.transport.clone(),
        }
    }
}

/// Adds the time since `timer` started to one phase's slot.
fn add_elapsed(slot: &mut u64, timer: PhaseTimer) {
    *slot = slot.saturating_add(timer.elapsed_ns());
}

/// What firing one plan event leaves for the fault layer to apply: a
/// (possibly speculated) stall, or a crash for crash triage.
enum Strike {
    Stall { machine: usize, rounds: usize },
    Crash(usize),
}

/// The exact engine's routing and transport state across the rounds of
/// one [`Cluster::run_program_with_faults`] call. In-flight messages wait
/// in the arrival-ordered `incoming` buffer; each round the counting-sort
/// `fabric` groups them by destination, stable per destination, so every
/// machine reads its inbox as one contiguous slice in arrival order. The
/// buffers are reused arenas: at fixed topology, steady-state rounds
/// allocate nothing for message plumbing.
#[derive(Debug)]
struct EngineState {
    incoming: Vec<Message>,
    fabric: RouteArena,
    /// Per-machine step results: outgoing messages and storage words.
    stepped: Vec<Option<(Vec<Message>, usize)>>,
    /// Component tags travelling to each destination this round.
    incoming_tags: Vec<Vec<ComponentId>>,
    /// What a [`Checkpoint`] captures as one clone.
    transport: Transport,
}

impl EngineState {
    fn new(machines: usize, initial: Vec<Message>, seed: Seed) -> Self {
        EngineState {
            incoming: initial,
            fabric: RouteArena::new(machines),
            stepped: Vec::new(),
            incoming_tags: vec![Vec::new(); machines],
            transport: Transport {
                // Coins come from the plan's seed, so the same plan replays
                // the same per-message faults.
                rng: SplitMix64::new(seed.derive(0xfa17)),
                straggle_until: vec![0; machines],
                pending_retransmit: Vec::new(),
                partition_held: Vec::new(),
            },
        }
    }

    /// `true` while a message is in flight or a machine stalls through
    /// `round_now` (a stalled machine has not yet had its chance to speak).
    fn work_pending(&self, round_now: usize) -> bool {
        let t = &self.transport;
        !t.pending_retransmit.is_empty()
            || !t.partition_held.is_empty()
            || !self.incoming.is_empty()
            || t.straggle_until.iter().any(|&u| u >= round_now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds one program shard per machine.
    fn shards<T>(m: usize, build: impl Fn(usize) -> T) -> Vec<T> {
        (0..m).map(build).collect()
    }

    /// Each leaf machine sends its value toward machine 0 in one hop;
    /// machine 0 accumulates. (Deliberately ignores fan-in trees — small.)
    struct SumToZero {
        value: u64,
        acc: u64,
        sent: bool,
    }

    impl MachineProgram for SumToZero {
        fn round(&mut self, id: usize, inbox: &[Message]) -> Vec<Message> {
            if id == 0 {
                for m in inbox {
                    self.acc += m.words.iter().sum::<u64>();
                }
                Vec::new()
            } else if !self.sent {
                self.sent = true;
                vec![Message {
                    to: 0,
                    words: vec![self.value],
                }]
            } else {
                Vec::new()
            }
        }
        fn storage_words(&self) -> usize {
            2
        }
    }

    fn sum_to_zero(m: usize) -> Vec<SumToZero> {
        shards(m, |id| SumToZero {
            value: id as u64,
            acc: 0,
            sent: false,
        })
    }

    #[test]
    fn exact_engine_moves_words() {
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        let m = cluster.num_machines();
        let mut machines = sum_to_zero(m);
        cluster.run_program(&mut machines, Vec::new(), 10).unwrap();
        assert_eq!(machines[0].acc, (0..m as u64).sum::<u64>());
        assert!(cluster.stats().rounds >= 2);
    }

    /// A program that tries to send more than S words at once.
    struct Flooder {
        limit: usize,
        fired: bool,
    }

    impl MachineProgram for Flooder {
        fn round(&mut self, id: usize, _inbox: &[Message]) -> Vec<Message> {
            if id == 1 && !self.fired {
                self.fired = true;
                vec![Message {
                    to: 0,
                    words: vec![0; self.limit + 1],
                }]
            } else {
                Vec::new()
            }
        }
        fn storage_words(&self) -> usize {
            0
        }
    }

    #[test]
    fn bandwidth_cap_enforced() {
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        let s = cluster.local_space();
        let mut machines = shards(cluster.num_machines(), |_| Flooder {
            limit: s,
            fired: false,
        });
        let err = cluster
            .run_program(&mut machines, Vec::new(), 10)
            .unwrap_err();
        assert!(matches!(err, MpcError::BandwidthExceeded { .. }));
    }

    /// A program whose storage exceeds S on machine 0.
    struct Hoarder {
        words: usize,
    }

    impl MachineProgram for Hoarder {
        fn round(&mut self, _id: usize, _inbox: &[Message]) -> Vec<Message> {
            Vec::new()
        }
        fn storage_words(&self) -> usize {
            self.words
        }
    }

    fn hoarders(m: usize) -> Vec<Hoarder> {
        shards(m, |id| Hoarder {
            words: if id == 0 { 1_000_000 } else { 0 },
        })
    }

    #[test]
    fn storage_cap_enforced() {
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        let mut machines = hoarders(cluster.num_machines());
        let err = cluster
            .run_program(&mut machines, Vec::new(), 10)
            .unwrap_err();
        assert!(matches!(err, MpcError::SpaceExceeded { .. }));
    }

    #[test]
    fn stats_absorb_sums_rounds() {
        let mut a = Stats {
            rounds: 3,
            max_round_words: 10,
            max_storage_words: 20,
            total_words: 100,
            ..Stats::default()
        };
        let b = Stats {
            rounds: 2,
            max_round_words: 50,
            max_storage_words: 5,
            total_words: 7,
            ..Stats::default()
        };
        a.absorb(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.max_round_words, 50);
        assert_eq!(a.max_storage_words, 20);
        assert_eq!(a.total_words, 107);
    }

    #[test]
    fn stats_absorb_default_is_identity() {
        let mut a = Stats {
            rounds: 4,
            max_round_words: 11,
            max_storage_words: 13,
            total_words: 99,
            ..Stats::default()
        };
        let before = a.clone();
        a.absorb(&Stats::default());
        assert_eq!(a, before);
    }

    #[test]
    fn stats_absorb_accumulates_across_sub_computations() {
        // Three absorbed sub-computations: rounds and total_words add up,
        // space figures take the running maximum.
        let mut main = Stats::default();
        let subs = [
            Stats {
                rounds: 2,
                max_round_words: 8,
                max_storage_words: 64,
                total_words: 100,
                ..Stats::default()
            },
            Stats {
                rounds: 0, // a free (local-only) sub-computation
                max_round_words: 0,
                max_storage_words: 0,
                total_words: 0,
                ..Stats::default()
            },
            Stats {
                rounds: 5,
                max_round_words: 32,
                max_storage_words: 16,
                total_words: 250,
                ..Stats::default()
            },
        ];
        for s in &subs {
            main.absorb(s);
        }
        assert_eq!(main.rounds, 7);
        assert_eq!(main.max_round_words, 32);
        assert_eq!(main.max_storage_words, 64);
        assert_eq!(main.total_words, 350);
    }

    #[test]
    fn absorbed_cluster_run_matches_own_ledger() {
        // Running a sub-computation on its own cluster and absorbing its
        // ledger must land the same totals as the sub-cluster reports.
        let cfg = MpcConfig::with_phi(0.5);
        let mut sub = Cluster::new(cfg, 100, 100, Seed(0));
        let m = sub.num_machines();
        let mut machines = sum_to_zero(m);
        sub.run_program(&mut machines, Vec::new(), 10).unwrap();
        let sub_stats = sub.stats().clone();
        assert!(sub_stats.total_words > 0);

        let mut main = Cluster::new(cfg, 100, 100, Seed(1));
        main.charge_rounds(3);
        main.charge_words(1, 5);
        let mut expect = main.stats().clone();
        expect.absorb(&sub_stats);
        let mut merged = main.stats().clone();
        merged.absorb(&sub_stats);
        assert_eq!(merged, expect);
        assert_eq!(merged.rounds, 3 + sub_stats.rounds);
        assert_eq!(merged.total_words, 5 + sub_stats.total_words);
    }

    /// Sends exactly `words` words from machine 1 to machine 0, once.
    struct ExactSender {
        words: usize,
        fired: bool,
    }

    impl MachineProgram for ExactSender {
        fn round(&mut self, id: usize, _inbox: &[Message]) -> Vec<Message> {
            if id == 1 && !self.fired {
                self.fired = true;
                vec![Message {
                    to: 0,
                    words: vec![7; self.words],
                }]
            } else {
                Vec::new()
            }
        }
        fn storage_words(&self) -> usize {
            0
        }
    }

    fn exact_senders(m: usize, words: usize) -> Vec<ExactSender> {
        shards(m, |_| ExactSender {
            words,
            fired: false,
        })
    }

    #[test]
    fn send_exactly_at_cap_is_legal() {
        // The cap is inclusive: moving exactly S words must succeed and be
        // recorded as the round high-water mark.
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        let s = cluster.local_space();
        let mut machines = exact_senders(cluster.num_machines(), s);
        cluster.run_program(&mut machines, Vec::new(), 10).unwrap();
        assert_eq!(cluster.stats().max_round_words, s);
        assert_eq!(cluster.stats().total_words, s as u64);
    }

    #[test]
    fn one_word_over_cap_is_rejected() {
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        let s = cluster.local_space();
        let mut machines = exact_senders(cluster.num_machines(), s + 1);
        let err = cluster
            .run_program(&mut machines, Vec::new(), 10)
            .unwrap_err();
        match err {
            MpcError::BandwidthExceeded {
                machine,
                words,
                limit,
                round,
            } => {
                assert_eq!(machine, 1);
                assert_eq!(words, s + 1);
                assert_eq!(limit, s);
                assert_eq!(round, 1, "violation must name the in-flight round");
            }
            other => panic!("expected BandwidthExceeded, got {other:?}"),
        }
    }

    /// Sends zero-word messages forever (up to the round limit).
    struct ZeroWordChatter {
        rounds_left: usize,
    }

    impl MachineProgram for ZeroWordChatter {
        fn round(&mut self, id: usize, _inbox: &[Message]) -> Vec<Message> {
            if id == 1 && self.rounds_left > 0 {
                self.rounds_left -= 1;
                vec![Message {
                    to: 0,
                    words: Vec::new(),
                }]
            } else {
                Vec::new()
            }
        }
        fn storage_words(&self) -> usize {
            0
        }
    }

    fn chatters(m: usize, rounds_left: usize) -> Vec<ZeroWordChatter> {
        shards(m, |_| ZeroWordChatter { rounds_left })
    }

    #[test]
    fn zero_word_rounds_count_rounds_but_no_words() {
        // Empty messages still cost a synchronous round (the barrier is the
        // resource) but move no words.
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        let mut machines = chatters(cluster.num_machines(), 3);
        cluster.run_program(&mut machines, Vec::new(), 10).unwrap();
        assert!(cluster.stats().rounds >= 3);
        assert_eq!(cluster.stats().max_round_words, 0);
        assert_eq!(cluster.stats().total_words, 0);
    }

    #[test]
    fn space_violation_in_engine_names_round_one() {
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        let mut machines = hoarders(cluster.num_machines());
        let err = cluster
            .run_program(&mut machines, Vec::new(), 10)
            .unwrap_err();
        match err {
            MpcError::SpaceExceeded { machine, round, .. } => {
                assert_eq!(machine, 0);
                assert_eq!(
                    round, 1,
                    "engine space violations stamp the in-flight round"
                );
            }
            other => panic!("expected SpaceExceeded, got {other:?}"),
        }
    }

    #[test]
    fn violation_display_includes_round() {
        let err = MpcError::BandwidthExceeded {
            machine: 2,
            words: 300,
            limit: 256,
            round: 4,
        };
        let s = err.to_string();
        assert!(s.contains("machine 2"), "{s}");
        assert!(s.contains("round 4"), "{s}");
    }

    #[test]
    fn unknown_machine_rejected() {
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        let mut machines = hoarders(cluster.num_machines());
        let err = cluster
            .run_program(
                &mut machines,
                vec![Message {
                    to: 10_000_000,
                    words: vec![],
                }],
                10,
            )
            .unwrap_err();
        assert!(matches!(err, MpcError::UnknownMachine { .. }));
    }

    /// Sends one message to a configurable address in round 1.
    struct AddressedSender {
        to: usize,
        fired: bool,
    }

    impl MachineProgram for AddressedSender {
        fn round(&mut self, id: usize, _inbox: &[Message]) -> Vec<Message> {
            if id == 0 && !self.fired {
                self.fired = true;
                vec![Message {
                    to: self.to,
                    words: vec![1],
                }]
            } else {
                Vec::new()
            }
        }
        fn storage_words(&self) -> usize {
            0
        }
    }

    fn addressed_senders(m: usize, to: usize) -> Vec<AddressedSender> {
        shards(m, |_| AddressedSender { to, fired: false })
    }

    #[test]
    fn unknown_machine_mid_round_rejected() {
        // The initial batch is validated eagerly; a mid-round bad address
        // must be caught by the per-message check inside the round loop.
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        let bad = cluster.num_machines() + 3;
        let mut machines = addressed_senders(cluster.num_machines(), bad);
        let err = cluster
            .run_program(&mut machines, Vec::new(), 10)
            .unwrap_err();
        match err {
            MpcError::UnknownMachine { machine, count } => {
                assert_eq!(machine, bad);
                assert_eq!(count, cluster.num_machines());
            }
            other => panic!("expected UnknownMachine, got {other:?}"),
        }
        // No round completed before the violation.
        assert_eq!(cluster.stats().rounds, 0);
    }

    #[test]
    fn self_addressed_messages_do_not_propagate_tags() {
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        cluster.tag_machine(0, 42);
        // Machine 0 talks only to itself; its tag must stay put and no
        // cross-component flow may be recorded.
        let mut machines = addressed_senders(cluster.num_machines(), 0);
        cluster.run_program(&mut machines, Vec::new(), 10).unwrap();
        assert_eq!(cluster.machine_components(0).len(), 1);
        for m in 1..cluster.num_machines() {
            assert!(
                cluster.machine_components(m).is_empty(),
                "machine {m} acquired a tag from a self-send"
            );
        }
        assert!(!cluster.provenance().has_cross_component_flow());
    }

    #[test]
    fn quiescence_exactly_at_max_rounds_is_ok() {
        // The program sends in rounds 1..=4 and quiesces in round 5; with
        // max_rounds = 5 the quiescing round is the last allowed one and
        // the run must succeed, not report RoundLimitExceeded.
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        let mut machines = chatters(cluster.num_machines(), 4);
        cluster.run_program(&mut machines, Vec::new(), 5).unwrap();
        assert_eq!(cluster.stats().rounds, 5);

        // One more round of chatter and the same cap must overflow.
        let mut cluster2 = Cluster::new(cfg, 100, 100, Seed(0));
        let mut machines2 = chatters(cluster2.num_machines(), 5);
        let err = cluster2
            .run_program(&mut machines2, Vec::new(), 5)
            .unwrap_err();
        assert!(matches!(err, MpcError::RoundLimitExceeded { limit: 5 }));
    }

    #[test]
    fn unattributed_space_violation_displays_cleanly() {
        // `require_fits` uses usize::MAX as a "no specific machine"
        // sentinel; the Display impl must not print that as an index.
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        let err = cluster.require_fits(10_000_000).unwrap_err();
        let s = err.to_string();
        assert!(
            s.contains("unattributed machine"),
            "sentinel must render as 'unattributed machine': {s}"
        );
        assert!(
            !s.contains(&usize::MAX.to_string()),
            "sentinel index must not leak into the message: {s}"
        );
        // Attributed violations keep naming their machine.
        let attributed = MpcError::SpaceExceeded {
            machine: 3,
            words: 10,
            limit: 5,
            round: 2,
        };
        assert!(attributed.to_string().contains("machine 3"));
    }

    #[test]
    fn reset_for_repetition_clears_provenance_and_tags() {
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        cluster.charge_rounds(5);
        cluster.tag_machine(0, 1);
        cluster.tag_machine(1, 2);
        let round = cluster.stats().rounds;
        cluster.provenance_mut().record("test", round, 1, 2);
        assert!(cluster.provenance().has_cross_component_flow());

        // reset_stats alone leaks tags and flows — the documented trap.
        cluster.reset_stats();
        assert!(cluster.provenance().has_cross_component_flow());
        assert!(!cluster.machine_components(0).is_empty());

        cluster.reset_for_repetition();
        assert_eq!(cluster.stats(), &Stats::default());
        assert!(!cluster.provenance().has_cross_component_flow());
        assert!(cluster.machine_components(0).is_empty());
        assert!(cluster.machine_components(1).is_empty());
        assert!(recoveries(&cluster).is_empty());
    }

    #[test]
    fn reset_for_repetition_rearms_fault_plan() {
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        cluster.arm_faults(
            FaultPlan::quiet(Seed(3)).crash(0, 1),
            RecoveryPolicy::restart(2),
        );
        cluster.advance_rounds(2).unwrap();
        assert_eq!(recoveries(&cluster).len(), 1);

        cluster.reset_for_repetition();
        assert!(recoveries(&cluster).is_empty());
        // The plan re-fires on the next repetition, identically.
        cluster.advance_rounds(2).unwrap();
        assert_eq!(recoveries(&cluster).len(), 1);
    }

    #[test]
    fn advance_rounds_without_plan_equals_charge_rounds() {
        let cfg = MpcConfig::with_phi(0.5);
        let mut a = Cluster::new(cfg, 100, 100, Seed(0));
        let mut b = Cluster::new(cfg, 100, 100, Seed(0));
        a.charge_rounds(7);
        b.advance_rounds(7).unwrap();
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn accounted_recovery_is_never_free() {
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        cluster.arm_faults(
            FaultPlan::quiet(Seed(3)).crash(4, 3),
            RecoveryPolicy::restart(2),
        );
        cluster.advance_rounds(5).unwrap();
        let ev = recoveries(&cluster)[0];
        assert_eq!(ev.machine, 4);
        assert!(ev.replayed_rounds >= 1, "at least one replayed round");
        assert!(ev.reshipped_words >= 1, "at least one re-shipped word");
        assert!(
            cluster.stats().rounds > 5,
            "ledger must include the replay: {}",
            cluster.stats().rounds
        );
        assert!(cluster.stats().total_words >= ev.reshipped_words as u64);
    }

    #[test]
    fn accounted_retry_budget_is_enforced() {
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        cluster.arm_faults(
            FaultPlan::quiet(Seed(3))
                .crash(0, 1)
                .crash(1, 2)
                .crash(2, 3),
            RecoveryPolicy::restart(2),
        );
        let err = cluster.advance_rounds(10).unwrap_err();
        assert!(matches!(err, MpcError::MachineFailed { .. }));
        assert_eq!(recoveries(&cluster).len(), 2, "two recoveries, then fail");
    }

    /// SumToZero with real snapshot/restore, for engine recovery tests.
    struct RecoverableSum {
        value: u64,
        acc: u64,
        sent: bool,
    }

    impl MachineProgram for RecoverableSum {
        fn round(&mut self, id: usize, inbox: &[Message]) -> Vec<Message> {
            if id == 0 {
                for m in inbox {
                    self.acc += m.words.iter().sum::<u64>();
                }
                Vec::new()
            } else if !self.sent {
                self.sent = true;
                vec![Message {
                    to: 0,
                    words: vec![self.value],
                }]
            } else {
                Vec::new()
            }
        }
        fn storage_words(&self) -> usize {
            2
        }
        fn snapshot(&self) -> Vec<u64> {
            vec![self.acc, u64::from(self.sent)]
        }
        fn restore(&mut self, snapshot: &[u64]) {
            self.acc = snapshot[0];
            self.sent = snapshot[1] != 0;
        }
    }

    fn recoverable_sum(m: usize) -> Vec<RecoverableSum> {
        shards(m, |id| RecoverableSum {
            value: id as u64,
            acc: 0,
            sent: false,
        })
    }

    fn recoveries(cluster: &Cluster) -> Vec<RecoveryEvent> {
        let events = cluster.events().iter();
        events
            .filter_map(|ev| match ev {
                ClusterEvent::Recovery(r) => Some(*r),
                _ => None,
            })
            .collect()
    }

    fn engine_fault_run(
        plan: &FaultPlan,
        policy: RecoveryPolicy,
    ) -> Result<(u64, Stats, usize), MpcError> {
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        let m = cluster.num_machines();
        let mut machines = recoverable_sum(m);
        cluster.run_program_with_faults(&mut machines, Vec::new(), 100, plan, policy)?;
        Ok((
            machines[0].acc,
            cluster.stats().clone(),
            recoveries(&cluster).len(),
        ))
    }

    #[test]
    fn fault_events_on_unknown_machines_are_rejected() {
        let m = Cluster::new(MpcConfig::with_phi(0.5), 100, 100, Seed(0)).num_machines();
        let unknown = MpcError::UnknownMachine {
            machine: m + 5,
            count: m,
        };
        let plans = [
            FaultPlan::quiet(Seed(4)).crash(m + 5, 1),
            FaultPlan::quiet(Seed(4)).straggle(m + 5, 1, 3),
        ];
        for plan in plans {
            for policy in [RecoveryPolicy::FailFast, RecoveryPolicy::restart(4)] {
                let mut cluster = Cluster::new(MpcConfig::with_phi(0.5), 100, 100, Seed(0));
                cluster.arm_faults(plan.clone(), policy);
                assert_eq!(cluster.advance_rounds(4), Err(unknown.clone()));
                assert_eq!(engine_fault_run(&plan, policy).unwrap_err(), unknown);
            }
        }
    }

    #[test]
    fn engine_crash_recovery_preserves_output_and_charges() {
        let quiet = FaultPlan::quiet(Seed(9));
        let (clean_sum, clean_stats, _) =
            engine_fault_run(&quiet, RecoveryPolicy::FailFast).unwrap();

        let plan = FaultPlan::quiet(Seed(9)).crash(1, 2);
        let (sum, stats, recoveries) = engine_fault_run(&plan, RecoveryPolicy::restart(3)).unwrap();
        assert_eq!(sum, clean_sum, "recovered run computes the same sum");
        assert_eq!(recoveries, 1);
        assert!(stats.rounds > clean_stats.rounds, "replay costs rounds");
        assert!(
            stats.total_words > clean_stats.total_words,
            "restore re-ships words"
        );
    }

    #[test]
    fn engine_crash_fail_fast_errors() {
        let plan = FaultPlan::quiet(Seed(9)).crash(1, 2);
        let err = engine_fault_run(&plan, RecoveryPolicy::FailFast).unwrap_err();
        assert!(matches!(err, MpcError::MachineFailed { machine: 1, .. }));
    }

    #[test]
    fn engine_lost_quorum_is_unrecoverable() {
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        let m = cluster.num_machines();
        let mut plan = FaultPlan::quiet(Seed(9));
        for machine in 0..(m / 2 + 1) {
            plan = plan.crash(machine, 1);
        }
        let mut machines = recoverable_sum(m);
        let err = cluster
            .run_program_with_faults(
                &mut machines,
                Vec::new(),
                100,
                &plan,
                RecoveryPolicy::restart(99),
            )
            .unwrap_err();
        assert!(
            matches!(err, MpcError::MachineFailed { .. }),
            "a majority crash is beyond any retry budget"
        );
    }

    #[test]
    fn engine_replay_is_deterministic() {
        // Same plan, same policy, twice: identical output, ledger, and
        // recovery count — the replicability guarantee.
        let plan = FaultPlan::quiet(Seed(11)).crash(2, 3).straggle(1, 2, 2);
        let a = engine_fault_run(&plan, RecoveryPolicy::restart(3)).unwrap();
        let b = engine_fault_run(&plan, RecoveryPolicy::restart(3)).unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn engine_straggler_delays_but_preserves_output() {
        let quiet = FaultPlan::quiet(Seed(9));
        let (clean_sum, clean_stats, _) =
            engine_fault_run(&quiet, RecoveryPolicy::FailFast).unwrap();

        let plan = FaultPlan::quiet(Seed(9)).straggle(1, 1, 4);
        let (sum, stats, recoveries) = engine_fault_run(&plan, RecoveryPolicy::FailFast).unwrap();
        assert_eq!(sum, clean_sum, "a straggler only delays, never corrupts");
        assert_eq!(recoveries, 0);
        assert!(
            stats.rounds > clean_stats.rounds,
            "the stalled machine's message lands late: {} vs {}",
            stats.rounds,
            clean_stats.rounds
        );
    }

    #[test]
    fn engine_message_drops_charge_retransmissions() {
        let quiet = FaultPlan::quiet(Seed(13));
        let (clean_sum, clean_stats, _) =
            engine_fault_run(&quiet, RecoveryPolicy::FailFast).unwrap();

        // Heavy drop rate: every dropped message is retransmitted a round
        // later, so the sum is intact but words are charged twice.
        let plan = FaultPlan::quiet(Seed(13)).with_message_faults(400, 0);
        let (sum, stats, _) = engine_fault_run(&plan, RecoveryPolicy::FailFast).unwrap();
        assert_eq!(sum, clean_sum, "drops delay delivery, never lose it");
        assert!(
            stats.total_words > clean_stats.total_words,
            "retransmissions must be charged: {} vs {}",
            stats.total_words,
            clean_stats.total_words
        );
    }

    #[test]
    fn engine_message_duplicates_charge_but_do_not_corrupt() {
        let quiet = FaultPlan::quiet(Seed(13));
        let (clean_sum, clean_stats, _) =
            engine_fault_run(&quiet, RecoveryPolicy::FailFast).unwrap();

        let plan = FaultPlan::quiet(Seed(13)).with_message_faults(0, 500);
        let (sum, stats, _) = engine_fault_run(&plan, RecoveryPolicy::FailFast).unwrap();
        assert_eq!(sum, clean_sum, "receivers deduplicate");
        assert!(
            stats.total_words > clean_stats.total_words,
            "duplicate transmissions must be charged"
        );
    }

    #[test]
    fn machine_failed_display_names_machine_and_round() {
        let err = MpcError::MachineFailed {
            machine: 6,
            round: 11,
        };
        let s = err.to_string();
        assert!(s.contains("machine 6"), "{s}");
        assert!(s.contains("round 11"), "{s}");
    }

    #[test]
    fn charge_words_saturates_instead_of_wrapping() {
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        cluster.charge_words(1, u64::MAX - 10);
        cluster.charge_words(1, 100);
        assert_eq!(cluster.stats().total_words, u64::MAX);
        // Further charges stay pinned at the ceiling.
        cluster.charge_words(1, 1);
        assert_eq!(cluster.stats().total_words, u64::MAX);
    }

    #[test]
    fn charge_rounds_saturates_instead_of_wrapping() {
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        cluster.charge_rounds(usize::MAX - 3);
        cluster.charge_rounds(10);
        assert_eq!(cluster.stats().rounds, usize::MAX);
        // advance_rounds without a plan goes through the same ledger.
        cluster.advance_rounds(5).unwrap();
        assert_eq!(cluster.stats().rounds, usize::MAX);
    }

    #[test]
    fn charge_replay_mirrors_charge_recovery_on_a_bare_ledger() {
        let mut s = Stats::default();
        s.charge_replay(1, 40);
        s.charge_replay(2, 8);
        assert_eq!(s.rounds, 3);
        assert_eq!(s.total_words, 48);
        assert_eq!(s.max_round_words, 40);
        assert_eq!(s.recovery_rounds, 3);
        assert_eq!(s.recovery_words, 48);
        // Saturates like every other charge path.
        s.charge_replay(usize::MAX, u64::MAX);
        assert_eq!(s.rounds, usize::MAX);
        assert_eq!(s.recovery_words, u64::MAX);
    }

    #[test]
    fn charge_storage_at_usize_max_reports_not_panics() {
        let cfg = MpcConfig::with_phi(0.5);
        let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
        let err = cluster.charge_storage(0, usize::MAX).unwrap_err();
        match err {
            MpcError::SpaceExceeded { words, .. } => assert_eq!(words, usize::MAX),
            other => panic!("expected SpaceExceeded, got {other:?}"),
        }
        assert_eq!(cluster.stats().max_storage_words, usize::MAX);
    }

    #[test]
    fn absorb_saturates_rounds_and_totals() {
        let mut a = Stats {
            rounds: usize::MAX - 1,
            max_round_words: 4,
            max_storage_words: 4,
            total_words: u64::MAX - 1,
            ..Stats::default()
        };
        let b = Stats {
            rounds: 7,
            max_round_words: 9,
            max_storage_words: 2,
            total_words: 7,
            ..Stats::default()
        };
        a.absorb(&b);
        assert_eq!(a.rounds, usize::MAX);
        assert_eq!(a.total_words, u64::MAX);
        assert_eq!(a.max_round_words, 9);
        assert_eq!(a.max_storage_words, 4);
    }

    #[test]
    fn engine_modes_agree_on_a_fault_free_run() {
        // Direct unit-level check; the cross-layer equivalence suite lives
        // in tests/parallel_equivalence.rs at the workspace root.
        let run = |mode: csmpc_parallel::ParallelismMode| {
            let cfg = MpcConfig {
                parallelism: mode,
                ..MpcConfig::with_phi(0.5)
            };
            let mut cluster = Cluster::new(cfg, 100, 100, Seed(0));
            let m = cluster.num_machines();
            let mut machines = sum_to_zero(m);
            cluster.run_program(&mut machines, Vec::new(), 10).unwrap();
            (machines[0].acc, cluster.stats().clone())
        };
        let seq = run(csmpc_parallel::ParallelismMode::Sequential);
        let par = run(csmpc_parallel::ParallelismMode::Parallel);
        assert_eq!(seq, par);
    }
}
