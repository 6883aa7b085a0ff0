//! The job scheduler: a worker pool multiplexing seeded MPC runs, with
//! retry, quarantine, fairness, and shedding at the queue boundary.
//!
//! ## Determinism under concurrency
//!
//! The scheduler promises *bit-identical per-job results* for the same
//! submission sequence, no matter how many workers run or how they
//! interleave. The design makes that structural rather than lucky:
//!
//! * An attempt's result is a **pure function** of
//!   `(spec, attempt, shed)` — `execute_attempt` touches no mutable
//!   shared state (the graph store and the ball cache hand out immutable
//!   `Arc`s whose contents are content-keyed).
//! * Admission and shedding are decided **at submission time, in
//!   submission order**, from booked reservations only.
//! * Retry pacing runs on **virtual ticks**, not wall clock: the clock
//!   advances once per completed attempt and fast-forwards when every
//!   queued job is backing off, so backoff shapes *ordering* but never
//!   results, and an idle queue can never wedge.
//! * Wall-clock time is recorded per job for observability
//!   ([`JobOutcome::wall_ms`]) but — like [`csmpc_mpc::Stats`] phase
//!   timings — is excluded from [`ServiceReport::fingerprint`].

use crate::admission::{AdmissionController, AdmissionDecision};
use crate::graph_store::{self, GraphStore, SharedGraph};
use crate::job::{labels_digest, run_job, JobId, JobSpec, Priority};
use crate::journal::{CrashPlan, Journal, JournalRecord};
use csmpc_graph::fnv::Fnv1a;
use csmpc_mpc::{
    run_supervised, Cluster, FaultPlan, MpcConfig, MpcError, ParallelismMode, RecoveryPolicy,
    Stats, SupervisedOutcome, SupervisorConfig,
};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Aggregate admission capacity in words (sum of per-job `M × S`).
    pub capacity_words: usize,
    /// Fraction of capacity past which low-priority jobs are shed to
    /// supervised partial-output mode.
    pub shed_fraction: f64,
    /// Engine parallelism inside each job's cluster. Either mode is
    /// bit-identical per seed; this knob only trades wall-clock.
    pub mode: ParallelismMode,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            capacity_words: 1 << 22,
            shed_fraction: 0.75,
            mode: ParallelismMode::default(),
        }
    }
}

/// Terminal state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Full output produced.
    Completed,
    /// Supervised partial output: healthy components labeled, tainted
    /// ones `None` (shed jobs, or salvaged runs).
    Degraded,
    /// Refused at admission; never ran.
    Rejected,
    /// Exhausted its attempt budget; parked with its error history.
    Quarantined,
}

impl JobState {
    fn discriminant(self) -> u64 {
        match self {
            JobState::Completed => 0,
            JobState::Degraded => 1,
            JobState::Rejected => 2,
            JobState::Quarantined => 3,
        }
    }
}

/// The terminal record of one submitted job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Submission index.
    pub id: JobId,
    /// Owning tenant.
    pub tenant: String,
    /// Priority it was scheduled at.
    pub priority: Priority,
    /// Terminal state.
    pub state: JobState,
    /// `true` when the job ran on the shedding rung (supervised mode).
    pub shed: bool,
    /// Attempts actually executed (0 for rejected jobs).
    pub attempts: u32,
    /// Output digest ([`labels_digest`]); 0 when the job never produced
    /// output (rejected/quarantined).
    pub digest: u64,
    /// The final attempt's ledger, when one ran.
    pub stats: Option<Stats>,
    /// Why admission refused (rejected jobs only).
    pub reject_reason: Option<String>,
    /// Error history across failed attempts (quarantined jobs carry the
    /// full trail; completed-after-retry jobs the earlier failures).
    pub errors: Vec<String>,
    /// Wall-clock milliseconds from first dispatch to terminal state.
    /// **Observability only** — excluded from the determinism
    /// fingerprint, like [`Stats`] phase timings.
    pub wall_ms: f64,
}

/// Aggregate service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs admitted (including shed admissions).
    pub admitted: u64,
    /// Jobs refused at admission.
    pub rejected: u64,
    /// Jobs admitted on the shedding rung.
    pub shed: u64,
    /// Jobs finishing [`JobState::Completed`].
    pub completed: u64,
    /// Jobs finishing [`JobState::Degraded`].
    pub degraded: u64,
    /// Jobs finishing [`JobState::Quarantined`].
    pub quarantined: u64,
    /// Job-level retries executed.
    pub retries: u64,
    /// Virtual backoff ticks charged by those retries.
    pub backoff_ticks: u64,
    /// Failed attempts whose error was a tripped job deadline.
    pub deadline_failures: u64,
}

/// Everything `run` hands back: per-job outcomes in submission order
/// plus the aggregate counters.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// One outcome per submitted job, indexed by [`JobId`].
    pub outcomes: Vec<JobOutcome>,
    /// Aggregate counters.
    pub counters: Counters,
}

impl ServiceReport {
    /// FNV-1a over every *deterministic* per-job field — id, state,
    /// shed flag, attempt count, output digest, and every model
    /// observable of the final ledger ([`Stats::MODEL_FIELDS`]). Two runs
    /// of the same batch must produce equal fingerprints regardless of
    /// worker interleaving; `wall_ms` is deliberately excluded.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for o in &self.outcomes {
            h.word(o.id.0)
                .word(o.state.discriminant())
                .word(u64::from(o.shed))
                .word(u64::from(o.attempts))
                .word(o.digest);
            if let Some(s) = &o.stats {
                for w in s.model_words() {
                    h.word(w);
                }
            } else {
                h.word(u64::MAX);
            }
        }
        h.finish()
    }
}

/// One queued (admitted, not yet terminal) job.
pub(crate) struct QueuedJob {
    pub(crate) id: JobId,
    pub(crate) spec: JobSpec,
    pub(crate) shed: bool,
    pub(crate) footprint: usize,
    /// Attempt about to run, 1-based.
    pub(crate) attempt: u32,
    /// Virtual tick before which this job may not dispatch (backoff).
    pub(crate) not_before: u64,
    /// Submission sequence — the FIFO tiebreak.
    pub(crate) seq: u64,
    pub(crate) errors: Vec<String>,
    pub(crate) started: Option<Instant>,
}

pub(crate) struct SchedState {
    pub(crate) queue: Vec<QueuedJob>,
    pub(crate) running: usize,
    /// Virtual time: one tick per completed attempt, fast-forwarded
    /// when everything queued is backing off.
    pub(crate) clock: u64,
    /// Dispatch counter feeding tenant fairness.
    pub(crate) dispatches: u64,
    /// Last dispatch sequence per tenant — the round-robin key.
    pub(crate) last_served: BTreeMap<String, u64>,
    pub(crate) outcomes: Vec<Option<JobOutcome>>,
    pub(crate) counters: Counters,
    pub(crate) admission: AdmissionController,
    /// Write-ahead journal, when durability is armed: every lifecycle
    /// transition is appended *before* it is applied in memory.
    pub(crate) journal: Option<Journal>,
    /// `true` once an armed [`CrashPlan`] has fired: the simulated
    /// process is dead, workers drain out, and only
    /// [`JobService::recover`](crate::recovery) can continue the batch.
    pub(crate) crashed: bool,
}

/// The job service: submit a batch, then [`run`](JobService::run) it.
pub struct JobService {
    cfg: ServiceConfig,
    store: &'static GraphStore,
    state: Mutex<SchedState>,
    cvar: Condvar,
}

/// The per-job cluster configuration derived from its spec.
pub(crate) fn job_mpc_config(spec: &JobSpec, mode: ParallelismMode) -> MpcConfig {
    MpcConfig {
        min_space: spec.min_space,
        parallelism: mode,
        ..MpcConfig::with_phi(spec.phi)
    }
}

/// The words a job would book, or why it is refused before admission:
/// the spec is validated before its graph is built, so a malformed spec
/// never reaches a generator. [`JobService::submit`] and recovery's
/// re-derived decisions both go through here, so replay reaches the same
/// verdict.
pub(crate) fn job_footprint(
    spec: &JobSpec,
    store: &GraphStore,
    mode: ParallelismMode,
) -> Result<usize, String> {
    spec.validate()?;
    let shared = store.get(&spec.graph);
    let mcfg = job_mpc_config(spec, mode);
    let n = shared.graph.n();
    Ok(mcfg.machines_for(n, shared.words) * mcfg.local_space(n))
}

/// The admission verdict on a [`job_footprint`] result, with the footprint
/// it books (0 for a refused spec, which books nothing).
pub(crate) fn admission_decision(
    admission: &mut AdmissionController,
    footprint: Result<usize, String>,
    priority: Priority,
) -> (AdmissionDecision, usize) {
    match footprint {
        Ok(words) => (admission.decide(words, priority), words),
        Err(reason) => (AdmissionDecision::Reject { reason }, 0),
    }
}

struct AttemptSuccess {
    labels: Vec<Option<u64>>,
    stats: Stats,
    degraded: bool,
}

/// Runs one attempt of one job — a pure function of
/// `(spec, shared, attempt, shed, mode)`. All communication below is
/// charged through the accounted primitives reached by [`run_job`].
///
/// Full-service jobs run directly (faults armed when the spec carries a
/// plan) and surface errors to the retry ladder. Shed jobs run under
/// [`run_supervised`]: injected failures degrade to per-component
/// partial output instead of failing the attempt.
fn execute_attempt(
    spec: &JobSpec,
    shared: &SharedGraph,
    attempt: u32,
    shed: bool,
    mode: ParallelismMode,
) -> Result<AttemptSuccess, MpcError> {
    let g = &shared.graph;
    let mut template = Cluster::new(job_mpc_config(spec, mode), g.n(), shared.words, spec.seed);
    // The in-run recovery budget escalates by one per job-level retry:
    // the fault plan replays identically, so a widened budget is the
    // deterministic path from "attempt 1 exhausted retries" to
    // "attempt 2 completes".
    let in_run_retries = spec.recovery_retries + (attempt as usize).saturating_sub(1);
    let policy = RecoveryPolicy::restart_with_backoff(in_run_retries, 1);
    if let Some(d) = spec.deadline_rounds {
        template.arm_job_deadline(d);
    }
    if shed {
        let plan = match &spec.faults {
            Some(f) => f.plan_for(template.num_machines()),
            None => FaultPlan::quiet(spec.seed),
        };
        let run = run_supervised(
            g,
            &template,
            &plan,
            policy,
            SupervisorConfig::default(),
            |g, cl| run_job(&spec.workload, g, cl),
        )?;
        let stats = run.stats.clone();
        match run.outcome {
            SupervisedOutcome::Complete(labels) => Ok(AttemptSuccess {
                labels: labels.into_iter().map(Some).collect(),
                stats,
                degraded: false,
            }),
            SupervisedOutcome::Degraded(partial) => Ok(AttemptSuccess {
                labels: partial.labels,
                stats,
                degraded: true,
            }),
        }
    } else {
        let mut cluster = template;
        if let Some(f) = &spec.faults {
            cluster.arm_faults(f.plan_for(cluster.num_machines()), policy);
            cluster.supervise(SupervisorConfig::default());
        }
        let labels = run_job(&spec.workload, g, &mut cluster)?;
        Ok(AttemptSuccess {
            labels: labels.into_iter().map(Some).collect(),
            stats: cluster.stats().clone(),
            degraded: false,
        })
    }
}

impl JobService {
    /// A service over the process-wide graph store.
    #[must_use]
    pub fn new(cfg: ServiceConfig) -> Self {
        Self::with_optional_journal(cfg, None)
    }

    /// A service whose every lifecycle transition is journaled to
    /// `journal` before it is applied — the crash-consistent mode.
    /// Recover a crashed batch with [`JobService::recover`].
    ///
    /// [`JobService::recover`]: crate::recovery
    #[must_use]
    pub fn with_journal(cfg: ServiceConfig, journal: Journal) -> Self {
        Self::with_optional_journal(cfg, Some(journal))
    }

    fn with_optional_journal(cfg: ServiceConfig, journal: Option<Journal>) -> Self {
        let admission = AdmissionController::new(cfg.capacity_words, cfg.shed_fraction);
        JobService {
            cfg,
            store: graph_store::global(),
            state: Mutex::new(SchedState {
                queue: Vec::new(),
                running: 0,
                clock: 0,
                dispatches: 0,
                last_served: BTreeMap::new(),
                outcomes: Vec::new(),
                counters: Counters::default(),
                admission,
                journal,
                crashed: false,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Rebuilds a service around a state replayed from a journal
    /// (the [`crate::recovery`] constructor).
    pub(crate) fn from_replayed(cfg: ServiceConfig, state: SchedState) -> Self {
        JobService {
            cfg,
            store: graph_store::global(),
            state: Mutex::new(state),
            cvar: Condvar::new(),
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Arms a crash plan on the journal (no-op without one). Counting
    /// starts immediately; when the plan fires, the service behaves like
    /// a killed process: workers drain, nothing further persists, and
    /// [`run_recoverable`](JobService::run_recoverable) returns `None`.
    pub fn arm_crash(&self, plan: CrashPlan) {
        let mut state = self.state.lock().expect("service state poisoned");
        if let Some(j) = state.journal.as_mut() {
            j.arm_crash(plan);
        }
    }

    /// `true` once an armed crash plan has fired.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.state.lock().expect("service state poisoned").crashed
    }

    /// Submissions recorded so far (the dense [`JobId`] space). After a
    /// crash + [`recover`](crate::recovery), this tells a client how far
    /// the original batch persisted — everything from this index on was
    /// lost in flight and needs resubmitting.
    #[must_use]
    pub fn submitted_jobs(&self) -> usize {
        self.state
            .lock()
            .expect("service state poisoned")
            .outcomes
            .len()
    }

    /// Appends `rec`, returning `false` (and marking the service
    /// crashed) when the journal's armed crash plan fires. Real I/O
    /// errors also read as a crash: the record did not persist, so
    /// continuing would desynchronize the log from memory.
    fn journal_append(state: &mut SchedState, rec: &JournalRecord) -> bool {
        match state.journal.as_mut() {
            None => true,
            Some(j) => match j.append(rec) {
                Ok(()) => true,
                Err(_) => {
                    state.crashed = true;
                    false
                }
            },
        }
    }

    /// Submits one job, deciding admission immediately (in submission
    /// order): rejected jobs — invalid specs ([`JobSpec::validate`]) and
    /// jobs over the space budget — get a terminal outcome with the
    /// reason; admitted jobs are queued — possibly on the shedding rung.
    pub fn submit(&self, spec: JobSpec) -> JobId {
        let footprint = job_footprint(&spec, self.store, self.cfg.mode);
        let mut state = self.state.lock().expect("service state poisoned");
        let id = JobId(state.outcomes.len() as u64);
        let seq = id.0;
        // Write-ahead: the submission persists before any in-memory
        // effect. After a crash nothing mutates — the id is still handed
        // back so callers index consistently, but the dead process
        // records nothing, exactly like a kill between syscalls.
        if state.crashed {
            return id;
        }
        if !Self::journal_append(
            &mut state,
            &JournalRecord::Submitted {
                id,
                spec: spec.clone(),
            },
        ) {
            return id;
        }
        state.counters.submitted += 1;
        let (decision, footprint) =
            admission_decision(&mut state.admission, footprint, spec.priority);
        let decision_rec = match &decision {
            AdmissionDecision::Reject { reason } => JournalRecord::Rejected {
                id,
                reason: reason.clone(),
            },
            AdmissionDecision::AdmitShed => JournalRecord::Shed {
                id,
                footprint: footprint as u64,
            },
            AdmissionDecision::Admit => JournalRecord::Admitted {
                id,
                footprint: footprint as u64,
            },
        };
        if !Self::journal_append(&mut state, &decision_rec) {
            // The submission persisted but its decision did not: the
            // booking must not survive in memory either (replay will
            // re-derive the decision from the log).
            if !matches!(decision, AdmissionDecision::Reject { .. }) {
                state.admission.release(footprint);
            }
            return id;
        }
        match decision {
            AdmissionDecision::Reject { reason } => {
                state.counters.rejected += 1;
                state.outcomes.push(Some(JobOutcome {
                    id,
                    tenant: spec.tenant.clone(),
                    priority: spec.priority,
                    state: JobState::Rejected,
                    shed: false,
                    attempts: 0,
                    digest: 0,
                    stats: None,
                    reject_reason: Some(reason),
                    errors: Vec::new(),
                    wall_ms: 0.0,
                }));
            }
            decision => {
                let shed = matches!(decision, AdmissionDecision::AdmitShed);
                state.counters.admitted += 1;
                if shed {
                    state.counters.shed += 1;
                }
                state.outcomes.push(None);
                state.queue.push(QueuedJob {
                    id,
                    spec,
                    shed,
                    footprint,
                    attempt: 1,
                    not_before: 0,
                    seq,
                    errors: Vec::new(),
                    started: None,
                });
            }
        }
        id
    }

    /// Drains the queue with the configured worker pool and returns the
    /// batch report. Every submitted job reaches a terminal state —
    /// retries re-queue, quarantine parks, and the virtual clock
    /// fast-forwards through backoff gaps, so the queue cannot wedge.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked (poisoning the state), if a
    /// job failed to reach a terminal state — both are service bugs, not
    /// load conditions — or if an armed [`CrashPlan`] fired (use
    /// [`run_recoverable`](JobService::run_recoverable) when crashes are
    /// expected).
    #[must_use]
    pub fn run(&self) -> ServiceReport {
        self.run_recoverable()
            .expect("service crashed mid-run: recover the batch with JobService::recover")
    }

    /// Like [`run`](JobService::run), but `None` when an armed
    /// [`CrashPlan`] fired mid-run: the simulated process died, the
    /// journal holds everything that persisted, and
    /// [`JobService::recover`](crate::recovery) continues the batch.
    #[must_use]
    pub fn run_recoverable(&self) -> Option<ServiceReport> {
        let workers = self.cfg.workers.max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| self.worker_loop());
            }
        });
        let mut state = self.state.lock().expect("service state poisoned");
        if state.crashed {
            return None;
        }
        let outcomes: Vec<JobOutcome> = state
            .outcomes
            .drain(..)
            .enumerate()
            .map(|(i, o)| o.unwrap_or_else(|| panic!("job {i} wedged without a terminal state")))
            .collect();
        let counters = state.counters;
        state.counters = Counters::default();
        Some(ServiceReport { outcomes, counters })
    }

    /// Convenience: submit a whole batch, then run it.
    #[must_use]
    pub fn run_batch(&self, specs: Vec<JobSpec>) -> ServiceReport {
        for spec in specs {
            let _ = self.submit(spec);
        }
        self.run()
    }

    /// Picks the next dispatchable queue index: eligible (`not_before`
    /// reached), highest priority first, then least-recently-served
    /// tenant, then FIFO.
    fn pick(state: &SchedState) -> Option<usize> {
        state
            .queue
            .iter()
            .enumerate()
            .filter(|(_, q)| q.not_before <= state.clock)
            .min_by_key(|(_, q)| {
                let served = state.last_served.get(&q.spec.tenant).copied().unwrap_or(0);
                (Reverse(q.spec.priority), served, q.seq)
            })
            .map(|(i, _)| i)
    }

    fn worker_loop(&self) {
        loop {
            let mut state = self.state.lock().expect("service state poisoned");
            let job = loop {
                if state.crashed {
                    break None;
                }
                if let Some(idx) = Self::pick(&state) {
                    // Write-ahead: the dispatch persists before any of
                    // its in-memory effects (fairness stamp, dequeue).
                    let (id, attempt) = (state.queue[idx].id, state.queue[idx].attempt);
                    if !Self::journal_append(
                        &mut state,
                        &JournalRecord::AttemptStarted { id, attempt },
                    ) {
                        break None;
                    }
                    let mut job = state.queue.remove(idx);
                    state.running += 1;
                    state.dispatches += 1;
                    let stamp = state.dispatches;
                    state.last_served.insert(job.spec.tenant.clone(), stamp);
                    if job.started.is_none() {
                        job.started = Some(Instant::now());
                    }
                    break Some(job);
                }
                if state.queue.is_empty() && state.running == 0 {
                    break None;
                }
                if state.running == 0 {
                    // Everything queued is backing off and nothing is
                    // running to advance time: fast-forward the virtual
                    // clock to the earliest eligibility. This is the
                    // no-wedge guarantee.
                    let next = state
                        .queue
                        .iter()
                        .map(|q| q.not_before)
                        .min()
                        .expect("non-empty queue");
                    state.clock = state.clock.max(next);
                    continue;
                }
                state = self.cvar.wait(state).expect("service state poisoned");
            };
            let Some(mut job) = job else {
                // Drained: wake any peers still parked on the condvar so
                // they observe the terminal state and exit too.
                self.cvar.notify_all();
                return;
            };
            drop(state);

            let shared = self.store.get(&job.spec.graph);
            let result = execute_attempt(&job.spec, &shared, job.attempt, job.shed, self.cfg.mode);

            let mut state = self.state.lock().expect("service state poisoned");
            state.running -= 1;
            if state.crashed {
                // The process died while this attempt was in flight: its
                // result evaporates. Replay will re-run the attempt —
                // bit-identically, because execution is pure in
                // (spec, attempt, shed, mode).
                self.cvar.notify_all();
                continue;
            }
            match result {
                Ok(success) => {
                    // Write-ahead: Completed *is* the finish record for a
                    // successful attempt, so a success can never be
                    // half-persisted.
                    let digest = labels_digest(&success.labels);
                    if !Self::journal_append(
                        &mut state,
                        &JournalRecord::Completed {
                            id: job.id,
                            attempts: job.attempt,
                            shed: job.shed,
                            degraded: success.degraded,
                            digest,
                            stats: success.stats.clone(),
                        },
                    ) {
                        self.cvar.notify_all();
                        continue;
                    }
                    state.clock += 1;
                    let terminal = if success.degraded {
                        state.counters.degraded += 1;
                        JobState::Degraded
                    } else {
                        state.counters.completed += 1;
                        JobState::Completed
                    };
                    state.admission.release(job.footprint);
                    let wall_ms = job
                        .started
                        .map(|t| t.elapsed().as_secs_f64() * 1e3)
                        .unwrap_or(0.0);
                    state.outcomes[job.id.0 as usize] = Some(JobOutcome {
                        id: job.id,
                        tenant: job.spec.tenant.clone(),
                        priority: job.spec.priority,
                        state: terminal,
                        shed: job.shed,
                        attempts: job.attempt,
                        digest,
                        stats: Some(success.stats),
                        reject_reason: None,
                        errors: job.errors,
                        wall_ms,
                    });
                }
                Err(e) => {
                    let deadline = matches!(e, MpcError::RoundLimitExceeded { .. });
                    let error = format!("attempt {}: {e}", job.attempt);
                    if !Self::journal_append(
                        &mut state,
                        &JournalRecord::AttemptFinished {
                            id: job.id,
                            attempt: job.attempt,
                            deadline,
                            error: error.clone(),
                        },
                    ) {
                        self.cvar.notify_all();
                        continue;
                    }
                    state.clock += 1;
                    if deadline {
                        state.counters.deadline_failures += 1;
                    }
                    job.errors.push(error);
                    if job.attempt >= job.spec.max_attempts {
                        // Poison job: park it with its history; the
                        // queue keeps draining. The Quarantined record is
                        // redundant with the final AttemptFinished (replay
                        // derives the same terminal from either), so a
                        // crash between the two appends loses nothing.
                        if !Self::journal_append(
                            &mut state,
                            &JournalRecord::Quarantined {
                                id: job.id,
                                attempts: job.attempt,
                                shed: job.shed,
                            },
                        ) {
                            self.cvar.notify_all();
                            continue;
                        }
                        state.counters.quarantined += 1;
                        state.admission.release(job.footprint);
                        let wall_ms = job
                            .started
                            .map(|t| t.elapsed().as_secs_f64() * 1e3)
                            .unwrap_or(0.0);
                        state.outcomes[job.id.0 as usize] = Some(JobOutcome {
                            id: job.id,
                            tenant: job.spec.tenant.clone(),
                            priority: job.spec.priority,
                            state: JobState::Quarantined,
                            shed: job.shed,
                            attempts: job.attempt,
                            digest: 0,
                            stats: None,
                            reject_reason: None,
                            errors: job.errors,
                            wall_ms,
                        });
                    } else {
                        // Bounded retry with saturating seeded backoff,
                        // paced in virtual ticks.
                        let retry = job.attempt;
                        let delay = job.spec.backoff.delay(job.spec.seed, retry);
                        state.counters.retries += 1;
                        state.counters.backoff_ticks += delay;
                        job.attempt += 1;
                        job.not_before = state.clock + delay;
                        state.queue.push(job);
                    }
                }
            }
            self.cvar.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{GraphSpec, Workload};
    use csmpc_graph::rng::Seed;

    fn basic(tenant: &str, seed: u64) -> JobSpec {
        JobSpec::basic(
            tenant,
            Workload::CcLabels,
            GraphSpec::TwoCycles { n: 8 },
            Seed(seed),
        )
    }

    #[test]
    fn batch_completes_and_counts() {
        let svc = JobService::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let report = svc.run_batch((0..6).map(|i| basic("t", i)).collect());
        assert_eq!(report.outcomes.len(), 6);
        assert!(report
            .outcomes
            .iter()
            .all(|o| o.state == JobState::Completed));
        assert_eq!(report.counters.submitted, 6);
        assert_eq!(report.counters.completed, 6);
        assert_eq!(report.counters.rejected, 0);
    }

    #[test]
    fn over_capacity_jobs_reject_with_reason_and_queue_drains() {
        // Size capacity to exactly two job footprints plus slack, so
        // the third identical submission must be refused.
        let spec = basic("t", 0);
        let shared = crate::graph_store::global().get(&spec.graph);
        let mcfg = job_mpc_config(&spec, ParallelismMode::default());
        let n = shared.graph.n();
        let footprint = mcfg.machines_for(n, shared.words) * mcfg.local_space(n);
        let capacity = 2 * footprint + footprint / 2;
        let svc = JobService::new(ServiceConfig {
            workers: 2,
            capacity_words: capacity,
            shed_fraction: 1.0,
            ..ServiceConfig::default()
        });
        let report = svc.run_batch((0..3).map(|i| basic("t", i)).collect());
        let rejected: Vec<_> = report
            .outcomes
            .iter()
            .filter(|o| o.state == JobState::Rejected)
            .collect();
        assert_eq!(rejected.len(), 1, "{:?}", report.counters);
        assert_eq!(rejected[0].id, JobId(2));
        assert!(rejected[0]
            .reject_reason
            .as_deref()
            .unwrap()
            .contains(&format!("capacity {capacity}")));
        // Admitted jobs still completed — a reject never wedges peers.
        assert_eq!(
            report.counters.completed + report.counters.rejected,
            report.counters.submitted
        );
    }

    #[test]
    fn poison_job_quarantines_with_error_history_without_wedging_peers() {
        let svc = JobService::new(ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        });
        let mut poison = basic("t", 1);
        poison.deadline_rounds = Some(1); // trips on every attempt
        poison.max_attempts = 3;
        let report = svc.run_batch(vec![basic("t", 0), poison, basic("t", 2)]);
        let q = &report.outcomes[1];
        assert_eq!(q.state, JobState::Quarantined);
        assert_eq!(q.attempts, 3);
        assert_eq!(q.errors.len(), 3);
        assert!(q.errors[0].contains("round limit 1 exceeded"), "{q:?}");
        assert_eq!(report.counters.retries, 2);
        assert_eq!(report.counters.deadline_failures, 3);
        assert!(report.counters.backoff_ticks > 0);
        assert_eq!(report.outcomes[0].state, JobState::Completed);
        assert_eq!(report.outcomes[2].state, JobState::Completed);
    }

    #[test]
    fn shed_low_priority_jobs_degrade_instead_of_failing() {
        // Capacity admits everything; watermark 0 sheds every low-
        // priority submission.
        let svc = JobService::new(ServiceConfig {
            workers: 2,
            shed_fraction: 0.0,
            ..ServiceConfig::default()
        });
        let mut low = basic("t", 5);
        low.priority = Priority::Low;
        let report = svc.run_batch(vec![low, basic("t", 6)]);
        assert!(report.outcomes[0].shed);
        assert!(!report.outcomes[1].shed);
        // A shed fault-free job still completes fully.
        assert_eq!(report.outcomes[0].state, JobState::Completed);
        assert_eq!(report.counters.shed, 1);
    }

    #[test]
    fn fingerprint_ignores_wall_clock() {
        let svc = JobService::new(ServiceConfig::default());
        let mut report = svc.run_batch(vec![basic("t", 9)]);
        let fp = report.fingerprint();
        report.outcomes[0].wall_ms += 1234.5;
        assert_eq!(report.fingerprint(), fp);
    }

    #[test]
    fn fingerprint_sees_every_model_field() {
        let svc = JobService::new(ServiceConfig::default());
        let mut report = svc.run_batch(vec![basic("t", 9)]);
        let base = report.fingerprint();
        let words = report.outcomes[0].stats.as_ref().unwrap().model_words();
        for (i, name) in Stats::MODEL_FIELDS.iter().enumerate() {
            let mut perturbed = words;
            perturbed[i] += 1;
            report.outcomes[0].stats = Some(Stats::from_model_words(perturbed));
            assert_ne!(report.fingerprint(), base, "fingerprint blind to {name}");
        }
    }
}
