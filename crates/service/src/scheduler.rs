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
//!   ([`JobOutcome::wall_ms`]) but — like a cluster's phase timings,
//!   which sit outside [`csmpc_mpc::Stats`] — is excluded from
//!   [`ServiceReport::fingerprint`].
//!
//! ## One state machine
//!
//! Every lifecycle transition is a [`JournalRecord`], and
//! `SchedState::apply` is the only code that applies one. The live
//! path builds a record, appends it to the journal when durability is
//! armed (write-ahead), then applies it; [`crate::recovery`] applies the
//! recovered records through the same function, so there is one copy
//! of the lifecycle for a fix to land in.

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
    /// fingerprint, like a cluster's phase timings.
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

/// Where one job is in its lifecycle.
pub(crate) enum Phase {
    /// Submitted; its admission decision is not yet recorded.
    Undecided,
    /// Admitted and waiting in the queue for attempt [`Job::attempt`].
    Queued,
    /// Attempt [`Job::attempt`] is dispatched.
    Running,
    /// Terminal, with its outcome.
    Done(Box<JobOutcome>),
}

/// One submitted job: its spec, its phase, and what its transitions so
/// far have accumulated. Indexed by [`JobId`] in [`SchedState::jobs`].
pub(crate) struct Job {
    pub(crate) spec: JobSpec,
    pub(crate) phase: Phase,
    shed: bool,
    footprint: usize,
    /// The attempt queued or running, 1-based (0 until admitted).
    attempt: u32,
    /// Virtual tick before which this job may not dispatch (backoff).
    not_before: u64,
    errors: Vec<String>,
    /// Wall clock at first dispatch — live observability only.
    started: Option<Instant>,
}

impl Job {
    fn new(spec: JobSpec) -> Self {
        Job {
            spec,
            phase: Phase::Undecided,
            shed: false,
            footprint: 0,
            attempt: 0,
            not_before: 0,
            errors: Vec::new(),
            started: None,
        }
    }

    /// Parks the job in its terminal phase.
    fn finish(
        &mut self,
        id: JobId,
        state: JobState,
        digest: u64,
        stats: Option<Stats>,
        reject_reason: Option<String>,
    ) {
        self.phase = Phase::Done(Box::new(JobOutcome {
            id,
            tenant: self.spec.tenant.clone(),
            priority: self.spec.priority,
            state,
            shed: self.shed,
            attempts: self.attempt,
            digest,
            stats,
            reject_reason,
            errors: std::mem::take(&mut self.errors),
            wall_ms: 0.0,
        }));
    }

    /// Why a record about `attempt` cannot apply in the job's phase.
    fn refuse(&self, id: JobId, what: &str, attempt: u32) -> String {
        let phase = match self.phase {
            Phase::Undecided => "undecided".to_string(),
            Phase::Queued => format!("queued for attempt {}", self.attempt),
            Phase::Running => format!("running attempt {}", self.attempt),
            Phase::Done(_) => "terminal".to_string(),
        };
        format!("{what} of attempt {attempt} while job {} is {phase}", id.0)
    }
}

/// The job `id` names, or why the record naming it is impossible.
fn known<'a>(jobs: &'a mut [Job], id: JobId, what: &str) -> Result<&'a mut Job, String> {
    usize::try_from(id.0)
        .ok()
        .and_then(|i| jobs.get_mut(i))
        .ok_or_else(|| format!("{what} unknown job {}", id.0))
}

pub(crate) struct SchedState {
    /// Every submitted job, indexed by [`JobId`].
    pub(crate) jobs: Vec<Job>,
    /// The [`Phase::Queued`] jobs, in no particular order:
    /// [`JobService::pick`]'s key is total.
    pub(crate) queue: Vec<JobId>,
    /// The [`Phase::Running`] jobs.
    running: usize,
    /// Virtual time: one tick per completed attempt, fast-forwarded
    /// when everything queued is backing off.
    clock: u64,
    /// Dispatch counter feeding tenant fairness.
    dispatches: u64,
    /// Last dispatch sequence per tenant — the round-robin key.
    last_served: BTreeMap<String, u64>,
    counters: Counters,
    admission: AdmissionController,
    /// Write-ahead journal, when durability is armed: every lifecycle
    /// record is appended *before* it is applied in memory.
    pub(crate) journal: Option<Journal>,
    /// `true` once an armed [`CrashPlan`] has fired: the simulated
    /// process is dead, workers drain out, and only
    /// [`JobService::recover`](crate::recovery) can continue the batch.
    crashed: bool,
}

impl SchedState {
    pub(crate) fn new(cfg: &ServiceConfig, journal: Option<Journal>) -> Self {
        SchedState {
            jobs: Vec::new(),
            queue: Vec::new(),
            running: 0,
            clock: 0,
            dispatches: 0,
            last_served: BTreeMap::new(),
            counters: Counters::default(),
            admission: AdmissionController::new(cfg.capacity_words, cfg.shed_fraction),
            journal,
            crashed: false,
        }
    }

    fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.0 as usize]
    }

    /// Applies one lifecycle record. Apart from
    /// [`Self::requeue_in_flight`] — the crash, which no record carries —
    /// this is the only code that moves a job between phases, ticks the
    /// virtual clock, bumps [`Counters`], stamps fairness, computes
    /// backoff, books or releases admission, and builds a [`JobOutcome`].
    /// The live scheduler calls it on each record right after appending
    /// it; replay calls it on each recovered record. It is pure in
    /// `(state, record)`: wall-clock stamps stay with the live caller.
    ///
    /// Duplicates are judged by the job's phase, never by which records
    /// were seen before: `Ok(false)` means the job already made this
    /// transition — a retried write, the re-run of an attempt that was in
    /// flight at a crash (`AttemptStarted { attempt: N }` while running
    /// `N`), or the `Quarantined` that confirms a final failed attempt —
    /// and nothing changed. `Err` names an impossible history.
    pub(crate) fn apply(&mut self, rec: JournalRecord) -> Result<bool, String> {
        match rec {
            JournalRecord::Submitted { id, spec } => {
                let next = self.jobs.len() as u64;
                if id.0 > next {
                    return Err(format!("submission id {} breaks the dense id space", id.0));
                }
                if id.0 < next {
                    return Ok(false);
                }
                self.counters.submitted += 1;
                self.jobs.push(Job::new(spec));
            }
            JournalRecord::Admitted { id, footprint } | JournalRecord::Shed { id, footprint } => {
                let shed = matches!(rec, JournalRecord::Shed { .. });
                let job = known(&mut self.jobs, id, "decision for")?;
                if !matches!(job.phase, Phase::Undecided) {
                    return Ok(false);
                }
                self.counters.admitted += 1;
                self.counters.shed += u64::from(shed);
                job.shed = shed;
                job.footprint = footprint as usize;
                job.attempt = 1;
                job.phase = Phase::Queued;
                self.admission.rebook(job.footprint);
                self.queue.push(id);
            }
            JournalRecord::Rejected { id, reason } => {
                let job = known(&mut self.jobs, id, "rejection of")?;
                if !matches!(job.phase, Phase::Undecided) {
                    return Ok(false);
                }
                self.counters.rejected += 1;
                job.finish(id, JobState::Rejected, 0, None, Some(reason));
            }
            JournalRecord::AttemptStarted { id, attempt } => {
                let job = known(&mut self.jobs, id, "attempt start for")?;
                match job.phase {
                    Phase::Running if job.attempt == attempt => return Ok(false),
                    Phase::Queued if job.attempt == attempt => {}
                    _ => return Err(job.refuse(id, "start", attempt)),
                }
                let at = self
                    .queue
                    .iter()
                    .position(|&q| q == id)
                    .expect("a queued job sits in the queue");
                self.queue.swap_remove(at);
                job.phase = Phase::Running;
                self.running += 1;
                self.dispatches += 1;
                self.last_served
                    .insert(job.spec.tenant.clone(), self.dispatches);
            }
            JournalRecord::AttemptFinished {
                id,
                attempt,
                deadline,
                error,
            } => {
                let job = known(&mut self.jobs, id, "attempt finish for")?;
                match job.phase {
                    Phase::Running if job.attempt == attempt => {}
                    Phase::Queued if job.attempt > attempt => return Ok(false),
                    Phase::Done(_) => return Ok(false),
                    _ => return Err(job.refuse(id, "finish", attempt)),
                }
                self.running -= 1;
                self.clock = self.clock.saturating_add(1);
                self.counters.deadline_failures += u64::from(deadline);
                job.errors.push(error);
                if attempt >= job.spec.max_attempts {
                    // Poison job: parked with its history; a following
                    // Quarantined record only confirms this.
                    self.counters.quarantined += 1;
                    self.admission.release(job.footprint);
                    job.finish(id, JobState::Quarantined, 0, None, None);
                } else {
                    // Bounded retry with saturating seeded backoff, paced
                    // in virtual ticks; a tenant-chosen delay saturates
                    // the clock arithmetic rather than wrapping it.
                    let delay = job.spec.backoff.delay(job.spec.seed, attempt);
                    self.counters.retries += 1;
                    self.counters.backoff_ticks = self.counters.backoff_ticks.saturating_add(delay);
                    job.attempt += 1;
                    job.not_before = self.clock.saturating_add(delay);
                    job.phase = Phase::Queued;
                    self.queue.push(id);
                }
            }
            JournalRecord::Quarantined { id, attempts, .. } => {
                let job = known(&mut self.jobs, id, "quarantine of")?;
                if !matches!(job.phase, Phase::Done(_)) {
                    return Err(job.refuse(id, "quarantine", attempts));
                }
                return Ok(false);
            }
            JournalRecord::Completed {
                id,
                attempts,
                degraded,
                digest,
                stats,
                ..
            } => {
                let job = known(&mut self.jobs, id, "completion of")?;
                match job.phase {
                    Phase::Running if job.attempt == attempts => {}
                    Phase::Done(_) => return Ok(false),
                    _ => return Err(job.refuse(id, "completion", attempts)),
                }
                self.running -= 1;
                self.clock = self.clock.saturating_add(1);
                let state = if degraded {
                    self.counters.degraded += 1;
                    JobState::Degraded
                } else {
                    self.counters.completed += 1;
                    JobState::Completed
                };
                self.admission.release(job.footprint);
                job.finish(id, state, digest, Some(stats), None);
            }
        }
        Ok(true)
    }

    /// The one transition no record carries: the process that ran the
    /// in-flight attempts died with their results, so every running job
    /// goes back to the queue at the same attempt. Replay ends with it;
    /// the re-run appends a second `AttemptStarted`, which a later replay
    /// finds the job already running.
    pub(crate) fn requeue_in_flight(&mut self) {
        for (i, job) in self.jobs.iter_mut().enumerate() {
            if matches!(job.phase, Phase::Running) {
                job.phase = Phase::Queued;
                self.queue.push(JobId(i as u64));
            }
        }
        self.running = 0;
    }

    /// The admission record for submitted job `id` with footprint
    /// `footprint` (or the reason its spec is refused), judged against
    /// the current bookings. Judging books nothing: applying the record
    /// does.
    pub(crate) fn decision_record(
        &self,
        id: JobId,
        footprint: Result<usize, String>,
    ) -> JournalRecord {
        let priority = self.job(id).spec.priority;
        match footprint.map(|words| (self.admission.judge(words, priority), words as u64)) {
            Err(reason) | Ok((AdmissionDecision::Reject { reason }, _)) => {
                JournalRecord::Rejected { id, reason }
            }
            Ok((AdmissionDecision::AdmitShed, footprint)) => JournalRecord::Shed { id, footprint },
            Ok((AdmissionDecision::Admit, footprint)) => JournalRecord::Admitted { id, footprint },
        }
    }

    /// The live write-ahead step: appends `rec`, then applies it.
    /// `false` (with the service marked crashed) when the append did not
    /// persist — an armed [`CrashPlan`] fired, or real I/O failed — so
    /// the log never lags memory. After a crash nothing persists or
    /// mutates, exactly like a process killed between syscalls.
    fn commit(&mut self, rec: JournalRecord) -> bool {
        if self.crashed {
            return false;
        }
        if let Some(j) = self.journal.as_mut() {
            if j.append(&rec).is_err() {
                self.crashed = true;
                return false;
            }
        }
        self.apply(rec)
            .expect("the live scheduler records only possible histories");
        true
    }
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

/// The words a job would book, or why it is refused before admission.
/// The footprint is closed-form in the spec's node and edge counts, so
/// admission builds no graph: a spec it refuses never reaches a
/// generator. [`JobService::submit`] and recovery's re-derived decisions
/// both go through here and through [`SchedState::decision_record`], so
/// replay reaches the same verdict.
pub(crate) fn job_footprint(spec: &JobSpec, mode: ParallelismMode) -> Result<usize, String> {
    spec.validate()?;
    let n = spec.graph.nodes();
    let mcfg = job_mpc_config(spec, mode);
    spec.graph
        .words()
        .and_then(|words| mcfg.machines_for(n, words).checked_mul(mcfg.local_space(n)))
        .ok_or_else(|| format!("invalid graph: the footprint of {n} nodes overflows"))
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
        let state = SchedState::new(&cfg, journal);
        Self::from_replayed(cfg, state)
    }

    /// A service around `state` — fresh, or replayed from a journal by
    /// [`crate::recovery`].
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
            .jobs
            .len()
    }

    /// Submits one job, deciding admission immediately (in submission
    /// order): rejected jobs — invalid specs ([`JobSpec::validate`]) and
    /// jobs over the space budget — get a terminal outcome with the
    /// reason; admitted jobs are queued — possibly on the shedding rung.
    pub fn submit(&self, spec: JobSpec) -> JobId {
        let footprint = job_footprint(&spec, self.cfg.mode);
        let mut state = self.state.lock().expect("service state poisoned");
        // After a crash the id is still handed back so callers index
        // consistently, but the dead process records nothing.
        let id = JobId(state.jobs.len() as u64);
        if state.commit(JournalRecord::Submitted { id, spec }) {
            let decision = state.decision_record(id, footprint);
            state.commit(decision);
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
            .jobs
            .drain(..)
            .enumerate()
            .map(|(i, job)| match job.phase {
                Phase::Done(outcome) => *outcome,
                _ => panic!("job {i} wedged without a terminal state"),
            })
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

    /// Picks the next dispatchable queued job: eligible (`not_before`
    /// reached), highest priority first, then least-recently-served
    /// tenant, then FIFO.
    fn pick(state: &SchedState) -> Option<JobId> {
        state
            .queue
            .iter()
            .filter(|&&id| state.job(id).not_before <= state.clock)
            .min_by_key(|&&id| {
                let spec = &state.job(id).spec;
                let served = state.last_served.get(&spec.tenant).copied().unwrap_or(0);
                (Reverse(spec.priority), served, id.0)
            })
            .copied()
    }

    fn worker_loop(&self) {
        loop {
            let mut state = self.state.lock().expect("service state poisoned");
            let dispatch = loop {
                if state.crashed {
                    break None;
                }
                if let Some(id) = Self::pick(&state) {
                    let attempt = state.job(id).attempt;
                    if !state.commit(JournalRecord::AttemptStarted { id, attempt }) {
                        break None;
                    }
                    let job = &mut state.jobs[id.0 as usize];
                    job.started.get_or_insert_with(Instant::now);
                    break Some((id, job.spec.clone(), attempt, job.shed));
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
                        .map(|&id| state.job(id).not_before)
                        .min()
                        .expect("non-empty queue");
                    state.clock = state.clock.max(next);
                    continue;
                }
                state = self.cvar.wait(state).expect("service state poisoned");
            };
            let Some((id, spec, attempt, shed)) = dispatch else {
                // Drained: wake any peers still parked on the condvar so
                // they observe the terminal state and exit too.
                self.cvar.notify_all();
                return;
            };
            drop(state);

            let shared = self.store.get(&spec.graph);
            let result = execute_attempt(&spec, &shared, attempt, shed, self.cfg.mode);

            let mut state = self.state.lock().expect("service state poisoned");
            // If the process died while this attempt was in flight, its
            // result evaporates and commit records nothing. Replay will
            // re-run the attempt — bit-identically, because execution is
            // pure in (spec, attempt, shed, mode).
            let rec = match result {
                // Completed *is* the finish record for a successful
                // attempt, so a success can never be half-persisted.
                Ok(success) => JournalRecord::Completed {
                    id,
                    attempts: attempt,
                    shed,
                    degraded: success.degraded,
                    digest: labels_digest(&success.labels),
                    stats: success.stats,
                },
                Err(e) => JournalRecord::AttemptFinished {
                    id,
                    attempt,
                    deadline: matches!(e, MpcError::RoundLimitExceeded { .. }),
                    error: format!("attempt {attempt}: {e}"),
                },
            };
            let failed = matches!(rec, JournalRecord::AttemptFinished { .. });
            if state.commit(rec) {
                let job = &mut state.jobs[id.0 as usize];
                if let Phase::Done(outcome) = &mut job.phase {
                    outcome.wall_ms = job.started.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);
                    if failed {
                        // Redundant with the final AttemptFinished, which
                        // already parked the job, so a crash between the
                        // two appends loses nothing.
                        state.commit(JournalRecord::Quarantined {
                            id,
                            attempts: attempt,
                            shed,
                        });
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
