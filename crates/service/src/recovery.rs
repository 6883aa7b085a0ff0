//! Deterministic service recovery: replaying a crash-consistent journal
//! back into a live [`JobService`].
//!
//! ## Why replay is exact
//!
//! Everything the report fingerprint covers is a pure function of
//! durable inputs:
//!
//! * An attempt's result is pure in `(spec, attempt, shed, mode)` —
//!   [`crate::scheduler`]'s structural determinism. Specs, admission
//!   decisions (including the shed rung), and attempt numbers are all
//!   write-ahead journaled, so a recovered service re-runs exactly the
//!   attempts the dead process would have run, and gets bit-identical
//!   results.
//! * Terminal records carry their own `shed`/`attempts`/`digest`/ledger
//!   fields, so restoring a finished job never depends on any other
//!   record that might sit closer to the torn tail.
//! * Scheduler ordering state (virtual clock, fairness stamps, backoff
//!   `not_before` gates) shapes *dispatch order only*, never results —
//!   replay reconstructs it faithfully from the record sequence, but the
//!   fingerprint would match even if it could not.
//!
//! An attempt with a start record but no finish was in flight when the
//! process died; its result evaporated with the process, and the
//! recovered service simply re-runs that attempt number. A submission
//! whose admission decision was the torn record is re-decided at the end
//! of replay against the reconstructed bookings — identical to the lost
//! decision, because admission is a pure function of booked state and
//! the torn record is by construction the last event of the log.
//!
//! ## Replay accounting
//!
//! Extending the paper's discipline that recovery is never free, replay
//! charges one round plus the frame's words per record into a standalone
//! [`Stats`] ledger ([`RecoveryInfo::replay_stats`], via
//! [`Stats::charge_replay`]). The ledger is observability: it is *not*
//! folded into any per-job ledger, which are fingerprint-covered and
//! must stay bit-identical to the uninterrupted run.

use crate::admission::{AdmissionController, AdmissionDecision};
use crate::graph_store;
use crate::job::{JobId, JobSpec};
use crate::journal::{Journal, JournalError, JournalRecord, RecoveredLog, FRAME_HEADER};
use crate::scheduler::{
    admission_decision, job_footprint, Counters, JobOutcome, JobService, JobState, QueuedJob,
    SchedState, ServiceConfig,
};
use csmpc_mpc::Stats;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

/// Why recovery refused to reconstruct a service.
#[derive(Debug)]
pub enum RecoveryError {
    /// The journal itself could not be read, or is interior-corrupt.
    Journal(JournalError),
    /// The log decoded cleanly but describes an impossible history
    /// (e.g. an attempt for a job that was never submitted). This means
    /// a scheduler/journal bug, not disk damage.
    Inconsistent {
        /// Zero-based index of the offending record.
        record: usize,
        /// What made it impossible.
        detail: String,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Journal(e) => write!(f, "recovery failed: {e}"),
            RecoveryError::Inconsistent { record, detail } => {
                write!(f, "journal record {record} is inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Journal(e) => Some(e),
            RecoveryError::Inconsistent { .. } => None,
        }
    }
}

impl From<JournalError> for RecoveryError {
    fn from(e: JournalError) -> Self {
        RecoveryError::Journal(e)
    }
}

/// What one recovery did — counts for reporting, plus the replay ledger.
#[derive(Debug, Clone)]
pub struct RecoveryInfo {
    /// Records folded from the clean prefix.
    pub records_replayed: u64,
    /// Records ignored as idempotent duplicates (retried writes that
    /// were in fact durable the first time).
    pub duplicates_ignored: u64,
    /// Torn-tail bytes truncated by [`Journal::open_for_recovery`].
    pub torn_bytes_truncated: u64,
    /// Jobs restored directly to a terminal outcome.
    pub restored_terminal: u64,
    /// Jobs re-queued to resume execution.
    pub resumed_jobs: u64,
    /// Submissions whose admission decision was the torn record and was
    /// re-derived (and re-journaled) against the reconstructed bookings.
    pub rederived_admissions: u64,
    /// The replay cost ledger: one round plus the frame's words charged
    /// per record ([`Stats::charge_replay`]). Standalone observability —
    /// never folded into fingerprint-covered per-job ledgers.
    pub replay_stats: Stats,
}

/// The durable admission verdict for one replayed job.
#[derive(Clone, Copy)]
enum Decision {
    Admit { footprint: u64 },
    Shed { footprint: u64 },
    Rejected,
}

/// Accumulated replay state for one job.
struct ReplayJob {
    spec: JobSpec,
    decision: Option<Decision>,
    /// Attempt the job runs next (1-based) if it resumes.
    attempt_next: u32,
    errors: Vec<String>,
    started: BTreeSet<u32>,
    finished: BTreeSet<u32>,
    not_before: u64,
    terminal: Option<JobOutcome>,
}

impl ReplayJob {
    fn new(spec: JobSpec) -> Self {
        ReplayJob {
            spec,
            decision: None,
            attempt_next: 1,
            errors: Vec::new(),
            started: BTreeSet::new(),
            finished: BTreeSet::new(),
            not_before: 0,
            terminal: None,
        }
    }

    fn shed(&self) -> bool {
        matches!(self.decision, Some(Decision::Shed { .. }))
    }

    fn live_footprint(&self) -> Option<u64> {
        if self.terminal.is_some() {
            return None;
        }
        match self.decision {
            Some(Decision::Admit { footprint } | Decision::Shed { footprint }) => Some(footprint),
            _ => None,
        }
    }
}

impl JobService {
    /// Reconstructs a service from the journal at `path`: validates the
    /// log (truncating a torn tail), replays every record into scheduler
    /// state, and returns the service positioned to
    /// [`run_recoverable`](JobService::run_recoverable) the remainder of
    /// the batch. Because attempts are pure and every decision feeding
    /// them is durable, the resumed batch's [`crate::ServiceReport`]
    /// fingerprint is bit-identical to an uninterrupted run.
    ///
    /// Recovery itself is crash-consistent: it mutates the log only by
    /// the idempotent torn-tail truncation and by appending re-derived
    /// admission decisions, so dying *during* recovery and recovering
    /// again converges to the same state.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Journal`] for unreadable or interior-corrupt
    /// logs; [`RecoveryError::Inconsistent`] when a clean log describes
    /// an impossible history.
    pub fn recover(
        cfg: ServiceConfig,
        path: &Path,
    ) -> Result<(JobService, RecoveryInfo), RecoveryError> {
        let log = Journal::open_for_recovery(path)?;
        let (state, info) = replay_journal(&cfg, log)?;
        Ok((JobService::from_replayed(cfg, state), info))
    }
}

/// Folds a recovered log into a ready-to-run [`SchedState`]. This is the
/// replay entry point proper — [`JobService::recover`] is the thin
/// public wrapper around it.
pub(crate) fn replay_journal(
    cfg: &ServiceConfig,
    log: RecoveredLog,
) -> Result<(SchedState, RecoveryInfo), RecoveryError> {
    let RecoveredLog {
        mut journal,
        records,
        torn_bytes_truncated,
    } = log;

    let mut jobs: BTreeMap<u64, ReplayJob> = BTreeMap::new();
    let mut counters = Counters::default();
    let mut clock: u64 = 0;
    let mut dispatches: u64 = 0;
    let mut last_served: BTreeMap<String, u64> = BTreeMap::new();
    let mut duplicates_ignored: u64 = 0;
    let mut replay_stats = Stats::default();

    let inconsistent =
        |record: usize, detail: String| RecoveryError::Inconsistent { record, detail };
    for (i, rec) in records.iter().enumerate() {
        // Recovery is never free: every durable record costs a replay
        // round and its frame's words.
        let frame_words = ((FRAME_HEADER + rec.encode().len()) as u64).div_ceil(8);
        replay_stats.charge_replay(1, frame_words);
        match rec {
            JournalRecord::Submitted { id, spec } => {
                if jobs.contains_key(&id.0) {
                    duplicates_ignored += 1;
                    continue;
                }
                if id.0 != jobs.len() as u64 {
                    return Err(inconsistent(
                        i,
                        format!("submission id {} breaks the dense id space", id.0),
                    ));
                }
                counters.submitted += 1;
                jobs.insert(id.0, ReplayJob::new(spec.clone()));
            }
            JournalRecord::Admitted { id, footprint } | JournalRecord::Shed { id, footprint } => {
                let shed = matches!(rec, JournalRecord::Shed { .. });
                let job = jobs
                    .get_mut(&id.0)
                    .ok_or_else(|| inconsistent(i, format!("decision for unknown job {}", id.0)))?;
                if job.decision.is_some() {
                    duplicates_ignored += 1;
                    continue;
                }
                counters.admitted += 1;
                job.decision = Some(if shed {
                    counters.shed += 1;
                    Decision::Shed {
                        footprint: *footprint,
                    }
                } else {
                    Decision::Admit {
                        footprint: *footprint,
                    }
                });
            }
            JournalRecord::Rejected { id, reason } => {
                let job = jobs
                    .get_mut(&id.0)
                    .ok_or_else(|| inconsistent(i, format!("rejection of unknown job {}", id.0)))?;
                if job.decision.is_some() {
                    duplicates_ignored += 1;
                    continue;
                }
                counters.rejected += 1;
                job.decision = Some(Decision::Rejected);
                job.terminal = Some(rejected_outcome(*id, &job.spec, reason.clone()));
            }
            JournalRecord::AttemptStarted { id, attempt } => {
                let job = jobs.get_mut(&id.0).ok_or_else(|| {
                    inconsistent(i, format!("attempt start for unknown job {}", id.0))
                })?;
                if !job.started.insert(*attempt) {
                    duplicates_ignored += 1;
                    continue;
                }
                dispatches += 1;
                last_served.insert(job.spec.tenant.clone(), dispatches);
                job.attempt_next = job.attempt_next.max(*attempt);
            }
            JournalRecord::AttemptFinished {
                id,
                attempt,
                deadline,
                error,
            } => {
                let job = jobs.get_mut(&id.0).ok_or_else(|| {
                    inconsistent(i, format!("attempt finish for unknown job {}", id.0))
                })?;
                if job.terminal.is_some() || !job.finished.insert(*attempt) {
                    duplicates_ignored += 1;
                    continue;
                }
                clock += 1;
                if *deadline {
                    counters.deadline_failures += 1;
                }
                job.errors.push(error.clone());
                if *attempt >= job.spec.max_attempts {
                    // The final AttemptFinished alone implies quarantine
                    // (the explicit record may sit past the torn tail).
                    counters.quarantined += 1;
                    job.terminal = Some(quarantined_outcome(
                        *id,
                        &job.spec,
                        job.shed(),
                        *attempt,
                        job.errors.clone(),
                    ));
                } else {
                    let delay = job.spec.backoff.delay(job.spec.seed, *attempt);
                    counters.retries += 1;
                    counters.backoff_ticks += delay;
                    job.attempt_next = attempt + 1;
                    job.not_before = clock + delay;
                }
            }
            JournalRecord::Quarantined { id, attempts, shed } => {
                let job = jobs.get_mut(&id.0).ok_or_else(|| {
                    inconsistent(i, format!("quarantine of unknown job {}", id.0))
                })?;
                if job.terminal.is_some() {
                    // Normal case: the final AttemptFinished already
                    // derived this terminal.
                    duplicates_ignored += 1;
                    continue;
                }
                counters.quarantined += 1;
                job.terminal = Some(quarantined_outcome(
                    *id,
                    &job.spec,
                    *shed,
                    *attempts,
                    job.errors.clone(),
                ));
            }
            JournalRecord::Completed {
                id,
                attempts,
                shed,
                degraded,
                digest,
                stats,
            } => {
                let job = jobs.get_mut(&id.0).ok_or_else(|| {
                    inconsistent(i, format!("completion of unknown job {}", id.0))
                })?;
                if job.terminal.is_some() {
                    duplicates_ignored += 1;
                    continue;
                }
                clock += 1;
                let state = if *degraded {
                    counters.degraded += 1;
                    JobState::Degraded
                } else {
                    counters.completed += 1;
                    JobState::Completed
                };
                job.terminal = Some(JobOutcome {
                    id: *id,
                    tenant: job.spec.tenant.clone(),
                    priority: job.spec.priority,
                    state,
                    shed: *shed,
                    attempts: *attempts,
                    digest: *digest,
                    stats: Some(stats.clone()),
                    reject_reason: None,
                    errors: job.errors.clone(),
                    wall_ms: 0.0,
                });
            }
        }
    }

    // Rebook every still-live reservation before re-deriving any missing
    // decision: the historical decides are durable and must not be
    // re-judged, but a lost decision must see exactly the bookings the
    // dead process saw.
    let mut admission = AdmissionController::new(cfg.capacity_words, cfg.shed_fraction);
    for job in jobs.values() {
        if let Some(fp) = job.live_footprint() {
            admission.rebook(fp as usize);
        }
    }

    // A submission whose decision append was the fatal write is the last
    // journaled event; re-deciding it now, against the reconstructed
    // bookings, reproduces the lost verdict exactly — and re-journaling
    // it makes the log self-contained for a crash *during* recovery.
    let mut rederived_admissions: u64 = 0;
    let store = graph_store::global();
    let undecided: Vec<u64> = jobs
        .iter()
        .filter(|(_, j)| j.decision.is_none())
        .map(|(id, _)| *id)
        .collect();
    for id in undecided {
        let job = jobs.get_mut(&id).expect("undecided id just enumerated");
        let footprint = job_footprint(&job.spec, store, cfg.mode);
        let (decision, footprint) =
            admission_decision(&mut admission, footprint, job.spec.priority);
        let rec = match &decision {
            AdmissionDecision::Reject { reason } => JournalRecord::Rejected {
                id: JobId(id),
                reason: reason.clone(),
            },
            AdmissionDecision::AdmitShed => JournalRecord::Shed {
                id: JobId(id),
                footprint: footprint as u64,
            },
            AdmissionDecision::Admit => JournalRecord::Admitted {
                id: JobId(id),
                footprint: footprint as u64,
            },
        };
        journal.append(&rec).map_err(RecoveryError::Journal)?;
        rederived_admissions += 1;
        match decision {
            AdmissionDecision::Reject { reason } => {
                counters.rejected += 1;
                job.decision = Some(Decision::Rejected);
                job.terminal = Some(rejected_outcome(JobId(id), &job.spec, reason));
            }
            AdmissionDecision::AdmitShed => {
                counters.admitted += 1;
                counters.shed += 1;
                job.decision = Some(Decision::Shed {
                    footprint: footprint as u64,
                });
            }
            AdmissionDecision::Admit => {
                counters.admitted += 1;
                job.decision = Some(Decision::Admit {
                    footprint: footprint as u64,
                });
            }
        }
    }

    // Assemble the scheduler state: terminal outcomes restored in place,
    // everything else re-queued at its next attempt.
    let mut outcomes: Vec<Option<JobOutcome>> = Vec::with_capacity(jobs.len());
    let mut queue: Vec<QueuedJob> = Vec::new();
    let mut restored_terminal: u64 = 0;
    for (id, job) in &mut jobs {
        match job.terminal.take() {
            Some(outcome) => {
                restored_terminal += 1;
                outcomes.push(Some(outcome));
            }
            None => {
                let footprint = match job.decision {
                    Some(Decision::Admit { footprint } | Decision::Shed { footprint }) => {
                        footprint as usize
                    }
                    _ => unreachable!("non-terminal jobs were all decided above"),
                };
                queue.push(QueuedJob {
                    id: JobId(*id),
                    spec: job.spec.clone(),
                    shed: job.shed(),
                    footprint,
                    attempt: job.attempt_next,
                    not_before: job.not_before,
                    seq: *id,
                    errors: std::mem::take(&mut job.errors),
                    started: None,
                });
                outcomes.push(None);
            }
        }
    }
    let resumed_jobs = queue.len() as u64;

    let info = RecoveryInfo {
        records_replayed: records.len() as u64,
        duplicates_ignored,
        torn_bytes_truncated,
        restored_terminal,
        resumed_jobs,
        rederived_admissions,
        replay_stats,
    };
    let state = SchedState {
        queue,
        running: 0,
        clock,
        dispatches,
        last_served,
        outcomes,
        counters,
        admission,
        journal: Some(journal),
        crashed: false,
    };
    Ok((state, info))
}

fn rejected_outcome(id: JobId, spec: &JobSpec, reason: String) -> JobOutcome {
    JobOutcome {
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
    }
}

fn quarantined_outcome(
    id: JobId,
    spec: &JobSpec,
    shed: bool,
    attempts: u32,
    errors: Vec<String>,
) -> JobOutcome {
    JobOutcome {
        id,
        tenant: spec.tenant.clone(),
        priority: spec.priority,
        state: JobState::Quarantined,
        shed,
        attempts,
        digest: 0,
        stats: None,
        reject_reason: None,
        errors,
        wall_ms: 0.0,
    }
}
