//! Deterministic service recovery: replaying a crash-consistent journal
//! back into a live [`JobService`].
//!
//! ## Why replay is exact
//!
//! Replay is not a second model of the scheduler. It folds each
//! recovered record through `SchedState::apply`, the same transition
//! function the live scheduler applies to each record right after
//! appending it, so replay reaches the state the dead process held when
//! its last durable record landed. Everything the report fingerprint
//! covers is then a pure function of durable inputs:
//!
//! * An attempt's result is pure in `(spec, attempt, shed, mode)` —
//!   [`crate::scheduler`]'s structural determinism. Specs, admission
//!   decisions (including the shed rung), and attempt numbers are all
//!   write-ahead journaled, so a recovered service re-runs exactly the
//!   attempts the dead process would have run, and gets bit-identical
//!   results.
//! * Scheduler ordering state (virtual clock, fairness stamps, backoff
//!   `not_before` gates) shapes *dispatch order only*, never results.
//!
//! Two steps are replay's own. An attempt with a start record but no
//! finish was in flight when the process died; its result evaporated
//! with the process, so replay ends by re-queueing it at the same
//! attempt number (`SchedState::requeue_in_flight`). A submission
//! whose admission decision was the torn record is re-decided against
//! the replayed bookings — identical to the lost decision, because
//! admission is a pure function of booked state and the torn record is
//! by construction the last event of the log — and the decision is
//! journaled and applied like a live one.
//!
//! ## Replay accounting
//!
//! Extending the paper's discipline that recovery is never free, replay
//! charges one round plus the frame's words per record into a standalone
//! [`Stats`] ledger ([`RecoveryInfo::replay_stats`], via
//! [`Stats::charge_replay`]). The ledger is observability: it is *not*
//! folded into any per-job ledger, which are fingerprint-covered and
//! must stay bit-identical to the uninterrupted run.

use crate::job::JobId;
use crate::journal::{Journal, JournalError, RecoveredLog, FRAME_HEADER};
use crate::scheduler::{job_footprint, JobService, Phase, SchedState, ServiceConfig};
use csmpc_mpc::Stats;
use std::fmt;
use std::path::Path;

/// Why recovery refused to reconstruct a service.
#[derive(Debug)]
pub enum RecoveryError {
    /// The journal itself could not be read, or is interior-corrupt.
    Journal(JournalError),
    /// The log decoded cleanly but describes an impossible history
    /// (e.g. an attempt for a job that was never submitted, or one that
    /// finishes before it started). This means a scheduler/journal bug,
    /// not disk damage.
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
    /// Records ignored as idempotent duplicates: retried writes that
    /// were in fact durable the first time, the re-run start of an
    /// attempt in flight at a crash, and the `Quarantined` that confirms
    /// a final failed attempt.
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
    let records_replayed = records.len() as u64;
    let mut state = SchedState::new(cfg, None);
    let mut duplicates_ignored: u64 = 0;
    let mut replay_stats = Stats::default();
    for (record, rec) in records.into_iter().enumerate() {
        // Recovery is never free: every durable record costs a replay
        // round and its frame's words.
        let frame_words = ((FRAME_HEADER + rec.encode().len()) as u64).div_ceil(8);
        replay_stats.charge_replay(1, frame_words);
        let applied = state
            .apply(rec)
            .map_err(|detail| RecoveryError::Inconsistent { record, detail })?;
        duplicates_ignored += u64::from(!applied);
    }

    // A submission whose decision append was the fatal write is the last
    // journaled event; deciding it now, against the replayed bookings,
    // reproduces the lost verdict exactly — and journaling it makes the
    // log self-contained for a crash *during* recovery.
    let mut rederived_admissions: u64 = 0;
    for i in 0..state.jobs.len() {
        let job = &state.jobs[i];
        if !matches!(job.phase, Phase::Undecided) {
            continue;
        }
        let id = JobId(i as u64);
        let rec = state.decision_record(id, job_footprint(&job.spec, cfg.mode));
        journal.append(&rec)?;
        state
            .apply(rec)
            .expect("a fresh decision applies to an undecided job");
        rederived_admissions += 1;
    }
    state.requeue_in_flight();
    state.journal = Some(journal);

    let resumed_jobs = state.queue.len() as u64;
    let info = RecoveryInfo {
        records_replayed,
        duplicates_ignored,
        torn_bytes_truncated,
        restored_terminal: state.jobs.len() as u64 - resumed_jobs,
        resumed_jobs,
        rederived_admissions,
        replay_stats,
    };
    Ok((state, info))
}
