//! Multi-tenant job service over the low-space MPC simulator.
//!
//! The robustness machinery of the lower crates (seeded [`FaultPlan`]s,
//! charged recovery, supervised degradation) protects a *single* run.
//! This crate guards the system *between* runs: a fleet of seeded jobs —
//! algorithm × graph × fault plan × space budget — flows through a
//! submission queue and a worker-pool scheduler, fronted by robustness
//! controls at every boundary:
//!
//! * **Admission control** ([`AdmissionController`]): the aggregate
//!   memory reservation of admitted jobs (each `M × S` words, with
//!   `S = n^φ`) is capped; a job that would push the fleet over capacity
//!   is rejected with a reason naming the budget, never silently dropped.
//! * **Overload shedding**: past a configurable watermark, low-priority
//!   jobs are *downgraded* to supervised partial-output mode
//!   ([`csmpc_mpc::run_supervised`]) instead of being refused — the
//!   shedding ladder degrades before it rejects.
//! * **Per-job deadlines**: each job may arm a ledger-round deadline
//!   ([`csmpc_mpc::Cluster::arm_job_deadline`]) enforced at the engine
//!   barrier, so recovery stalls and straggler waits consume the budget.
//! * **Bounded retry with saturating backoff** ([`BackoffPolicy`]):
//!   job-level mirror of [`csmpc_mpc::RecoveryPolicy`] restart-with-backoff —
//!   delays double, saturate at a cap, and are a pure function of
//!   `(seed, attempt)`.
//! * **Poison-job quarantine**: a job that fails its whole attempt
//!   budget is parked with its error history; the queue keeps draining.
//! * **Tenant fairness**: dispatch rotates across tenants at equal
//!   priority, so one tenant's burst cannot starve another.
//!
//! Jobs on the same graph spec share one built graph through the
//! [`GraphStore`], and ball collection shares one CSR spine per topology
//! through the process-wide [`csmpc_mpc::ball_cache::csr_global`] cache
//! (the content-keyed [`csmpc_mpc::BallCache`] family). Per-job seeded
//! determinism survives concurrent scheduling: an attempt's result is a
//! pure function of `(spec, attempt, shed)` — wall-clock observability
//! never feeds back into outputs, so the same batch produces bit-identical
//! per-job digests regardless of worker interleaving.
//!
//! **Durability**: the service process itself is no longer a single
//! point of failure. A service built with
//! [`JobService::with_journal`] write-ahead journals every lifecycle
//! transition into an append-only, checksummed binary log
//! ([`Journal`]); after a crash (simulated deterministically by a
//! seeded [`CrashPlan`]), [`JobService::recover`] truncates any torn
//! tail, replays the clean prefix into reconstructed scheduler state,
//! and resumes — producing a [`ServiceReport`] whose fingerprint is
//! bit-identical to an uninterrupted run, precisely because attempts
//! are pure and every decision feeding them is durable. Replay work is
//! charged into a standalone ledger ([`RecoveryInfo::replay_stats`]):
//! recovery is never free, here no more than inside a run.
//!
//! [`FaultPlan`]: csmpc_mpc::FaultPlan

pub mod admission;
pub mod backoff;
pub mod graph_store;
pub mod job;
pub mod journal;
pub mod recovery;
pub mod scheduler;

pub use admission::{AdmissionController, AdmissionDecision};
pub use backoff::BackoffPolicy;
pub use graph_store::{GraphStore, SharedGraph};
pub use job::{run_job, FaultSpec, GraphSpec, JobId, JobSpec, Priority, Workload};
pub use journal::{CrashPlan, Journal, JournalError, JournalRecord, RecoveredLog};
pub use recovery::{RecoveryError, RecoveryInfo};
pub use scheduler::{Counters, JobOutcome, JobService, JobState, ServiceConfig, ServiceReport};
