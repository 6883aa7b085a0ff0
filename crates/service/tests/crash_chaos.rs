//! Crash-chaos sweep: a journaled service killed at seeded crash points
//! must recover to a report bit-identical to an uninterrupted run.
//!
//! The batch mixes every lifecycle the journal records: healthy jobs,
//! a poison job that quarantines through the retry ladder, a faulted
//! job that fails early attempts, a low-priority job on the shedding
//! rung, and an over-budget job that admission rejects. Crash plans
//! sweep the kill point across submission, dispatch, retry, and
//! completion records, plus the torn-final-write and duplicated-record
//! variants.

use csmpc_graph::rng::Seed;
use csmpc_mpc::Stats;
use csmpc_service::{
    BackoffPolicy, Counters, CrashPlan, FaultSpec, GraphSpec, JobId, JobService, JobSpec, Journal,
    JournalError, JournalRecord, Priority, RecoveryError, ServiceConfig, ServiceReport, Workload,
};
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("csmpc_chaos_{}_{name}.bin", std::process::id()))
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 3,
        shed_fraction: 0.0, // every low-priority job rides the shedding rung
        ..ServiceConfig::default()
    }
}

/// A batch exercising completion, degradation, retry→quarantine, the
/// shedding rung, and admission rejection.
fn mixed_batch() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for (i, tenant) in ["acme", "umbrella", "acme"].iter().enumerate() {
        specs.push(JobSpec::basic(
            tenant,
            Workload::CcLabels,
            GraphSpec::TwoCycles { n: 8 },
            Seed(10 + i as u64),
        ));
    }
    // Poison: a 1-round deadline trips on every attempt → quarantine.
    let mut poison = JobSpec::basic(
        "umbrella",
        Workload::LubyMis,
        GraphSpec::Cycle { n: 8 },
        Seed(40),
    );
    poison.deadline_rounds = Some(1);
    poison.max_attempts = 3;
    specs.push(poison);
    // Faulted: crash recovery inside the run, plus the job retry ladder.
    let mut faulted = JobSpec::basic(
        "initech",
        Workload::CcLabels,
        GraphSpec::TwoCycles { n: 8 },
        Seed(50),
    );
    faulted.faults = Some(FaultSpec {
        crashes: 1,
        stragglers: 1,
        horizon: 6,
        corrupt_per_mille: 0,
        seed: 0xFA11,
    });
    faulted.recovery_retries = 0;
    specs.push(faulted);
    // Shed: low priority under a zero watermark.
    let mut low = JobSpec::basic(
        "acme",
        Workload::BallColoring { radius: 2 },
        GraphSpec::RandomTree { n: 12, seed: 3 },
        Seed(60),
    );
    low.priority = Priority::Low;
    specs.push(low);
    // Rejected: a footprint beyond the whole aggregate budget.
    let mut huge = JobSpec::basic(
        "umbrella",
        Workload::CcLabels,
        GraphSpec::Cycle { n: 8 },
        Seed(70),
    );
    huge.min_space = 1 << 23; // footprint ≥ 2× the default capacity
    specs.push(huge);
    specs
}

fn reference_report(cfg: &ServiceConfig, specs: &[JobSpec]) -> ServiceReport {
    JobService::new(cfg.clone()).run_batch(specs.to_vec())
}

/// Runs the batch under `plan`, recovering (and resubmitting anything
/// the dead process never journaled) until the batch completes. Returns
/// the final report and how many recoveries it took.
fn run_with_crash(
    cfg: &ServiceConfig,
    specs: &[JobSpec],
    plan: CrashPlan,
    path: &Path,
) -> (ServiceReport, u32) {
    let svc = JobService::with_journal(cfg.clone(), Journal::create(path).unwrap());
    svc.arm_crash(plan);
    for s in specs {
        let _ = svc.submit(s.clone());
    }
    if let Some(report) = svc.run_recoverable() {
        return (report, 0);
    }
    drop(svc);
    let mut recoveries = 1u32;
    loop {
        let (svc, _info) = JobService::recover(cfg.clone(), path).unwrap();
        // Submissions past the journaled prefix died with the process;
        // the client resubmits them and gets the same dense ids.
        let persisted = svc.submitted_jobs();
        for s in &specs[persisted..] {
            let _ = svc.submit(s.clone());
        }
        match svc.run_recoverable() {
            Some(report) => return (report, recoveries),
            None => recoveries += 1,
        }
    }
}

fn assert_reports_match(reference: &ServiceReport, recovered: &ServiceReport, ctx: &str) {
    assert_eq!(
        reference.fingerprint(),
        recovered.fingerprint(),
        "{ctx}: fingerprint diverged"
    );
    assert_eq!(
        reference.counters, recovered.counters,
        "{ctx}: counters diverged"
    );
    assert_eq!(reference.outcomes.len(), recovered.outcomes.len(), "{ctx}");
    for (a, b) in reference.outcomes.iter().zip(&recovered.outcomes) {
        assert_eq!(a.id, b.id, "{ctx}");
        assert_eq!(a.state, b.state, "{ctx}: job {:?}", a.id);
        assert_eq!(a.shed, b.shed, "{ctx}: job {:?}", a.id);
        assert_eq!(a.attempts, b.attempts, "{ctx}: job {:?}", a.id);
        assert_eq!(a.digest, b.digest, "{ctx}: job {:?}", a.id);
        assert_eq!(a.stats, b.stats, "{ctx}: job {:?}", a.id);
        assert_eq!(a.errors, b.errors, "{ctx}: job {:?}", a.id);
        assert_eq!(a.reject_reason, b.reject_reason, "{ctx}: job {:?}", a.id);
    }
}

#[test]
fn kill_points_across_the_whole_log_recover_bit_identical() {
    let cfg = config();
    let specs = mixed_batch();
    let reference = reference_report(&cfg, &specs);
    for k in 1..=20 {
        let path = tmp(&format!("kill_{k}"));
        let (report, recoveries) = run_with_crash(&cfg, &specs, CrashPlan::kill_after(k), &path);
        assert!(recoveries >= 1, "kill point {k} fired before the log ended");
        assert_reports_match(&reference, &report, &format!("kill after {k}"));
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn seeded_crash_variants_recover_bit_identical() {
    let cfg = config();
    let specs = mixed_batch();
    let reference = reference_report(&cfg, &specs);
    for s in 0..12u64 {
        let plan = CrashPlan::random(Seed(s), 40);
        let path = tmp(&format!("seeded_{s}"));
        let (report, _) = run_with_crash(&cfg, &specs, plan, &path);
        assert_reports_match(&reference, &report, &format!("seeded plan {plan:?}"));
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn torn_final_write_truncates_and_recovers() {
    let cfg = config();
    let specs = mixed_batch();
    let reference = reference_report(&cfg, &specs);
    let path = tmp("torn");
    let plan = CrashPlan::kill_after(9).with_torn_tail(5);
    let svc = JobService::with_journal(cfg.clone(), Journal::create(&path).unwrap());
    svc.arm_crash(plan);
    for s in &specs {
        let _ = svc.submit(s.clone());
    }
    assert!(svc.run_recoverable().is_none(), "the plan must fire");
    drop(svc);
    let (svc, info) = JobService::recover(cfg.clone(), &path).unwrap();
    assert_eq!(info.torn_bytes_truncated, 5, "the torn prefix is dropped");
    assert_eq!(info.records_replayed, 9);
    let persisted = svc.submitted_jobs();
    for s in &specs[persisted..] {
        let _ = svc.submit(s.clone());
    }
    let report = svc.run_recoverable().expect("no second crash armed");
    assert_reports_match(&reference, &report, "torn final write");
    std::fs::remove_file(&path).ok();
}

#[test]
fn duplicated_record_is_idempotent_on_replay() {
    let cfg = config();
    let specs = mixed_batch();
    let reference = reference_report(&cfg, &specs);
    let path = tmp("dup");
    let plan = CrashPlan::kill_after(12).with_duplicate(3);
    let svc = JobService::with_journal(cfg.clone(), Journal::create(&path).unwrap());
    svc.arm_crash(plan);
    for s in &specs {
        let _ = svc.submit(s.clone());
    }
    assert!(svc.run_recoverable().is_none());
    drop(svc);
    let (svc, info) = JobService::recover(cfg.clone(), &path).unwrap();
    assert_eq!(info.duplicates_ignored, 1, "the retried write replays once");
    let persisted = svc.submitted_jobs();
    for s in &specs[persisted..] {
        let _ = svc.submit(s.clone());
    }
    let report = svc.run_recoverable().expect("no second crash armed");
    assert_reports_match(&reference, &report, "duplicated record");
    std::fs::remove_file(&path).ok();
}

#[test]
fn double_recover_is_idempotent() {
    let cfg = config();
    let specs = mixed_batch();
    let reference = reference_report(&cfg, &specs);
    let path = tmp("double");
    let svc = JobService::with_journal(cfg.clone(), Journal::create(&path).unwrap());
    svc.arm_crash(CrashPlan::kill_after(7).with_torn_tail(3));
    for s in &specs {
        let _ = svc.submit(s.clone());
    }
    assert!(svc.run_recoverable().is_none());
    drop(svc);
    // First recovery truncates the tail and re-journals any lost
    // admission decision; abandoning it and recovering again must land
    // in the same state — recovery mutates the log only idempotently.
    let (first, info1) = JobService::recover(cfg.clone(), &path).unwrap();
    assert_eq!(info1.torn_bytes_truncated, 3);
    drop(first);
    let (svc, info2) = JobService::recover(cfg.clone(), &path).unwrap();
    assert_eq!(info2.torn_bytes_truncated, 0, "truncation already applied");
    assert_eq!(info2.rederived_admissions, 0, "re-derivations are durable");
    let persisted = svc.submitted_jobs();
    for s in &specs[persisted..] {
        let _ = svc.submit(s.clone());
    }
    let report = svc.run_recoverable().expect("no second crash armed");
    assert_reports_match(&reference, &report, "double recover");
    std::fs::remove_file(&path).ok();
}

#[test]
fn crash_between_submission_and_decision_rederives_the_verdict() {
    let cfg = config();
    let specs = mixed_batch();
    let reference = reference_report(&cfg, &specs);
    // Record 1 is job 0's Submitted; its admission decision is the
    // fatal write, so replay must re-derive (and re-journal) it.
    let path = tmp("undecided");
    let svc = JobService::with_journal(cfg.clone(), Journal::create(&path).unwrap());
    svc.arm_crash(CrashPlan::kill_after(1));
    for s in &specs {
        let _ = svc.submit(s.clone());
    }
    assert!(svc.run_recoverable().is_none());
    drop(svc);
    let (svc, info) = JobService::recover(cfg.clone(), &path).unwrap();
    assert_eq!(info.records_replayed, 1);
    assert_eq!(info.rederived_admissions, 1);
    assert_eq!(svc.submitted_jobs(), 1, "only job 0 persisted");
    for s in &specs[1..] {
        let _ = svc.submit(s.clone());
    }
    let report = svc.run_recoverable().expect("no second crash armed");
    assert_reports_match(&reference, &report, "undecided submission");
    std::fs::remove_file(&path).ok();
}

#[test]
fn recovery_charges_replay_work_into_a_standalone_ledger() {
    let cfg = config();
    let specs = mixed_batch();
    let path = tmp("charged");
    let svc = JobService::with_journal(cfg.clone(), Journal::create(&path).unwrap());
    svc.arm_crash(CrashPlan::kill_after(10));
    for s in &specs {
        let _ = svc.submit(s.clone());
    }
    assert!(svc.run_recoverable().is_none());
    drop(svc);
    let (svc, info) = JobService::recover(cfg.clone(), &path).unwrap();
    // One replay round per record, words mirrored into the recovery
    // columns — the paper's discipline: recovery is never free.
    assert_eq!(info.replay_stats.rounds as u64, info.records_replayed);
    assert_eq!(info.replay_stats.recovery_rounds, info.replay_stats.rounds);
    assert!(info.replay_stats.total_words > 0);
    assert_eq!(
        info.replay_stats.recovery_words,
        info.replay_stats.total_words
    );
    // …and the ledger stays out of the fingerprint-covered report.
    let persisted = svc.submitted_jobs();
    for s in &specs[persisted..] {
        let _ = svc.submit(s.clone());
    }
    let report = svc.run_recoverable().expect("no second crash armed");
    assert_eq!(
        report.counters,
        reference_report(&cfg, &specs).counters,
        "replay charges must not leak into service counters"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn interior_corruption_refuses_recovery_loudly() {
    let cfg = config();
    let specs = mixed_batch();
    let path = tmp("corrupt");
    let svc = JobService::with_journal(cfg.clone(), Journal::create(&path).unwrap());
    svc.arm_crash(CrashPlan::kill_after(12));
    for s in &specs {
        let _ = svc.submit(s.clone());
    }
    assert!(svc.run_recoverable().is_none());
    drop(svc);
    // Flip one payload bit in the very first record.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[12 + 3] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    match JobService::recover(cfg, &path) {
        Err(RecoveryError::Journal(JournalError::Corrupt { offset, .. })) => {
            assert_eq!(offset, 0);
        }
        Err(other) => panic!("expected interior corruption error, got {other:?}"),
        Ok(_) => panic!("corrupt interior must refuse recovery"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn uninterrupted_journaled_run_needs_no_recovery_and_matches() {
    let cfg = config();
    let specs = mixed_batch();
    let reference = reference_report(&cfg, &specs);
    let path = tmp("quiet");
    let svc = JobService::with_journal(cfg.clone(), Journal::create(&path).unwrap());
    for s in &specs {
        let _ = svc.submit(s.clone());
    }
    let report = svc.run_recoverable().expect("nothing armed");
    assert_reports_match(&reference, &report, "journaled, uncrashed");
    assert!(!svc.crashed());
    drop(svc);
    // The complete log replays to a fully-terminal state.
    let (recovered, info) = JobService::recover(cfg, &path).unwrap();
    assert_eq!(info.resumed_jobs, 0);
    assert_eq!(info.restored_terminal as usize, specs.len());
    assert_eq!(recovered.submitted_jobs(), specs.len());
    let replayed = recovered.run_recoverable().expect("nothing armed");
    assert_reports_match(&reference, &replayed, "pure replay of a full log");
    std::fs::remove_file(&path).ok();
}

#[test]
fn counters_counted_exactly_once_across_the_crash_boundary() {
    let cfg = config();
    let specs = mixed_batch();
    let reference = reference_report(&cfg, &specs);
    // Sanity on the reference itself: the batch really exercises every
    // counter the journal must reconstruct.
    let c: Counters = reference.counters;
    assert!(c.retries > 0 && c.quarantined > 0 && c.shed > 0 && c.rejected > 0);
    assert!(c.deadline_failures > 0 && c.backoff_ticks > 0);
    for k in [5u64, 15, 25] {
        let path = tmp(&format!("counters_{k}"));
        let (report, _) = run_with_crash(&cfg, &specs, CrashPlan::kill_after(k), &path);
        assert_eq!(report.counters, reference.counters, "kill after {k}");
        std::fs::remove_file(&path).ok();
    }
}

/// Specs the generators or the cluster configuration would panic on,
/// each with a fragment of the reason its rejection must carry.
fn invalid_specs() -> Vec<(JobSpec, &'static str)> {
    let spec = |graph| JobSpec::basic("mallory", Workload::CcLabels, graph, Seed(90));
    let with_phi = |phi| JobSpec {
        phi,
        ..spec(GraphSpec::Cycle { n: 8 })
    };
    vec![
        (
            spec(GraphSpec::Cycle { n: 2 }),
            "a cycle needs at least 3 nodes, got 2",
        ),
        (
            spec(GraphSpec::Cycle { n: 0 }),
            "a cycle needs at least 3 nodes, got 0",
        ),
        (
            spec(GraphSpec::TwoCycles { n: 7 }),
            "even node count of at least 6, got 7",
        ),
        (
            spec(GraphSpec::TwoCycles { n: 4 }),
            "even node count of at least 6, got 4",
        ),
        (with_phi(f64::NAN), "invalid phi NaN"),
        (with_phi(f64::INFINITY), "invalid phi inf"),
        (with_phi(0.0), "invalid phi 0"),
        (with_phi(-0.5), "invalid phi -0.5"),
        (with_phi(1.0), "invalid phi 1"),
        (
            JobSpec {
                min_space: 0,
                ..spec(GraphSpec::Path { n: 0 })
            },
            "invalid min_space 0",
        ),
    ]
}

#[test]
fn invalid_specs_are_rejected_with_their_reason_and_recover_identically() {
    let cfg = config();
    let bad = invalid_specs();
    // Valid and invalid submissions interleaved, so kill points land
    // between an invalid submission and its rejection record too.
    let mut specs = Vec::new();
    for (i, (spec, _)) in bad.iter().enumerate() {
        specs.push(JobSpec::basic(
            "acme",
            Workload::CcLabels,
            GraphSpec::TwoCycles { n: 8 },
            Seed(i as u64),
        ));
        specs.push(spec.clone());
    }
    let reference = reference_report(&cfg, &specs);
    assert_eq!(reference.counters.rejected, bad.len() as u64);
    assert_eq!(reference.counters.completed, bad.len() as u64);
    for (k, (_, why)) in bad.iter().enumerate() {
        let outcome = &reference.outcomes[2 * k + 1];
        assert_eq!(outcome.state, csmpc_service::JobState::Rejected);
        assert_eq!(outcome.attempts, 0);
        let reason = outcome.reject_reason.as_deref().unwrap_or_default();
        assert!(reason.contains(why), "job {k}: {reason:?} lacks {why:?}");
    }
    for k in 1..=2 * specs.len() as u64 {
        let path = tmp(&format!("invalid_{k}"));
        let (report, recoveries) = run_with_crash(&cfg, &specs, CrashPlan::kill_after(k), &path);
        assert!(recoveries >= 1, "kill point {k} fired before the log ended");
        assert_reports_match(
            &reference,
            &report,
            &format!("invalid specs, kill after {k}"),
        );
        std::fs::remove_file(&path).ok();
    }
}

/// Writes `records` by hand and asserts that recovery refuses the log as
/// an impossible history at record `at` — an error, never a panic.
fn assert_refused(name: &str, records: &[JournalRecord], at: usize) {
    let path = tmp(name);
    let mut journal = Journal::create(&path).unwrap();
    for rec in records {
        journal.append(rec).unwrap();
    }
    drop(journal);
    let result = JobService::recover(config(), &path);
    std::fs::remove_file(&path).ok();
    match result {
        Err(RecoveryError::Inconsistent { record, detail }) => {
            assert_eq!(record, at, "{name}: {detail}");
        }
        Err(other) => panic!("{name}: expected an inconsistent history, got {other:?}"),
        Ok(_) => panic!("{name}: an impossible history must refuse recovery"),
    }
}

#[test]
fn impossible_histories_refuse_recovery_at_the_offending_record() {
    let submitted = |id| JournalRecord::Submitted {
        id: JobId(id),
        spec: mixed_batch()[0].clone(),
    };
    assert_refused("dense", &[submitted(0), submitted(2)], 1);
    // Job 0 exists; job 1 was never submitted.
    let unknown = JobId(1);
    let strays = [
        JournalRecord::Admitted {
            id: unknown,
            footprint: 64,
        },
        JournalRecord::Shed {
            id: unknown,
            footprint: 64,
        },
        JournalRecord::Rejected {
            id: unknown,
            reason: "over budget".to_string(),
        },
        JournalRecord::AttemptStarted {
            id: unknown,
            attempt: 1,
        },
        JournalRecord::AttemptFinished {
            id: unknown,
            attempt: 1,
            deadline: false,
            error: "attempt 1: boom".to_string(),
        },
        JournalRecord::Quarantined {
            id: unknown,
            attempts: 1,
            shed: false,
        },
        JournalRecord::Completed {
            id: unknown,
            attempts: 1,
            shed: false,
            degraded: false,
            digest: 7,
            stats: Stats::default(),
        },
    ];
    for (k, stray) in strays.into_iter().enumerate() {
        let admitted = JournalRecord::Admitted {
            id: JobId(0),
            footprint: 64,
        };
        assert_refused(&format!("unknown_{k}"), &[submitted(0), admitted, stray], 2);
    }
}

#[test]
fn saturated_backoff_quarantines_and_recovers_identically() {
    // A tenant-chosen backoff at the top of the tick range: every retry
    // delay is u64::MAX, so the virtual clock, the job's eligibility
    // gate and the backoff counter must all saturate.
    let mut poison = JobSpec::basic(
        "umbrella",
        Workload::LubyMis,
        GraphSpec::Cycle { n: 8 },
        Seed(41),
    );
    poison.deadline_rounds = Some(1);
    poison.max_attempts = 3;
    poison.backoff = BackoffPolicy {
        base: u64::MAX,
        cap: u64::MAX,
    };
    let mut specs = mixed_batch();
    specs.truncate(2);
    specs.push(poison);
    let cfg = config();
    let reference = reference_report(&cfg, &specs);
    let q = &reference.outcomes[2];
    assert_eq!(q.state, csmpc_service::JobState::Quarantined, "{q:?}");
    assert_eq!(q.attempts, 3);
    assert_eq!(reference.counters.retries, 2);
    assert_eq!(reference.counters.backoff_ticks, u64::MAX);
    let one = JobService::new(ServiceConfig {
        workers: 1,
        ..cfg.clone()
    })
    .run_batch(specs.clone());
    assert_reports_match(&reference, &one, "one worker vs three");
    // The uninterrupted log holds 17 records (6 admission, 4 for the
    // healthy jobs, 7 for the poison job), so kill points 1..=16 sweep
    // all of it, some landing between the poison job's failed attempts
    // while it waits out a saturated backoff.
    for k in 1..=16 {
        let path = tmp(&format!("saturated_{k}"));
        let (report, recoveries) = run_with_crash(&cfg, &specs, CrashPlan::kill_after(k), &path);
        assert!(recoveries >= 1, "kill point {k} fired before the log ended");
        assert_reports_match(&reference, &report, &format!("saturated, kill after {k}"));
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn records_out_of_phase_refuse_recovery() {
    // Each history names a known job, but a record arrives in a phase
    // the scheduler never writes it from.
    let job = JobId(0);
    let submitted = JournalRecord::Submitted {
        id: job,
        spec: mixed_batch()[0].clone(),
    };
    let admitted = JournalRecord::Admitted {
        id: job,
        footprint: 64,
    };
    let started = |attempt| JournalRecord::AttemptStarted { id: job, attempt };
    let failed = |attempt| JournalRecord::AttemptFinished {
        id: job,
        attempt,
        deadline: false,
        error: format!("attempt {attempt}: boom"),
    };
    let completed = |attempts| JournalRecord::Completed {
        id: job,
        attempts,
        shed: false,
        degraded: false,
        digest: 7,
        stats: Stats::default(),
    };
    let quarantined = JournalRecord::Quarantined {
        id: job,
        attempts: 1,
        shed: false,
    };
    let histories = [
        ("start_undecided", vec![submitted.clone(), started(1)]),
        (
            "start_wrong_attempt",
            vec![submitted.clone(), admitted.clone(), started(2)],
        ),
        (
            "finish_unstarted",
            vec![submitted.clone(), admitted.clone(), failed(1)],
        ),
        (
            "complete_unstarted",
            vec![submitted.clone(), admitted.clone(), completed(1)],
        ),
        (
            "complete_wrong_attempt",
            vec![
                submitted.clone(),
                admitted.clone(),
                started(1),
                completed(2),
            ],
        ),
        (
            "quarantine_live_job",
            vec![submitted.clone(), admitted.clone(), started(1), quarantined],
        ),
        (
            "complete_after_failure",
            vec![
                submitted.clone(),
                admitted.clone(),
                started(1),
                failed(1),
                completed(1),
            ],
        ),
        (
            "start_after_terminal",
            vec![
                submitted.clone(),
                admitted.clone(),
                started(1),
                completed(1),
                started(1),
            ],
        ),
    ];
    for (name, records) in histories {
        let at = records.len() - 1;
        assert_refused(name, &records, at);
    }
}
