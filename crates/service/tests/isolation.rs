//! Fault isolation between co-scheduled jobs: injected failures produce
//! only per-job retry/quarantine/Degraded outcomes — a healthy job's
//! output *and its `Stats` charges* are bit-identical whether it runs
//! alone or sandwiched between crashing, straggling, and
//! deadline-poisoned neighbors. A fault plan's corruption rate acts on
//! no service job at all.

use csmpc_graph::rng::Seed;
use csmpc_mpc::ParallelismMode;
use csmpc_service::{
    FaultSpec, GraphSpec, JobService, JobSpec, JobState, Priority, ServiceConfig, Workload,
};

fn healthy(tenant: &str, seed: u64) -> JobSpec {
    JobSpec::basic(
        tenant,
        Workload::CcLabels,
        GraphSpec::TwoCycles { n: 16 },
        Seed(seed),
    )
}

fn faulty(tenant: &str, seed: u64) -> JobSpec {
    let mut spec = JobSpec::basic(
        tenant,
        Workload::LubyMis,
        GraphSpec::Cycle { n: 16 },
        Seed(seed),
    );
    spec.faults = Some(FaultSpec {
        crashes: 2,
        stragglers: 2,
        horizon: 5,
        corrupt_per_mille: 50,
        seed: 4000 + seed,
    });
    spec.recovery_retries = 3;
    spec
}

fn poisoned(tenant: &str, seed: u64) -> JobSpec {
    let mut spec = healthy(tenant, seed);
    spec.deadline_rounds = Some(1);
    spec.max_attempts = 2;
    spec
}

fn service(workers: usize) -> JobService {
    JobService::new(ServiceConfig {
        workers,
        capacity_words: 1 << 22,
        shed_fraction: 1.0,
        mode: ParallelismMode::default(),
    })
}

#[test]
fn healthy_jobs_unchanged_next_to_faulty_and_poisoned_neighbors() {
    // Solo baselines: each healthy job alone in its own service.
    let solo: Vec<_> = (0..4u64)
        .map(|i| {
            let report = service(1).run_batch(vec![healthy("solo", i)]);
            report.outcomes.into_iter().next().unwrap()
        })
        .collect();

    // The same four healthy jobs co-scheduled with chaos.
    let mut batch = Vec::new();
    for i in 0..4u64 {
        batch.push(healthy("solo", i));
        batch.push(faulty("chaos", i));
        batch.push(poisoned("chaos", 50 + i));
    }
    let report = service(4).run_batch(batch);

    for (i, base) in solo.iter().enumerate() {
        let co = &report.outcomes[3 * i]; // healthy jobs sit at 0, 3, 6, 9
        assert_eq!(co.state, JobState::Completed, "healthy job {i}: {co:?}");
        assert_eq!(co.digest, base.digest, "healthy job {i} output perturbed");
        assert_eq!(
            co.stats, base.stats,
            "healthy job {i} Stats charges perturbed by co-scheduled faults"
        );
        assert_eq!(co.attempts, 1, "healthy job {i} should not retry");
    }

    // The chaos jobs failed *as themselves*: every poisoned job is
    // quarantined with history, no healthy job absorbed their state.
    for i in 0..4 {
        let p = &report.outcomes[3 * i + 2];
        assert_eq!(p.state, JobState::Quarantined, "{p:?}");
        assert_eq!(p.attempts, 2);
        assert!(!p.errors.is_empty());
    }
    assert_eq!(report.counters.quarantined, 4);
    assert_eq!(report.counters.deadline_failures, 8);
}

#[test]
fn shed_job_with_faults_degrades_while_full_service_twin_completes() {
    // Two identical fault-carrying jobs; the low-priority one is shed
    // (watermark 0) and must degrade to partial output instead of
    // burning attempts, while queue peers stay healthy.
    let svc = JobService::new(ServiceConfig {
        workers: 2,
        capacity_words: 1 << 22,
        shed_fraction: 0.0,
        mode: ParallelismMode::default(),
    });
    let mut shed = faulty("tenant", 3);
    shed.priority = Priority::Low;
    shed.recovery_retries = 0; // exhaust in-run recovery fast
    shed.max_attempts = 1; // supervised mode must still terminate it
    let report = svc.run_batch(vec![shed, healthy("tenant", 9)]);
    let s = &report.outcomes[0];
    assert!(s.shed);
    assert!(
        matches!(s.state, JobState::Completed | JobState::Degraded),
        "shed jobs terminate via supervised degrade, not quarantine: {s:?}"
    );
    assert_eq!(report.outcomes[1].state, JobState::Completed);
}

#[test]
fn tenant_burst_cannot_starve_another_tenant() {
    // One tenant floods 12 jobs, another submits 2; with fairness the
    // small tenant's jobs dispatch within the first few slots. We can't
    // observe dispatch order directly, but all jobs must terminate and
    // the small tenant's outputs must match its solo baselines.
    let solo_a = service(1).run_batch(vec![healthy("small", 100)]);
    let mut batch: Vec<_> = (0..12u64).map(|i| healthy("flood", i)).collect();
    batch.insert(5, healthy("small", 100));
    let report = service(3).run_batch(batch);
    assert!(report
        .outcomes
        .iter()
        .all(|o| o.state == JobState::Completed));
    assert_eq!(report.outcomes[5].digest, solo_a.outcomes[0].digest);
    assert_eq!(report.outcomes[5].stats, solo_a.outcomes[0].stats);
}

/// 72 jobs: 4 graphs × 3 workloads × shed or not × 0–2 crashes, each
/// with one straggler, every fault plan at corruption rate `per_mille`.
fn corruption_probe_batch(per_mille: u16) -> Vec<JobSpec> {
    let graphs = [
        GraphSpec::Cycle { n: 16 },
        GraphSpec::Path { n: 20 },
        GraphSpec::TwoCycles { n: 16 },
        GraphSpec::RandomTree { n: 24, seed: 7 },
    ];
    let workloads = [
        Workload::LubyMis,
        Workload::CcLabels,
        Workload::BallColoring { radius: 2 },
    ];
    let mut batch = Vec::new();
    for (g, graph) in graphs.into_iter().enumerate() {
        for (w, workload) in workloads.into_iter().enumerate() {
            for shed in [false, true] {
                for crashes in 0..3 {
                    let seed = (((g * 3 + w) * 2 + usize::from(shed)) * 3 + crashes) as u64;
                    let mut spec = JobSpec::basic("probe", workload, graph, Seed(seed));
                    spec.priority = if shed {
                        Priority::Low
                    } else {
                        Priority::Normal
                    };
                    spec.faults = Some(FaultSpec {
                        crashes,
                        stragglers: 1,
                        horizon: 6,
                        corrupt_per_mille: per_mille,
                        seed: 9000 + seed,
                    });
                    spec.recovery_retries = 3;
                    batch.push(spec);
                }
            }
        }
    }
    batch
}

#[test]
fn corruption_rate_has_no_effect_on_service_jobs() {
    // Service workloads move words only through the accounted
    // primitives; the exact engine's merge step is the one reader of the
    // corruption rate, and no service job reaches it. So a rate of 0 and
    // a rate of 1000 must give the same report, field for field.
    let run = |per_mille| {
        JobService::new(ServiceConfig {
            workers: 2,
            capacity_words: 1 << 22,
            shed_fraction: 0.0,
            mode: ParallelismMode::Sequential,
        })
        .run_batch(corruption_probe_batch(per_mille))
    };
    let (clean, corrupt) = (run(0), run(1000));
    assert_eq!(clean.outcomes.len(), 72);
    assert_eq!(clean.fingerprint(), corrupt.fingerprint());
    assert_eq!(clean.counters, corrupt.counters);
    for (a, b) in clean.outcomes.iter().zip(&corrupt.outcomes) {
        assert_eq!(a.stats, b.stats, "job {:?}", a.id);
        assert_eq!(a.errors, b.errors, "job {:?}", a.id);
        assert!(b.stats.as_ref().is_none_or(|s| s.corrupted_detected == 0));
    }
    // The probe is not vacuous: faults struck and shedding happened.
    let hit = corrupt
        .outcomes
        .iter()
        .filter(|o| {
            o.attempts > 1
                || !o.errors.is_empty()
                || o.stats.as_ref().is_some_and(|s| s.recovery_rounds > 0)
        })
        .count();
    assert!(hit >= 36, "faults struck only {hit} of 72 jobs");
    assert_eq!(corrupt.counters.shed, 36);
}
