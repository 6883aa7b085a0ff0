//! Pins the scheduler's dispatch order.
//!
//! Every other service suite checks *what* each job computed; none of
//! them observes *when* a job was dispatched (fairness is only checked
//! through outcomes). This suite runs a one-worker journaled service —
//! the only configuration whose order is a pure function of the batch —
//! over a skewed multi-tenant batch with every priority, fault carriers
//! whose failed attempts back off by nonzero ticks, and deadline-poison
//! jobs that end in quarantine, so the virtual-clock fast-forward runs
//! once only backing-off jobs are left. The write-ahead log records one
//! `AttemptStarted` per dispatch; the `(id, attempt)` sequence read back
//! from it is the dispatch order, pinned by count and digest. The whole
//! log is pinned too — record count plus a digest over every record's
//! encoding — so the write side (which records, in which order, with
//! which payloads) cannot drift while the dispatch order holds.

use csmpc_graph::fnv::Fnv1a;
use csmpc_graph::rng::{Seed, SplitMix64};
use csmpc_mpc::ParallelismMode;
use csmpc_service::{
    BackoffPolicy, FaultSpec, GraphSpec, JobService, JobSpec, Journal, JournalRecord, Priority,
    ServiceConfig, Workload,
};

const JOBS: usize = 1_000;

fn batch() -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(Seed(0xd15_0bde));
    (0..JOBS)
        .map(|i| {
            // Skewed tenants: a whale, two mid-size tenants and a minnow.
            let tenant = match rng.range(0, 100) {
                0..=59 => "whale",
                60..=79 => "mid-a",
                80..=94 => "mid-b",
                _ => "minnow",
            };
            let graph = match rng.range(0, 3) {
                0 => GraphSpec::Cycle { n: 8 },
                1 => GraphSpec::TwoCycles { n: 8 },
                _ => GraphSpec::Path { n: 10 },
            };
            let workload = if rng.bit() {
                Workload::CcLabels
            } else {
                Workload::LubyMis
            };
            let mut spec = JobSpec::basic(tenant, workload, graph, Seed(i as u64));
            spec.priority = match rng.range(0, 10) {
                0..=1 => Priority::High,
                2..=7 => Priority::Normal,
                _ => Priority::Low,
            };
            match rng.range(0, 20) {
                // Fault carrier: no in-run recovery budget on attempt 1,
                // so early attempts fail and retry after a backoff.
                0..=2 => {
                    spec.faults = Some(FaultSpec {
                        crashes: 1,
                        stragglers: 1,
                        horizon: 4,
                        corrupt_per_mille: 0,
                        seed: 0xFA11 ^ i as u64,
                    });
                    spec.recovery_retries = 0;
                    spec.backoff = BackoffPolicy { base: 3, cap: 40 };
                }
                // Deadline poison: every attempt trips, then quarantine.
                3 => {
                    spec.deadline_rounds = Some(1);
                    spec.max_attempts = 3;
                    spec.backoff = BackoffPolicy { base: 5, cap: 200 };
                }
                _ => {}
            }
            spec
        })
        .collect()
}

#[test]
fn one_worker_dispatch_order_is_pinned() {
    let path =
        std::env::temp_dir().join(format!("csmpc_dispatch_order_{}.bin", std::process::id()));
    let svc = JobService::with_journal(
        ServiceConfig {
            workers: 1,
            capacity_words: 1 << 30,
            shed_fraction: 1.0,
            mode: ParallelismMode::Sequential,
        },
        Journal::create(&path).expect("create journal"),
    );
    let report = svc.run_batch(batch());
    let log = Journal::open_for_recovery(&path).expect("read journal back");
    std::fs::remove_file(&path).ok();

    // The batch exercises what the order depends on.
    let c = report.counters;
    assert_eq!(c.submitted, JOBS as u64);
    assert_eq!(c.rejected, 0);
    assert!(c.retries > 0 && c.backoff_ticks > 0, "{c:?}");
    assert!(c.quarantined > 0 && c.deadline_failures > 0, "{c:?}");

    let mut digest = Fnv1a::new();
    let mut dispatches = 0u64;
    for rec in &log.records {
        if let JournalRecord::AttemptStarted { id, attempt } = rec {
            digest.word(id.0).word(u64::from(*attempt));
            dispatches += 1;
        }
    }
    assert_eq!(dispatches, JOBS as u64 + c.retries);
    assert_eq!(
        (dispatches, digest.finish()),
        (1_249, 0x328c_4d67_3ec0_d4ab),
        "dispatch order changed"
    );

    let mut journal = Fnv1a::new();
    for rec in &log.records {
        let bytes = rec.encode();
        journal.word(bytes.len() as u64).bytes(&bytes);
    }
    assert_eq!(
        (log.records.len(), journal.finish()),
        (4_550, 0x8ae8_ccad_802b_dacc),
        "journal contents changed"
    );
}
