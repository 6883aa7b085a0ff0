//! The supervision suite: checksummed transport envelopes, adversarial
//! transport faults (corruption, reordering, partitions), straggler
//! speculation, quarantine, exponential backoff, and the
//! per-repetition reset regression — on both the accounted layer
//! (`advance_rounds`) and the exact engine
//! (`exact_aggregate_sum_with_faults`).

use csmpc_graph::fnv::Fnv1a;
use csmpc_graph::rng::Seed;
use csmpc_mpc::{
    exact_aggregate_sum, exact_aggregate_sum_with_faults, Cluster, ClusterEvent, Envelope,
    FaultPlan, Message, MpcConfig, RecoveryEvent, RecoveryPolicy, SupervisorConfig,
};

// ---------------------------------------------------------------------------
// Envelope: corruption is detected, never silently applied
// ---------------------------------------------------------------------------

#[test]
fn envelope_roundtrips_and_detects_any_payload_flip() {
    let msg = Message {
        to: 3,
        words: vec![11, 22, 33],
    };
    let sealed = Envelope::seal(msg.clone());
    assert!(sealed.verify());
    assert_eq!(sealed.open(), Some(msg.clone()));

    // Every single-bit flip of every payload word breaks the seal.
    for word in 0..3 {
        for bit in 0..64 {
            let tampered = Envelope::seal(msg.clone()).tampered(word, 1u64 << bit);
            assert!(!tampered.verify(), "word {word} bit {bit} went undetected");
            assert_eq!(tampered.open(), None);
        }
    }
}

#[test]
fn envelope_checksum_binds_destination_and_length() {
    // Same payload, different destination: different checksum, so a
    // misrouted-but-byte-identical payload cannot masquerade.
    let a = Envelope::seal(Message {
        to: 0,
        words: vec![7, 7],
    });
    let b = Envelope::seal(Message {
        to: 1,
        words: vec![7, 7],
    });
    assert_ne!(a.checksum(), b.checksum());
    // Length is sealed too: [0] and [0, 0] must differ.
    let short = Envelope::seal(Message {
        to: 0,
        words: vec![0],
    });
    let long = Envelope::seal(Message {
        to: 0,
        words: vec![0, 0],
    });
    assert_ne!(short.checksum(), long.checksum());
}

// ---------------------------------------------------------------------------
// Exact engine under adversarial transport
// ---------------------------------------------------------------------------

fn engine_cluster() -> Cluster {
    Cluster::new(MpcConfig::with_phi(0.5), 400, 800, Seed(7))
}

fn quiet_engine_baseline(values: &[u64]) -> (u64, csmpc_mpc::Stats) {
    let mut cl = engine_cluster();
    let (sum, _) = exact_aggregate_sum(&mut cl, values).unwrap();
    (sum, cl.stats().clone())
}

#[test]
fn engine_corruption_is_always_detected_and_charged() {
    let values: Vec<u64> = (1..=100).collect();
    let expected: u64 = values.iter().sum();
    let (quiet_sum, quiet_stats) = quiet_engine_baseline(&values);
    assert_eq!(quiet_sum, expected);

    // Corrupt *every* non-empty message: the sum must still come out
    // exact (tampered payloads are discarded and retransmitted, never
    // applied), every strike must be counted, and the retransmissions
    // must show up as extra words and rounds.
    let plan = FaultPlan::quiet(Seed(0xC0)).with_corruption(1000);
    let run = || {
        let mut cl = engine_cluster();
        let (sum, _) =
            exact_aggregate_sum_with_faults(&mut cl, &values, &plan, RecoveryPolicy::restart(8))
                .unwrap();
        (sum, cl.stats().clone())
    };
    let (sum_a, stats_a) = run();
    let (sum_b, stats_b) = run();
    assert_eq!(sum_a, expected, "corruption silently changed the output");
    assert_eq!((sum_a, &stats_a), (sum_b, &stats_b), "replay diverged");
    assert!(
        stats_a.corrupted_detected > 0,
        "full-rate corruption never struck"
    );
    // Retransmits land in the round the original would have been
    // consumed, so corruption costs words (each payload paid twice),
    // not extra rounds.
    assert!(
        stats_a.total_words > quiet_stats.total_words,
        "corruption retransmissions were free"
    );
}

#[test]
fn engine_reordering_replays_bit_identically() {
    let values: Vec<u64> = (1..=100).collect();
    let expected: u64 = values.iter().sum();
    let plan = FaultPlan::quiet(Seed(0xD0)).with_reordering(1000);
    let run = || {
        let mut cl = engine_cluster();
        let (sum, _) =
            exact_aggregate_sum_with_faults(&mut cl, &values, &plan, RecoveryPolicy::restart(8))
                .unwrap();
        (sum, cl.stats().clone())
    };
    let (sum_a, stats_a) = run();
    let (sum_b, stats_b) = run();
    assert_eq!(sum_a, expected);
    assert_eq!((sum_a, &stats_a), (sum_b, &stats_b), "replay diverged");
    assert_eq!(stats_a.corrupted_detected, 0);
}

#[test]
fn engine_partition_holds_traffic_and_heals() {
    let values: Vec<u64> = (1..=100).collect();
    let expected: u64 = values.iter().sum();
    let (_, quiet_stats) = quiet_engine_baseline(&values);
    let m = engine_cluster().num_machines();
    assert!(m >= 2, "partition test needs at least two machines");

    // Cut machine 0 off for the first two rounds: its traffic is held
    // and delivered (re-charged) at the heal, so the sum is exact but
    // later and costlier.
    let plan = FaultPlan::quiet(Seed(0xE0)).partition(1, 2, vec![0]);
    let run = || {
        let mut cl = engine_cluster();
        let (sum, _) =
            exact_aggregate_sum_with_faults(&mut cl, &values, &plan, RecoveryPolicy::restart(8))
                .unwrap();
        (sum, cl.stats().clone())
    };
    let (sum_a, stats_a) = run();
    let (sum_b, stats_b) = run();
    assert_eq!(sum_a, expected, "partition lost words");
    assert_eq!((sum_a, &stats_a), (sum_b, &stats_b), "replay diverged");
    assert!(
        stats_a.total_words > quiet_stats.total_words,
        "held-and-healed deliveries were free"
    );
}

#[test]
fn engine_speculation_clamps_straggler_stall() {
    let values: Vec<u64> = (1..=100).collect();
    let expected: u64 = values.iter().sum();
    let plan = FaultPlan::quiet(Seed(0xF0)).straggle(0, 1, 12);
    let run = |supervised: bool| {
        let mut cl = engine_cluster();
        if supervised {
            cl.supervise(SupervisorConfig {
                deadline_rounds: 2,
                failure_threshold: 8,
            });
        }
        let (sum, _) =
            exact_aggregate_sum_with_faults(&mut cl, &values, &plan, RecoveryPolicy::restart(8))
                .unwrap();
        (sum, cl.stats().clone(), cl.events().to_vec())
    };
    let (plain_sum, plain_stats, plain_log) = run(false);
    let (sup_sum, sup_stats, sup_log) = run(true);
    assert_eq!(plain_sum, expected);
    assert_eq!(sup_sum, expected, "speculation changed the output");
    assert!(plain_log.is_empty());
    // The supervised run trades barrier rounds for charged speculative
    // machine-rounds and re-shipped snapshot words.
    assert!(
        sup_stats.rounds < plain_stats.rounds,
        "speculation did not shorten the critical path \
         (supervised {} vs plain {})",
        sup_stats.rounds,
        plain_stats.rounds
    );
    assert_eq!(sup_stats.speculative_rounds, 12 - 2);
    assert!(sup_stats.recovery_words > 0, "re-shipped state was free");
    assert!(matches!(
        sup_log.as_slice(),
        [ClusterEvent::Speculation {
            machine: 0,
            stall_avoided: 10,
            ..
        }]
    ));
    // Determinism of the supervised path.
    let (again_sum, again_stats, again_log) = run(true);
    assert_eq!(
        (again_sum, &again_stats, &again_log),
        (sup_sum, &sup_stats, &sup_log)
    );
}

#[test]
fn engine_quarantine_spends_no_retries_and_keeps_the_sum() {
    let values: Vec<u64> = (1..=100).collect();
    let expected: u64 = values.iter().sum();
    // Threshold 0: the very first crash quarantines the machine. With a
    // retry budget of zero the run would fail if the crash consumed a
    // retry — surviving proves quarantine absorbed it.
    let plan = FaultPlan::quiet(Seed(0xAB)).crash(0, 2).crash(0, 4);
    let mut cl = engine_cluster();
    cl.supervise(SupervisorConfig {
        deadline_rounds: 2,
        failure_threshold: 0,
    });
    let (sum, _) =
        exact_aggregate_sum_with_faults(&mut cl, &values, &plan, RecoveryPolicy::restart(0))
            .unwrap();
    assert_eq!(sum, expected, "quarantine lost machine 0's words");
    assert_eq!(
        cl.quarantined_machines()
            .iter()
            .copied()
            .collect::<Vec<_>>(),
        vec![0]
    );
    assert!(cl.faulted_machines().contains(&0));
    // The spares still resume from the restored checkpoint, so the crash
    // is logged as a recovery after its quarantine. The second crash on
    // the quarantined machine was moot: no further event or failure.
    assert!(matches!(
        cl.events(),
        [
            ClusterEvent::Quarantine { machine: 0, .. },
            ClusterEvent::Recovery(RecoveryEvent { machine: 0, .. })
        ]
    ));
    // Quarantine migration is charged as recovery overhead.
    assert!(cl.stats().recovery_words > 0);
}

// ---------------------------------------------------------------------------
// Accounted layer: speculation, quarantine, backoff, partitions
// ---------------------------------------------------------------------------

fn accounted_cluster() -> Cluster {
    Cluster::new(MpcConfig::with_phi(0.5), 256, 512, Seed(3))
}

#[test]
fn accounted_straggler_speculation_clamps_the_barrier() {
    let plan = FaultPlan::quiet(Seed(1)).straggle(0, 1, 10);

    let mut plain = accounted_cluster();
    plain.arm_faults(plan.clone(), RecoveryPolicy::restart(4));
    plain.advance_rounds(3).unwrap();
    assert_eq!(plain.stats().rounds, 3 + 10, "unsupervised stall wrong");
    assert!(plain.events().is_empty());

    let mut sup = accounted_cluster();
    sup.arm_faults(plan, RecoveryPolicy::restart(4));
    sup.supervise(SupervisorConfig {
        deadline_rounds: 2,
        failure_threshold: 4,
    });
    sup.advance_rounds(3).unwrap();
    assert_eq!(sup.stats().rounds, 3 + 2, "deadline clamp wrong");
    assert_eq!(sup.stats().speculative_rounds, 8);
    assert!(sup.stats().recovery_words > 0, "re-shipped state was free");
    assert!(matches!(
        sup.events(),
        [ClusterEvent::Speculation {
            machine: 0,
            stall_avoided: 8,
            ..
        }]
    ));
    assert!(sup.faulted_machines().contains(&0));
}

#[test]
fn accounted_backoff_idles_exponentially_and_is_charged() {
    let plan = FaultPlan::quiet(Seed(2)).crash(0, 1).crash(1, 2);

    let mut flat = accounted_cluster();
    flat.arm_faults(plan.clone(), RecoveryPolicy::restart(4));
    flat.advance_rounds(4).unwrap();

    let mut backed = accounted_cluster();
    backed.arm_faults(plan, RecoveryPolicy::restart_with_backoff(4, 2));
    backed.advance_rounds(4).unwrap();

    // Retry 1 idles 2 rounds, retry 2 idles 4: at least 6 extra rounds
    // versus the same plan without backoff (the idling also lengthens
    // the checkpoint replays, which may add more), all attributed to
    // recovery overhead.
    assert!(backed.stats().rounds >= flat.stats().rounds + 6);
    assert!(backed.stats().recovery_rounds >= flat.stats().recovery_rounds + 6);
    let backoffs: Vec<(usize, usize)> = backed
        .events()
        .iter()
        .filter_map(|ev| match ev {
            ClusterEvent::Backoff {
                retry,
                stall_rounds,
                ..
            } => Some((*retry, *stall_rounds)),
            _ => None,
        })
        .collect();
    assert_eq!(backoffs, vec![(1, 2), (2, 4)]);
}

#[test]
fn accounted_quarantine_stops_consuming_retries() {
    // Three crashes on machine 0 under a retry budget of 1: the first is
    // recovered (retry 1), the second trips the threshold and
    // quarantines instead of blowing the budget, the third is moot.
    let plan = FaultPlan::quiet(Seed(4))
        .crash(0, 1)
        .crash(0, 2)
        .crash(0, 3);
    let mut cl = accounted_cluster();
    cl.arm_faults(plan, RecoveryPolicy::restart(1));
    cl.supervise(SupervisorConfig {
        deadline_rounds: 2,
        failure_threshold: 1,
    });
    cl.advance_rounds(5).unwrap();
    let recoveries = cl
        .events()
        .iter()
        .filter(|ev| matches!(ev, ClusterEvent::Recovery(_)));
    assert_eq!(recoveries.count(), 1, "only the first crash retries");
    assert_eq!(
        cl.quarantined_machines()
            .iter()
            .copied()
            .collect::<Vec<_>>(),
        vec![0]
    );
    let quarantines = cl
        .events()
        .iter()
        .filter(|ev| matches!(ev, ClusterEvent::Quarantine { .. }))
        .count();
    assert_eq!(quarantines, 1);
    assert!(cl.stats().recovery_words > 0, "migration was free");
}

#[test]
fn accounted_partition_charges_its_stall_exactly_once() {
    let plan = FaultPlan::quiet(Seed(5)).partition(2, 3, vec![0]);
    let mut cl = accounted_cluster();
    cl.arm_faults(plan, RecoveryPolicy::restart(4));
    cl.advance_rounds(5).unwrap();
    // 5 computation rounds plus the 3-round partition window.
    assert_eq!(cl.stats().rounds, 5 + 3);
    // Re-advancing must not re-charge the window.
    cl.advance_rounds(2).unwrap();
    assert_eq!(cl.stats().rounds, 5 + 3 + 2);
}

/// The round stamp of an event: `crash_round` for a recovery, `round`
/// otherwise.
fn stamp(ev: &ClusterEvent) -> usize {
    match ev {
        ClusterEvent::Recovery(r) => r.crash_round,
        ClusterEvent::Speculation { round, .. }
        | ClusterEvent::Quarantine { round, .. }
        | ClusterEvent::Backoff { round, .. } => *round,
    }
}

#[test]
fn accounted_event_log_is_ledger_ordered_and_splits_into_both_sequences() {
    // Seeded random plans (crashes and stragglers crowded onto 4 machines,
    // so quarantines fire) under a supervisor and a backoff policy. The
    // accounted layer stamps every event with the ledger round, so the
    // stamps never decrease in log order. Split by kind, the log gives
    // the recovery sequence and the supervision sequence that the layer
    // kept as two separate logs before they were folded into one; the
    // digest of both, with each run's result, was taken from those two
    // logs and is pinned.
    let mut kinds = [0usize; 4];
    let mut digest = Fnv1a::new();
    for p in 0..200u64 {
        let mut cl = accounted_cluster();
        cl.arm_faults(
            FaultPlan::random(Seed(0x0E7E).derive(p), 4, 12, 3, 4),
            RecoveryPolicy::restart_with_backoff(3, 1),
        );
        cl.supervise(SupervisorConfig {
            deadline_rounds: 1,
            failure_threshold: 1,
        });
        let result = cl.advance_rounds(16);
        let events = cl.events();
        assert!(
            events.windows(2).all(|w| stamp(&w[0]) <= stamp(&w[1])),
            "plan {p}: stamps decrease in {events:?}"
        );
        let (mut recoveries, mut supervision) = (Vec::new(), Vec::new());
        for ev in events {
            kinds[match ev {
                ClusterEvent::Recovery(_) => 0,
                ClusterEvent::Speculation { .. } => 1,
                ClusterEvent::Quarantine { .. } => 2,
                ClusterEvent::Backoff { .. } => 3,
            }] += 1;
            match ev {
                ClusterEvent::Recovery(r) => recoveries.push(r),
                other => supervision.push(other),
            }
        }
        digest.bytes(format!("{result:?} {recoveries:?} {supervision:?}").as_bytes());
    }
    assert_eq!(kinds, [356, 489, 206, 356], "event counts by kind");
    assert_eq!(digest.finish(), 0x8860_f5b0_9b5e_9a4c, "split event logs");
}

// ---------------------------------------------------------------------------
// Satellite: reset_for_repetition regression for supervision-era state
// ---------------------------------------------------------------------------

#[test]
fn reset_for_repetition_rearms_faults_and_clears_supervision_state() {
    let plan = FaultPlan::quiet(Seed(6))
        .crash(0, 1)
        .crash(0, 2)
        .straggle(1, 3, 9);
    let mut cl = accounted_cluster();
    cl.arm_faults(plan, RecoveryPolicy::restart_with_backoff(4, 1));
    cl.supervise(SupervisorConfig {
        deadline_rounds: 2,
        failure_threshold: 1,
    });

    let run = |cl: &mut Cluster| {
        cl.advance_rounds(5).unwrap();
        (
            cl.stats().clone(),
            cl.events().to_vec(),
            cl.quarantined_machines().clone(),
            cl.faulted_machines().clone(),
        )
    };
    let first = run(&mut cl);
    assert!(
        first
            .1
            .iter()
            .any(|ev| !matches!(ev, ClusterEvent::Recovery(_))),
        "plan fired no supervision events; the regression test is vacuous"
    );

    cl.reset_for_repetition();
    assert_eq!(cl.stats(), &csmpc_mpc::Stats::default());
    assert!(cl.events().is_empty(), "event log leaked");
    assert!(cl.quarantined_machines().is_empty(), "quarantine leaked");
    assert!(cl.faulted_machines().is_empty(), "fault record leaked");

    // With the cursor re-armed and the failure counts cleared, the
    // repetition replays the first run bit-for-bit. A leaked failure
    // count would quarantine earlier; a stale cursor would fire nothing.
    let second = run(&mut cl);
    assert_eq!(first, second, "repetition diverged after reset");
}

#[test]
fn reset_for_repetition_leaks_no_per_execution_field() {
    // The full-audit companion to the two targeted regressions around
    // it: dirty *every* per-execution field the PR 7/8 era added —
    // ledger (including recovery and phase columns), provenance flows,
    // per-machine component tags, event log and the supervisor's
    // failure/quarantine/taint bookkeeping, deadline marker — then
    // check the reset cluster is observationally identical to a freshly
    // built one on every public accessor. A field added to `Cluster`
    // without a `reset_for_repetition` line should fail here.
    let dirty = |cl: &mut Cluster| {
        cl.arm_faults(
            FaultPlan::quiet(Seed(6)).crash(0, 1).straggle(1, 2, 6),
            RecoveryPolicy::restart_with_backoff(3, 1),
        );
        cl.supervise(SupervisorConfig {
            deadline_rounds: 2,
            failure_threshold: 1,
        });
        cl.arm_job_deadline(64);
        cl.advance_rounds(4).unwrap();
        cl.charge_recovery(2, 128);
        cl.provenance_mut().record_global_mix("audit", 0, [0, 1]);
        cl.record_phase(&csmpc_mpc::PhaseTimes {
            step_ns: 1,
            ..csmpc_mpc::PhaseTimes::default()
        });
    };
    let mut cl = accounted_cluster();
    dirty(&mut cl);
    assert!(
        cl.stats().recovery_rounds > 0
            && cl.provenance().has_cross_component_flow()
            && cl
                .events()
                .iter()
                .any(|ev| !matches!(ev, ClusterEvent::Recovery(_)))
            && !cl.phase_times().is_zero()
            && !cl.faulted_machines().is_empty(),
        "the dirtying run left fields clean; the audit is vacuous"
    );

    cl.reset_for_repetition();
    let fresh = accounted_cluster();
    assert_eq!(cl.stats(), fresh.stats(), "stats ledger leaked");
    assert_eq!(
        cl.provenance().flows(),
        fresh.provenance().flows(),
        "provenance flows leaked"
    );
    for m in 0..cl.num_machines() {
        assert_eq!(
            cl.machine_components(m),
            fresh.machine_components(m),
            "machine {m} component tags leaked"
        );
    }
    assert_eq!(cl.events(), fresh.events(), "event log leaked");
    assert_eq!(
        cl.phase_times(),
        fresh.phase_times(),
        "phase timings leaked"
    );
    assert_eq!(
        cl.quarantined_machines(),
        fresh.quarantined_machines(),
        "quarantine set leaked"
    );
    assert_eq!(
        cl.faulted_machines(),
        fresh.faulted_machines(),
        "faulted set leaked"
    );
    assert_eq!(
        cl.deadline_tripped(),
        fresh.deadline_tripped(),
        "deadline marker leaked"
    );
    // Policies deliberately survive (plan, supervisor, armed deadline):
    // the repetition replays the same dirtying run bit-for-bit, which a
    // leaked failure count or stale fault cursor would break.
    assert_eq!(cl.job_deadline(), Some(64));
    let first_stats = {
        let mut again = accounted_cluster();
        dirty(&mut again);
        again.stats().clone()
    };
    dirty(&mut cl);
    assert_eq!(cl.stats(), &first_stats, "repetition diverged after reset");
}

// ---------------------------------------------------------------------------
// Job-level deadlines (service layer): enforcement and per-repetition reset
// ---------------------------------------------------------------------------

#[test]
fn job_deadline_trips_at_the_barrier_and_counts_recovery_stalls() {
    // Quiet run inside the budget: no error, no tripped marker.
    let mut cl = accounted_cluster();
    cl.arm_job_deadline(10);
    cl.advance_rounds(10).unwrap();
    assert!(!cl.deadline_tripped());

    // One more barrier advance goes past the budget.
    let err = cl.advance_rounds(1).unwrap_err();
    assert_eq!(err, csmpc_mpc::MpcError::RoundLimitExceeded { limit: 10 });
    assert!(cl.deadline_tripped());

    // Recovery overhead consumes the same budget: a straggler stall that
    // pushes the ledger past the deadline trips it even though the caller
    // asked for rounds well inside the budget.
    let mut stalled = accounted_cluster();
    stalled.arm_job_deadline(8);
    stalled.arm_faults(
        FaultPlan::quiet(Seed(2)).straggle(0, 2, 20),
        RecoveryPolicy::restart(4),
    );
    let err = stalled.advance_rounds(3).unwrap_err();
    assert_eq!(err, csmpc_mpc::MpcError::RoundLimitExceeded { limit: 8 });
    assert!(stalled.deadline_tripped());
    assert!(
        stalled.stats().rounds > 8,
        "the stall itself must be what overran the budget"
    );
}

#[test]
fn reset_for_repetition_clears_deadline_bookkeeping_but_keeps_the_policy() {
    // Mirrors the supervision-state leak regression above for the
    // service-era per-job state: the tripped marker is per-execution and
    // must not leak into the next repetition, while the armed deadline
    // (the policy) survives like the fault plan does.
    let mut cl = accounted_cluster();
    cl.arm_job_deadline(4);
    let first = cl.advance_rounds(5).unwrap_err();
    assert_eq!(first, csmpc_mpc::MpcError::RoundLimitExceeded { limit: 4 });
    assert!(cl.deadline_tripped());

    cl.reset_for_repetition();
    assert!(
        !cl.deadline_tripped(),
        "deadline-tripped marker leaked across reset_for_repetition"
    );
    assert_eq!(
        cl.job_deadline(),
        Some(4),
        "the armed deadline policy must survive the reset"
    );

    // The repetition replays bit-for-bit: same budget, same trip point.
    cl.advance_rounds(4).unwrap();
    assert!(!cl.deadline_tripped(), "fresh ledger must fit the budget");
    let second = cl.advance_rounds(1).unwrap_err();
    assert_eq!(second, first, "repetition diverged after reset");

    // Disarming clears both the policy and the marker.
    let _ = cl.advance_rounds(1);
    cl.disarm_job_deadline();
    assert!(cl.job_deadline().is_none());
    assert!(!cl.deadline_tripped());
    cl.advance_rounds(100).unwrap();
}
