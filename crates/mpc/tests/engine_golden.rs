//! Golden ledgers for both fault layers: the exact engine
//! (`exact_aggregate_sum_with_faults`) and the accounted driver
//! (`advance_rounds`).
//!
//! Every case runs a fixed fault plan under one recovery policy, with or
//! without a supervisor, in both parallelism modes. Its digest covers all
//! eight `Stats` model fields, the event log (as two lists: its
//! recoveries and its supervision actions), the quarantined and faulted
//! machine sets, the provenance flows, and the result (sum or error
//! variant). The digests are pinned constants, so any
//! refactor of the fault machinery must reproduce every ledger bit for
//! bit. The digest itself is an envelope checksum, and a few envelope
//! checksums are pinned directly, so the transport checksum is pinned too.

use csmpc_graph::rng::Seed;
use csmpc_mpc::{
    exact_aggregate_sum_with_faults, Cluster, ClusterEvent, Envelope, FaultPlan, Message,
    MpcConfig, ParallelismMode, RecoveryPolicy, SupervisorConfig,
};

/// A deep, narrow aggregation tree: `S = 4` words per machine and 256
/// machines, so the tree takes several rounds and checkpoints, partitions
/// and straggles all land inside the run.
fn golden_cluster(mode: ParallelismMode) -> Cluster {
    let cfg = MpcConfig {
        min_space: 4,
        parallelism: mode,
        ..MpcConfig::with_phi(0.3)
    };
    let mut cluster = Cluster::new(cfg, 64, 256, Seed(11));
    // Four components spread round-robin, so messages carry
    // cross-component provenance and quarantines taint components.
    for machine in 0..cluster.num_machines() {
        cluster.tag_machine(machine, (machine % 4) as u32);
    }
    cluster
}

/// Straggles (one past the supervisor deadline), a partition, and every
/// transport fault class — but no crash.
fn transport_plan() -> FaultPlan {
    FaultPlan::quiet(Seed(21))
        .straggle(1, 2, 5)
        .straggle(3, 3, 1)
        .partition(2, 2, vec![0, 1, 2])
        .with_message_faults(120, 80)
        .with_corruption(90)
        .with_reordering(250)
}

/// The transport plan plus three crashes on machine 1 (enough to cross
/// the default quarantine threshold) and one on machine 5.
fn crash_plan() -> FaultPlan {
    transport_plan()
        .crash(1, 2)
        .crash(1, 3)
        .crash(5, 4)
        .crash(1, 5)
        .straggle(2, 4, 4)
}

/// Two over-deadline straggles on machine 3 and then a crash on it: under
/// the default supervisor the crash crosses the quarantine threshold, and
/// the two layers order that against fail-fast differently.
fn threshold_plan() -> FaultPlan {
    FaultPlan::quiet(Seed(41))
        .straggle(3, 1, 4)
        .straggle(3, 2, 4)
        .crash(3, 3)
        .crash(6, 4)
}

/// Two crashes per round on fresh machines, plus a doubled crash event
/// on one machine: enough to exhaust an eight-retry budget.
fn storm_plan() -> FaultPlan {
    (0..10)
        .fold(FaultPlan::quiet(Seed(31)), |plan, i| {
            plan.crash(10 + i, 1 + i / 2)
        })
        .crash(7, 3)
        .crash(7, 3)
        .with_message_faults(50, 50)
}

const POLICIES: [(&str, RecoveryPolicy); 3] = [
    ("failfast", RecoveryPolicy::FailFast),
    (
        "restart8",
        RecoveryPolicy::RestartFromCheckpoint { max_retries: 8 },
    ),
    (
        "backoff8x1",
        RecoveryPolicy::RestartWithBackoff {
            max_retries: 8,
            base_backoff_rounds: 1,
        },
    ),
];

/// Folds a case record into one word: the record's bytes, packed into
/// little-endian words, sealed as an envelope addressed to the case index.
fn digest(case: usize, record: &str) -> u64 {
    let words = record
        .as_bytes()
        .chunks(8)
        .map(|chunk| {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(buf)
        })
        .collect();
    Envelope::checksum_of(&Message { to: case, words })
}

/// Everything a case pins, as one canonical string.
fn record(cluster: &Cluster, result: &str) -> String {
    let s = cluster.stats();
    let (mut recoveries, mut supervision) = (Vec::new(), Vec::new());
    for ev in cluster.events() {
        match ev {
            ClusterEvent::Recovery(r) => recoveries.push(r),
            other => supervision.push(other),
        }
    }
    format!(
        "stats=[{} {} {} {} {} {} {} {}] result={result} recovery={:?} supervision={:?} \
         quarantined={:?} faulted={:?} flows={:?}",
        s.rounds,
        s.max_round_words,
        s.max_storage_words,
        s.total_words,
        s.recovery_rounds,
        s.recovery_words,
        s.speculative_rounds,
        s.corrupted_detected,
        recoveries,
        supervision,
        cluster.quarantined_machines(),
        cluster.faulted_machines(),
        cluster.provenance().flows(),
    )
}

fn run_engine(
    mode: ParallelismMode,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    sup: Option<SupervisorConfig>,
) -> String {
    let mut cluster = golden_cluster(mode);
    if let Some(sup) = sup {
        cluster.supervise(sup);
    }
    let values: Vec<u64> = (1..=300).collect();
    let result = exact_aggregate_sum_with_faults(&mut cluster, &values, plan, policy);
    record(&cluster, &format!("{result:?}"))
}

fn run_accounted(
    mode: ParallelismMode,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    sup: Option<SupervisorConfig>,
) -> String {
    let mut cluster = golden_cluster(mode);
    if let Some(sup) = sup {
        cluster.supervise(sup);
    }
    // A storage high-water mark, so re-shipped words are not the floor.
    cluster.charge_storage(0, 3).expect("fits");
    cluster.arm_faults(plan.clone(), policy);
    let mut result = Ok(());
    for _ in 0..12 {
        result = cluster.advance_rounds(2);
        if result.is_err() {
            break;
        }
    }
    record(&cluster, &format!("{result:?}"))
}

type Driver = fn(ParallelismMode, &FaultPlan, RecoveryPolicy, Option<SupervisorConfig>) -> String;

/// `(case name, pinned digest)` in matrix order: driver × plan × policy ×
/// supervisor.
const GOLDEN: [(&str, u64); 48] = [
    ("engine/transport/failfast/none", 0x218cd4d62e5a5b40),
    ("engine/transport/failfast/sup", 0x1f9a97494d5f62ef),
    ("engine/transport/restart8/none", 0x91c4a75f1f4d6c36),
    ("engine/transport/restart8/sup", 0x9f36d5f82d366e71),
    ("engine/transport/backoff8x1/none", 0xd9a5911882a8ba44),
    ("engine/transport/backoff8x1/sup", 0x0bf93e1c32f5ed5b),
    ("engine/crash/failfast/none", 0xdd38d40f264fa984),
    ("engine/crash/failfast/sup", 0x7c825aefca79dd00),
    ("engine/crash/restart8/none", 0x90b0d05ad5f10442),
    ("engine/crash/restart8/sup", 0xd4cb490f956b3614),
    ("engine/crash/backoff8x1/none", 0xc37c3b277d78b144),
    ("engine/crash/backoff8x1/sup", 0x55b9d8ad9f394b9e),
    ("engine/storm/failfast/none", 0x9be01ecf26e3e953),
    ("engine/storm/failfast/sup", 0x02dcf786afa91a02),
    ("engine/storm/restart8/none", 0x0e2a2ba8cb800409),
    ("engine/storm/restart8/sup", 0x41ef8df3784ba090),
    ("engine/storm/backoff8x1/none", 0x3c1fc8cfd9969ddd),
    ("engine/storm/backoff8x1/sup", 0x41dba998345a0e74),
    ("engine/threshold/failfast/none", 0x6d3d560bf4aa3343),
    ("engine/threshold/failfast/sup", 0xa827c749756467e1),
    ("engine/threshold/restart8/none", 0x763f416f63ef0353),
    ("engine/threshold/restart8/sup", 0x15f01ea0d70c18c1),
    ("engine/threshold/backoff8x1/none", 0x4fadce409c4eb65f),
    ("engine/threshold/backoff8x1/sup", 0x2f11a49d85187f24),
    ("accounted/transport/failfast/none", 0x8c4d4a7893a7b455),
    ("accounted/transport/failfast/sup", 0x1de14af664f1476e),
    ("accounted/transport/restart8/none", 0x0b2c46d831e57e9b),
    ("accounted/transport/restart8/sup", 0x4deb9c17ee26b6e0),
    ("accounted/transport/backoff8x1/none", 0xbc082f4b20765919),
    ("accounted/transport/backoff8x1/sup", 0x766df3caf9a76232),
    ("accounted/crash/failfast/none", 0xb45428989265356c),
    ("accounted/crash/failfast/sup", 0xa45a1df642260ed1),
    ("accounted/crash/restart8/none", 0x9ae339d14ee4f3b3),
    ("accounted/crash/restart8/sup", 0x3c2f9b3395b41725),
    ("accounted/crash/backoff8x1/none", 0x3f01799a07dbe17f),
    ("accounted/crash/backoff8x1/sup", 0x57aac44490cc5b7b),
    ("accounted/storm/failfast/none", 0xf01e00f2bc622e00),
    ("accounted/storm/failfast/sup", 0x1c14bcd338d36f65),
    ("accounted/storm/restart8/none", 0xb39d50bd6776f113),
    ("accounted/storm/restart8/sup", 0x0f24d52096149816),
    ("accounted/storm/backoff8x1/none", 0xee4884ac174360ec),
    ("accounted/storm/backoff8x1/sup", 0x8988336cddeb7761),
    ("accounted/threshold/failfast/none", 0x7c480fef1ea74356),
    ("accounted/threshold/failfast/sup", 0x28c04c2bf6ded04e),
    ("accounted/threshold/restart8/none", 0x9d35d2d657ed2470),
    ("accounted/threshold/restart8/sup", 0xb6ce0ba828f83ca3),
    ("accounted/threshold/backoff8x1/none", 0x56767ab15042c53f),
    ("accounted/threshold/backoff8x1/sup", 0x1f78d570373949e7),
];

#[test]
fn fault_layers_reproduce_pinned_ledgers() {
    let drivers: [(&str, Driver); 2] = [("engine", run_engine), ("accounted", run_accounted)];
    let plans = [
        ("transport", transport_plan()),
        ("crash", crash_plan()),
        ("storm", storm_plan()),
        ("threshold", threshold_plan()),
    ];
    let sups = [("none", None), ("sup", Some(SupervisorConfig::default()))];
    let mut actual = Vec::new();
    for (driver_name, driver) in drivers {
        for (plan_name, plan) in &plans {
            for (policy_name, policy) in POLICIES {
                for (sup_name, sup) in sups {
                    let name = format!("{driver_name}/{plan_name}/{policy_name}/{sup_name}");
                    let seq = driver(ParallelismMode::Sequential, plan, policy, sup);
                    let par = driver(ParallelismMode::Parallel, plan, policy, sup);
                    assert_eq!(seq, par, "{name}: sequential and parallel runs differ");
                    actual.push((name, digest(actual.len(), &seq)));
                }
            }
        }
    }
    let names: Vec<&str> = GOLDEN.iter().map(|(name, _)| *name).collect();
    let actual_names: Vec<&str> = actual.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, actual_names, "case matrix drifted");
    let drifted: Vec<&str> = GOLDEN
        .iter()
        .zip(&actual)
        .filter(|((_, want), (_, got))| want != got)
        .map(|((name, _), _)| *name)
        .collect();
    assert!(
        drifted.is_empty(),
        "ledgers drifted in {drifted:?}; actual table:\n{}",
        actual
            .iter()
            .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn envelope_checksums_are_pinned() {
    let msg = Message {
        to: 3,
        words: vec![11, 22, 33],
    };
    let empty = Message {
        to: 0,
        words: Vec::new(),
    };
    let got = [
        Envelope::seal(msg.clone()).checksum(),
        Envelope::checksum_of(&empty),
        Envelope::tampered_checksum_of(&msg, 1, 0x8000_0000_0000_0001),
    ];
    assert_eq!(
        got,
        [
            0x4a3f_6905_9137_7499,
            0x8820_1fb9_60ff_6465,
            0x51c0_dd43_2016_79d8
        ],
        "{got:#018x?}"
    );
    assert!(!Envelope::seal(msg)
        .tampered(1, 0x8000_0000_0000_0001)
        .verify());
}
