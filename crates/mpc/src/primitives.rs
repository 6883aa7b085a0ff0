//! Data-parallel MPC primitives beyond graphs: sorting, prefix sums, and a
//! *genuinely distributed* aggregation tree executed on the exact engine.
//!
//! Sorting and prefix sums are the `O(1/φ)`-round workhorses of low-space
//! MPC (Goodrich-style sample sort; tree scans); the accounted versions
//! charge those costs. The exact aggregation exists to validate the charged
//! costs against a real message-by-message execution — including under
//! injected faults: [`exact_aggregate_sum_with_faults`] runs the same tree
//! program through [`Cluster::run_program_with_faults`], and its
//! [`MachineProgram::snapshot`]/`restore` implementation makes it
//! recoverable from checkpoints.

use crate::cluster::{Cluster, MachineProgram, Message, MpcError};
use crate::faults::{FaultPlan, RecoveryPolicy};

/// Sorts `keys` and returns `(sorted, rank_of_input)` where
/// `rank_of_input[i]` is the position of `keys[i]` in the sorted order
/// (ties broken by input index). Charges `2·d` rounds (sample-sort:
/// splitter broadcast + routed exchange).
///
/// # Errors
///
/// [`MpcError::MachineFailed`] from an armed fault plan.
#[allow(clippy::type_complexity)]
pub fn sort_keys(cluster: &mut Cluster, keys: &[u64]) -> Result<(Vec<u64>, Vec<usize>), MpcError> {
    let d = cluster.tree_depth();
    cluster.advance_rounds(2 * d)?;
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| (keys[i], i));
    let mut rank = vec![0usize; keys.len()];
    for (r, &i) in order.iter().enumerate() {
        rank[i] = r;
    }
    let sorted = order.iter().map(|&i| keys[i]).collect();
    Ok((sorted, rank))
}

/// Exclusive prefix sums: `out[i] = Σ_{j<i} values[j]`. Charges `2·d`
/// rounds (up-sweep + down-sweep over the machine tree).
///
/// # Errors
///
/// [`MpcError::MachineFailed`] from an armed fault plan.
pub fn prefix_sums(cluster: &mut Cluster, values: &[u64]) -> Result<Vec<u64>, MpcError> {
    let d = cluster.tree_depth();
    cluster.advance_rounds(2 * d)?;
    let mut out = Vec::with_capacity(values.len());
    let mut acc = 0u64;
    for &v in values {
        out.push(acc);
        acc += v;
    }
    Ok(out)
}

/// One machine's shard of an `S`-ary sum tree for the exact engine: the
/// machine accumulates its children's partial sums and forwards one word to
/// its parent; the total arrives at machine 0.
struct TreeSum {
    fan_in: usize,
    acc: u64,
    /// Children this machine waits for in the complete `fan_in`-ary tree.
    expected: usize,
    received: usize,
    sent: bool,
}

impl TreeSum {
    fn parent(&self, id: usize) -> usize {
        (id - 1) / self.fan_in
    }
}

impl MachineProgram for TreeSum {
    fn round(&mut self, id: usize, inbox: &[Message]) -> Vec<Message> {
        for m in inbox {
            self.acc += m.words.iter().sum::<u64>();
            self.received += 1;
        }
        if id != 0 && !self.sent && self.received == self.expected {
            self.sent = true;
            return vec![Message {
                to: self.parent(id),
                words: vec![self.acc],
            }];
        }
        Vec::new()
    }
    fn storage_words(&self) -> usize {
        4
    }
    fn snapshot(&self) -> Vec<u64> {
        // The mutable state is (acc, received, sent); fan_in / expected are
        // static configuration.
        vec![self.acc, self.received as u64, u64::from(self.sent)]
    }
    fn restore(&mut self, snapshot: &[u64]) {
        assert_eq!(snapshot.len(), 3, "malformed TreeSum snapshot");
        self.acc = snapshot[0];
        self.received = snapshot[1] as usize;
        self.sent = snapshot[2] != 0;
    }
}

/// An `S`-ary aggregation tree over machines, executed message-by-message
/// on the exact engine: each machine holds one value; the sum arrives at
/// machine 0. Returns `(sum, rounds_used)`.
///
/// # Errors
///
/// Propagates engine errors (bandwidth/space violations).
pub fn exact_aggregate_sum(
    cluster: &mut Cluster,
    values: &[u64],
) -> Result<(u64, usize), MpcError> {
    let quiet = FaultPlan::quiet(cluster.shared_seed());
    exact_aggregate_sum_with_faults(cluster, values, &quiet, RecoveryPolicy::FailFast)
}

/// [`exact_aggregate_sum`] under a fault plan: the tree program carries a
/// full [`MachineProgram::snapshot`]/`restore` implementation, so crashes
/// under [`RecoveryPolicy::RestartFromCheckpoint`] recover to the correct
/// sum while the recovery shows up in the ledger.
///
/// # Errors
///
/// Engine violations, plus [`MpcError::MachineFailed`] for unrecoverable
/// crashes.
pub fn exact_aggregate_sum_with_faults(
    cluster: &mut Cluster,
    values: &[u64],
    plan: &FaultPlan,
    policy: RecoveryPolicy,
) -> Result<(u64, usize), MpcError> {
    let machines = cluster.num_machines();
    let fan_in = cluster.config().tree_fan_in(cluster.input_n()).min(
        // Keep received words per machine within S.
        cluster.local_space().max(2),
    );
    let mut acc = vec![0u64; machines];
    for (i, &v) in values.iter().enumerate() {
        acc[i % machines] += v;
    }
    let mut shards: Vec<TreeSum> = acc
        .into_iter()
        .enumerate()
        .map(|(id, acc)| {
            let first = id * fan_in + 1;
            let expected = if first >= machines {
                0
            } else {
                (machines - first).min(fan_in)
            };
            TreeSum {
                fan_in,
                acc,
                expected,
                received: 0,
                sent: false,
            }
        })
        .collect();
    // Leaves with no children must be able to send in round 1; internal
    // nodes wait for all children. Depth ≤ log_fan_in(machines) + 1, with
    // generous headroom for straggler stalls and recovery replays.
    let before = cluster.stats().rounds;
    cluster.run_program_with_faults(&mut shards, Vec::new(), 8 * machines + 64, plan, policy)?;
    let rounds = cluster.stats().rounds - before;
    Ok((shards[0].acc, rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;
    use csmpc_graph::rng::Seed;

    fn small_cluster() -> Cluster {
        Cluster::new(MpcConfig::with_phi(0.5), 400, 800, Seed(1))
    }

    #[test]
    fn sort_ranks_consistent() {
        let mut cl = small_cluster();
        let keys = vec![30u64, 10, 20, 10, 50];
        let (sorted, rank) = sort_keys(&mut cl, &keys).unwrap();
        assert_eq!(sorted, vec![10, 10, 20, 30, 50]);
        assert_eq!(rank, vec![3, 0, 2, 1, 4]);
        assert!(cl.stats().rounds >= 2);
    }

    #[test]
    fn prefix_sums_exclusive() {
        let mut cl = small_cluster();
        let out = prefix_sums(&mut cl, &[3, 1, 4, 1, 5]).unwrap();
        assert_eq!(out, vec![0, 3, 4, 8, 9]);
    }

    #[test]
    fn exact_tree_sum_correct() {
        let mut cl = small_cluster();
        let values: Vec<u64> = (1..=100).collect();
        let (sum, rounds) = exact_aggregate_sum(&mut cl, &values).unwrap();
        assert_eq!(sum, 5050);
        // Depth of the S-ary tree over M machines, plus a quiescence round.
        let m = cl.num_machines();
        let s = cl.local_space();
        let depth = ((m as f64).ln() / (s as f64).ln()).ceil().max(1.0) as usize;
        assert!(
            rounds <= 3 * (depth + 2),
            "rounds {rounds} too high for depth {depth} (M={m}, S={s})"
        );
    }

    #[test]
    fn exact_tree_sum_matches_charged_depth() {
        // The accounted tree_depth and the measured exact rounds agree to a
        // small constant — the cross-validation of the charging discipline.
        let mut cl = small_cluster();
        let (_, rounds) = exact_aggregate_sum(&mut cl, &[7; 32]).unwrap();
        let charged = cl.tree_depth();
        assert!(
            rounds <= 3 * charged + 4,
            "measured {rounds} vs charged {charged}"
        );
    }

    #[test]
    fn empty_values_sum_zero() {
        let mut cl = small_cluster();
        let (sum, _) = exact_aggregate_sum(&mut cl, &[]).unwrap();
        assert_eq!(sum, 0);
    }

    #[test]
    fn tree_sum_snapshot_round_trips() {
        let mut a = TreeSum {
            fan_in: 2,
            acc: 5,
            expected: 2,
            received: 1,
            sent: false,
        };
        let snap = a.snapshot();
        a.acc = 0;
        a.received = 9;
        a.sent = true;
        a.restore(&snap);
        assert_eq!(a.acc, 5);
        assert_eq!(a.received, 1);
        assert!(!a.sent);
    }

    #[test]
    fn exact_sum_survives_crash_with_recovery() {
        let values: Vec<u64> = (1..=100).collect();

        let mut clean = small_cluster();
        let (sum_clean, _) = exact_aggregate_sum(&mut clean, &values).unwrap();
        let clean_stats = clean.stats().clone();

        let mut faulty = small_cluster();
        let plan = FaultPlan::quiet(Seed(77)).crash(1, 2);
        let (sum_faulty, _) = exact_aggregate_sum_with_faults(
            &mut faulty,
            &values,
            &plan,
            RecoveryPolicy::restart(3),
        )
        .unwrap();

        assert_eq!(sum_clean, 5050);
        assert_eq!(sum_faulty, 5050, "recovery must reconstruct the sum");
        assert!(matches!(
            faulty.events(),
            [crate::ClusterEvent::Recovery(_)]
        ));
        assert!(
            faulty.stats().rounds > clean_stats.rounds
                && faulty.stats().total_words > clean_stats.total_words,
            "recovery is never free: {} vs {}",
            faulty.stats(),
            clean_stats
        );
    }

    #[test]
    fn exact_sum_fail_fast_crash_errors() {
        let mut cl = small_cluster();
        let plan = FaultPlan::quiet(Seed(77)).crash(1, 2);
        let err =
            exact_aggregate_sum_with_faults(&mut cl, &[1, 2, 3], &plan, RecoveryPolicy::FailFast)
                .unwrap_err();
        assert!(matches!(err, MpcError::MachineFailed { machine: 1, .. }));
    }
}
