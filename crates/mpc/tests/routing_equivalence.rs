//! Property proof that the counting-sort message fabric routes exactly
//! like the retired sort-based router.
//!
//! [`RouteArena::scatter`] replaced an index sort by `(to, index)` on the
//! engine's per-round hot path. Everything downstream — transport coin
//! draws, Envelope sequencing, corruption detection, checkpoint capture —
//! observes messages only through the grouped buffer and its per-machine
//! ranges, so *element-for-element* equality of `(buf, ranges)` against
//! the old router is the whole correctness obligation. These tests check
//! it over random machine counts and message multisets (duplicate
//! destinations, self-sends, empty rounds, single-machine clusters) plus
//! the structured edge cases, using [`reference::scatter`] as the oracle.

use csmpc_mpc::route::RouteArena;
use csmpc_mpc::Message;
use proptest::collection;
use proptest::prelude::*;

/// The retired sort-based router, kept as the oracle the counting-sort
/// fabric is tested against.
mod reference {
    use csmpc_mpc::Message;

    /// Routes `incoming` exactly as the pre-fabric engine did: index sort
    /// by `(to, index)` (the index tie-break makes it stable per
    /// destination), payloads moved into a fresh buffer, per-machine
    /// ranges swept out of the sorted result. O(len log len).
    pub fn scatter(
        machines: usize,
        incoming: &mut Vec<Message>,
    ) -> (Vec<Message>, Vec<(usize, usize)>) {
        let mut order: Vec<usize> = (0..incoming.len()).collect();
        order.sort_unstable_by_key(|&i| (incoming[i].to, i));
        let buf: Vec<Message> = order
            .iter()
            .map(|&i| Message {
                to: incoming[i].to,
                words: std::mem::take(&mut incoming[i].words),
            })
            .collect();
        incoming.clear();
        let mut ranges = vec![(0, 0); machines];
        let mut lo = 0usize;
        for (id, range) in ranges.iter_mut().enumerate() {
            let mut hi = lo;
            while hi < buf.len() && buf[hi].to == id {
                hi += 1;
            }
            *range = (lo, hi);
            lo = hi;
        }
        (buf, ranges)
    }
}

/// Builds a message batch from raw draws: destination reduced mod
/// `machines`, payload length and contents derived from the draw so
/// duplicates collide on `to` but still carry distinguishable words.
fn batch(machines: usize, raws: &[u64]) -> Vec<Message> {
    raws.iter()
        .enumerate()
        .map(|(i, &raw)| Message {
            to: (raw % machines as u64) as usize,
            words: (0..(raw % 4)).map(|k| raw ^ (i as u64) ^ k).collect(),
        })
        .collect()
}

/// Asserts the fabric and the oracle agree on `machines` × `raws`.
fn assert_equivalent(machines: usize, raws: &[u64]) {
    let msgs = batch(machines, raws);
    let mut arena = RouteArena::new(machines);
    let mut fabric_in = msgs.clone();
    arena.scatter(&mut fabric_in);
    assert!(
        fabric_in.is_empty(),
        "scatter must drain the staging buffer"
    );
    let mut oracle_in = msgs;
    let (oracle_buf, oracle_ranges) = reference::scatter(machines, &mut oracle_in);
    assert_eq!(arena.buf, oracle_buf, "grouped buffers diverged");
    assert_eq!(arena.ranges, oracle_ranges, "delivery ranges diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn fabric_matches_sort_oracle_on_random_multisets(
        machines in 1usize..12,
        raws in collection::vec(0u64..=u64::MAX, 0..64),
    ) {
        let msgs = batch(machines, &raws);
        let mut arena = RouteArena::new(machines);
        let mut fabric_in = msgs.clone();
        arena.scatter(&mut fabric_in);
        prop_assert!(fabric_in.is_empty());
        let mut oracle_in = msgs;
        let (oracle_buf, oracle_ranges) = reference::scatter(machines, &mut oracle_in);
        prop_assert_eq!(&arena.buf, &oracle_buf);
        prop_assert_eq!(&arena.ranges, &oracle_ranges);
    }

    #[test]
    fn warm_arena_reuse_matches_oracle_across_rounds(
        machines in 1usize..8,
        first in collection::vec(0u64..=u64::MAX, 0..32),
        second in collection::vec(0u64..=u64::MAX, 0..32),
    ) {
        // The engine reuses one arena across rounds; a stale histogram or
        // range from round 1 must not leak into round 2's grouping.
        let mut arena = RouteArena::new(machines);
        let mut warmup = batch(machines, &first);
        arena.scatter(&mut warmup);
        let msgs = batch(machines, &second);
        let mut fabric_in = msgs.clone();
        arena.scatter(&mut fabric_in);
        let mut oracle_in = msgs;
        let (oracle_buf, oracle_ranges) = reference::scatter(machines, &mut oracle_in);
        prop_assert_eq!(&arena.buf, &oracle_buf);
        prop_assert_eq!(&arena.ranges, &oracle_ranges);
    }
}

#[test]
fn empty_round_matches_oracle() {
    assert_equivalent(5, &[]);
}

#[test]
fn single_machine_cluster_funnels_everything_in_arrival_order() {
    assert_equivalent(1, &[3, 1, 4, 1, 5, 9, 2, 6]);
}

#[test]
fn all_messages_to_one_destination() {
    let raws: Vec<u64> = (0..20).map(|i| 7 + i * 11).collect();
    // dest = raw % 1 collapses every message onto machine 0 of 1; also
    // check the same multiset against a wider cluster where machine 3
    // gets everything (self-send shape: a machine routing to itself).
    assert_equivalent(1, &raws);
    let to_three: Vec<u64> = (0..20).map(|_| 3).collect();
    assert_equivalent(9, &to_three);
}

#[test]
fn duplicate_payloads_keep_arrival_order_per_destination() {
    // Identical (to, words) pairs are only distinguishable by arrival
    // order — exactly what stability must preserve.
    assert_equivalent(4, &[8, 8, 8, 4, 4, 8, 12, 0, 0, 12]);
}

#[test]
fn matches_reference_on_a_mixed_batch() {
    let msg = |to: usize, words: &[u64]| Message {
        to,
        words: words.to_vec(),
    };
    let batch = vec![
        msg(1, &[9, 9]),
        msg(0, &[]),
        msg(1, &[7]),
        msg(3, &[3]),
        msg(0, &[4, 5, 6]),
        msg(1, &[8]),
    ];
    let mut arena = RouteArena::new(4);
    let mut a_in = batch.clone();
    arena.scatter(&mut a_in);
    let mut r_in = batch;
    let (r_buf, r_ranges) = reference::scatter(4, &mut r_in);
    assert_eq!(arena.buf, r_buf);
    assert_eq!(arena.ranges, r_ranges);
}
