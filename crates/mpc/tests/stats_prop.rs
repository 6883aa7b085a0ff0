//! Property tests for the merge algebra of [`Stats::absorb`].
//!
//! The parallel engine reduces per-machine `Stats` deltas into the round
//! ledger; the claim that the merged ledger is independent of machine
//! *grouping* (and would be independent of order, were the merge ever
//! reordered) rests on `absorb` being associative and commutative —
//! including at the saturation boundary, where `saturating_add` clamps.
//! These tests exercise exactly that algebra over randomized delta sets
//! with boundary values mixed in.

use csmpc_mpc::Stats;
use proptest::collection;
use proptest::prelude::*;

/// Builds a delta from four raw draws, stretching a fraction of them to
/// the saturation boundary so the clamped arms are covered too.
fn delta(raw: (u64, u64, u64, u64)) -> Stats {
    fn stretch(x: u64) -> u64 {
        if x.is_multiple_of(13) {
            u64::MAX - (x % 3)
        } else {
            x
        }
    }
    Stats {
        rounds: stretch(raw.0) as usize,
        max_round_words: stretch(raw.1) as usize,
        max_storage_words: stretch(raw.2) as usize,
        total_words: stretch(raw.3),
        // The overlay counters obey the same saturating-add algebra; fold
        // the same draws back in (rotated) so they hit the boundary too.
        recovery_rounds: stretch(raw.3) as usize,
        recovery_words: stretch(raw.0.rotate_left(7)),
        speculative_rounds: stretch(raw.1.rotate_left(3)) as usize,
        corrupted_detected: stretch(raw.2.rotate_left(5)),
    }
}

/// Left fold of `absorb` over `deltas` starting from the zero ledger.
fn fold(deltas: &[Stats]) -> Stats {
    let mut acc = Stats::default();
    for d in deltas {
        acc.absorb(d);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn absorb_is_commutative(
        a in (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
        b in (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
    ) {
        let (da, db) = (delta(a), delta(b));
        let mut ab = da.clone();
        ab.absorb(&db);
        let mut ba = db.clone();
        ba.absorb(&da);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn absorb_is_associative(
        a in (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
        b in (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
        c in (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
    ) {
        let (da, db, dc) = (delta(a), delta(b), delta(c));
        // (a ⊕ b) ⊕ c
        let mut left = da.clone();
        left.absorb(&db);
        left.absorb(&dc);
        // a ⊕ (b ⊕ c)
        let mut bc = db.clone();
        bc.absorb(&dc);
        let mut right = da.clone();
        right.absorb(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn shuffled_merge_orders_agree(
        raws in collection::vec(
            (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
            0..12,
        ),
        swaps in collection::vec((0u64..64, 0u64..64), 0..24),
    ) {
        let deltas: Vec<Stats> = raws.into_iter().map(delta).collect();
        let forward = fold(&deltas);

        // Reversed order.
        let reversed: Vec<Stats> = deltas.iter().rev().cloned().collect();
        prop_assert_eq!(&forward, &fold(&reversed));

        // Arbitrary transposition-shuffled order.
        let mut shuffled = deltas.clone();
        if !shuffled.is_empty() {
            let n = shuffled.len() as u64;
            for &(i, j) in &swaps {
                shuffled.swap((i % n) as usize, (j % n) as usize);
            }
        }
        prop_assert_eq!(&forward, &fold(&shuffled));

        // Pairwise tree-shaped grouping (the reduction shape a parallel
        // reducer would use).
        let mut level = deltas;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                let mut merged = pair[0].clone();
                if let Some(rhs) = pair.get(1) {
                    merged.absorb(rhs);
                }
                next.push(merged);
            }
            level = next;
        }
        let tree = level.into_iter().next().unwrap_or_default();
        prop_assert_eq!(&forward, &tree);
    }

    #[test]
    fn absorb_saturates_without_wrapping(
        a in (0u64..10, 0u64..10, 0u64..10, 0u64..10),
    ) {
        let maxed = Stats {
            rounds: usize::MAX,
            max_round_words: usize::MAX,
            max_storage_words: usize::MAX,
            total_words: u64::MAX,
            recovery_rounds: usize::MAX,
            recovery_words: u64::MAX,
            speculative_rounds: usize::MAX,
            corrupted_detected: u64::MAX,
        };
        let mut out = maxed.clone();
        out.absorb(&delta(a));
        prop_assert_eq!(out, maxed);
    }
}
