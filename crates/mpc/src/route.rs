//! Counting-sort message fabric: the engine's per-round routing hot path.
//!
//! Every round of every algorithm in the paper is "local compute, then
//! deliver at most S = n^phi words per machine", so the cost of grouping
//! in-flight messages by destination multiplies directly into every
//! round count the bench suite reports. The previous router index-sorted
//! the staging buffer by `(to, index)` — O(m log m) comparisons per
//! round. Destinations are machine ids in `0..M`, a dense key space, so
//! a two-pass counting sort does the same grouping in O(m + M):
//!
//! 1. **Count**: one pass over the staging buffer increments a reused
//!    `Vec<u32>` histogram slot per destination machine.
//! 2. **Scan + scatter**: an exclusive prefix scan turns the histogram
//!    into per-machine delivery ranges and write cursors in place; a
//!    second pass moves each payload into its cursor slot.
//!
//! **Stability.** Counting sort is stable by construction: pass 2 visits
//! the staging buffer in arrival order and each destination's cursor
//! only moves forward, so per-destination arrival order — the only order
//! a machine can observe — is exactly what the index tie-break of the
//! sort-based router produced. The sort-based router is kept as the
//! oracle of `tests/routing_equivalence.rs`, which proves the two produce
//! element-for-element identical buffers and ranges over random message
//! multisets.
//!
//! **Arena lifetimes.** All three spines (`buf`, `ranges`, `counts`)
//! live in one [`RouteArena`] hoisted outside the engine's round loop,
//! alongside the step-result and tag arenas: after a warm-up round they
//! reach steady-state capacity and the fabric allocates nothing at fixed
//! topology (`tests/steady_state_alloc.rs` counts). The staging buffer
//! and `buf` double-buffer each other across rounds exactly as before.
//!
//! **Transport coins are unchanged.** The fabric only *groups* messages;
//! drop/corrupt/duplicate coins are drawn in the merge phase in machine
//! and send order, and the reorder coin is drawn per non-empty inbox in
//! machine order — all downstream of (and unperturbed by) how the
//! grouping was computed. Identical per-destination order therefore
//! implies a draw-for-draw identical coin stream, which the chaos and
//! equivalence suites fingerprint before/after.

use crate::cluster::Message;

/// Reusable counting-sort routing arena: one per engine execution,
/// hoisted outside the round loop.
#[derive(Debug, Default)]
pub struct RouteArena {
    /// Destination-grouped routing buffer. Machine `id`'s inbox for the
    /// round is the contiguous `buf[ranges[id].0..ranges[id].1]` slice.
    pub buf: Vec<Message>,
    /// Per-machine `(lo, hi)` delivery ranges over [`RouteArena::buf`].
    pub ranges: Vec<(usize, usize)>,
    /// Per-destination histogram, reused as write cursors during the
    /// scatter pass (cursor `id` starts at `ranges[id].0` and ends at
    /// `ranges[id].1`).
    counts: Vec<u32>,
}

impl RouteArena {
    /// An arena routing to `machines` destinations.
    #[must_use]
    pub fn new(machines: usize) -> Self {
        RouteArena {
            buf: Vec::new(),
            ranges: vec![(0, 0); machines],
            counts: vec![0; machines],
        }
    }

    /// Number of destination machines the arena routes to.
    #[must_use]
    pub fn machines(&self) -> usize {
        self.ranges.len()
    }

    // #[csmpc_hot]
    /// Groups `incoming` by destination into the arena: counting-sort
    /// scatter, stable per destination, O(len + machines), allocation-free
    /// once the spines are warm. Payloads are *moved* (`incoming` is left
    /// empty with its spine intact); the previous round's delivered
    /// payloads in `buf` are dropped, exactly as the sort-based router's
    /// `route.clear()` did.
    ///
    /// Every `incoming[i].to` must be `< self.machines()` — the engine
    /// validates destinations at send time (`MpcError::UnknownMachine`).
    pub fn scatter(&mut self, incoming: &mut Vec<Message>) {
        // Pass 1: histogram of messages per destination.
        self.counts.fill(0);
        for msg in incoming.iter() {
            debug_assert!(msg.to < self.ranges.len(), "unvalidated destination");
            self.counts[msg.to] += 1;
        }
        // Exclusive prefix scan, in place: `ranges` becomes the delivery
        // ranges and `counts[id]` becomes machine `id`'s write cursor.
        let mut lo = 0usize;
        for (range, count) in self.ranges.iter_mut().zip(self.counts.iter_mut()) {
            let hi = lo + *count as usize;
            *range = (lo, hi);
            *count = lo as u32;
            lo = hi;
        }
        // Pass 2: scatter in arrival order. Each destination's cursor only
        // moves forward, so per-destination arrival order is preserved —
        // counting sort's stability, by construction. The placeholder
        // `Message`s written by `resize_with` carry an empty `Vec` (no
        // heap block), so refilling a warm spine allocates nothing.
        self.buf.clear();
        self.buf.resize_with(incoming.len(), || Message {
            to: 0,
            words: Vec::new(),
        });
        for msg in incoming.iter_mut() {
            let slot = self.counts[msg.to] as usize;
            self.counts[msg.to] += 1;
            self.buf[slot] = Message {
                to: msg.to,
                words: std::mem::take(&mut msg.words),
            };
        }
        incoming.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(to: usize, words: &[u64]) -> Message {
        Message {
            to,
            words: words.to_vec(),
        }
    }

    #[test]
    fn scatter_groups_by_destination_preserving_arrival_order() {
        let mut arena = RouteArena::new(3);
        let mut incoming = vec![
            msg(2, &[20]),
            msg(0, &[1]),
            msg(2, &[21]),
            msg(0, &[2]),
            msg(2, &[22]),
        ];
        arena.scatter(&mut incoming);
        assert!(incoming.is_empty());
        assert_eq!(arena.ranges, vec![(0, 2), (2, 2), (2, 5)]);
        let words: Vec<u64> = arena.buf.iter().map(|m| m.words[0]).collect();
        assert_eq!(words, vec![1, 2, 20, 21, 22]);
        assert!(arena.buf.iter().map(|m| m.to).eq([0, 0, 2, 2, 2]));
    }

    #[test]
    fn empty_round_yields_empty_ranges() {
        let mut arena = RouteArena::new(4);
        let mut incoming = Vec::new();
        arena.scatter(&mut incoming);
        assert_eq!(arena.ranges, vec![(0, 0); 4]);
        assert!(arena.buf.is_empty());
    }
}
