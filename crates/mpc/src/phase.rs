//! Phase-timing observability for the engine hot paths.
//!
//! The exact engine's round loop divides into *route* (sorting pending
//! messages into per-machine delivery ranges, plus straggler carry),
//! *intake* (receive-cap enforcement and reorder faults), *step* (the
//! per-machine round callbacks), *merge* (send caps, ledger deltas, tag
//! propagation, transport coins), and *checkpoint* (snapshot capture and
//! restore). [`PhaseTimes`] attributes wall-clock time to each so a perf
//! regression is attributable to a phase rather than a geomean.
//!
//! The accounted layer books into the same fields: graph placement
//! (`scale::ingest`, `DistributedGraph::distribute`) into `route`, and
//! every per-vertex sweep into `step`, through one crate-private
//! `Cluster::time_step` that each primitive calls after charging its
//! rounds.
//!
//! Timings are **observability only**: a cluster keeps them beside its
//! [`crate::Stats`] ledger ([`crate::Cluster::phase_times`]); they never
//! feed any algorithmic decision or touch the model's observables (labels,
//! charges, round counts). That is why the wall-clock reads below carry
//! conformance suppressions — replayability (Definition 9) concerns the
//! simulated execution, not how long the host took to run it.
//!
//! With the `alloc-count` feature process-wide allocation and live-byte
//! counters are also available (the `counting_alloc` module); the
//! `steady_state_alloc` test installs them to assert allocation-free warm
//! rounds and repetitions, and reads the live-byte high-water mark for
//! its memory gate.

use std::fmt;
// Wall-clock handle for phase attribution; see the module docs for why
// this is exempt from the replayability rule.
// csmpc-allow(nondeterminism): wall-clock phase timing, excluded from every ledger and fingerprint
use std::time::Instant;

/// Cumulative wall-clock attribution of engine work, in nanoseconds.
///
/// Kept by the cluster beside its [`crate::Stats`] ledger, so
/// bit-identity comparisons of ledgers (seq vs par, replay determinism)
/// never see host timing noise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Sorting pending messages into per-machine delivery ranges,
    /// retransmission/partition-heal delivery, and straggler carry — plus,
    /// on the accounted layer, graph distribution.
    pub route_ns: u64,
    /// Inbox receive-cap enforcement and reorder-fault application.
    pub intake_ns: u64,
    /// Per-machine round callbacks — and, on the accounted layer, the
    /// per-vertex sweeps (ball collection, label updates). On the scale
    /// path this includes each kernel's convergence check, which the
    /// sweep itself answers.
    pub step_ns: u64,
    /// Send caps, storage charges, ledger-delta absorption, component-tag
    /// propagation, transport coins, and outbox staging. The scale
    /// kernels record 0 here.
    pub merge_ns: u64,
    /// Checkpoint capture and restore.
    pub checkpoint_ns: u64,
}

impl PhaseTimes {
    /// Sums another attribution into this one (saturating).
    pub fn absorb(&mut self, other: &PhaseTimes) {
        self.route_ns = self.route_ns.saturating_add(other.route_ns);
        self.intake_ns = self.intake_ns.saturating_add(other.intake_ns);
        self.step_ns = self.step_ns.saturating_add(other.step_ns);
        self.merge_ns = self.merge_ns.saturating_add(other.merge_ns);
        self.checkpoint_ns = self.checkpoint_ns.saturating_add(other.checkpoint_ns);
    }

    /// Total attributed nanoseconds across all phases.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.route_ns
            .saturating_add(self.intake_ns)
            .saturating_add(self.step_ns)
            .saturating_add(self.merge_ns)
            .saturating_add(self.checkpoint_ns)
    }

    /// `true` when no phase has recorded any time.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.total_ns() == 0
    }
}

impl fmt::Display for PhaseTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "route={}ns, intake={}ns, step={}ns, merge={}ns, checkpoint={}ns",
            self.route_ns, self.intake_ns, self.step_ns, self.merge_ns, self.checkpoint_ns
        )
    }
}

/// A started phase stopwatch; read it with [`PhaseTimer::elapsed_ns`].
#[derive(Debug, Clone, Copy)]
pub struct PhaseTimer {
    // csmpc-allow(nondeterminism): wall-clock phase timer, kept outside the Stats ledger
    started: Instant,
}

impl PhaseTimer {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        PhaseTimer {
            // csmpc-allow(nondeterminism): wall-clock phase timer, kept outside the Stats ledger
            started: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`PhaseTimer::start`], clamped to `u64`.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Process-wide allocation and live-byte counters, available behind the
/// `alloc-count` feature. A binary opts in by installing the allocator:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: csmpc_mpc::phase::counting_alloc::CountingAllocator =
///     csmpc_mpc::phase::counting_alloc::CountingAllocator;
/// ```
///
/// and then reads deltas of
/// [`allocations`](counting_alloc::allocations) around a workload, or the
/// high-water mark of [`live_bytes`](counting_alloc::live_bytes) since
/// [`reset_peak`](counting_alloc::reset_peak) through
/// [`peak_bytes`](counting_alloc::peak_bytes).
#[cfg(feature = "alloc-count")]
pub mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
    static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

    /// Pass-through system allocator that counts every allocation and the
    /// bytes held.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct CountingAllocator;

    // SAFETY: delegates directly to `System`; the counters have no effect
    // on the returned memory.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            let size = layout.size() as u64;
            let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
            // SAFETY: forwarded verbatim; caller upholds `GlobalAlloc`'s
            // contract for `layout`.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            // SAFETY: forwarded verbatim; `ptr` was produced by the same
            // `System` allocator with this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    /// Allocations observed so far, process-wide.
    #[must_use]
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Heap bytes allocated and not yet freed, process-wide.
    #[must_use]
    pub fn live_bytes() -> u64 {
        LIVE_BYTES.load(Ordering::Relaxed)
    }

    /// The most [`live_bytes`] seen since the last [`reset_peak`] (or
    /// since start-up).
    #[must_use]
    pub fn peak_bytes() -> u64 {
        PEAK_BYTES.load(Ordering::Relaxed)
    }

    /// Restarts the high-water mark at the current [`live_bytes`].
    pub fn reset_peak() {
        PEAK_BYTES.store(live_bytes(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_all_phases() {
        let mut a = PhaseTimes {
            route_ns: 1,
            intake_ns: 2,
            step_ns: 3,
            merge_ns: 4,
            checkpoint_ns: 5,
        };
        let b = PhaseTimes {
            route_ns: 10,
            intake_ns: 20,
            step_ns: 30,
            merge_ns: 40,
            checkpoint_ns: u64::MAX,
        };
        a.absorb(&b);
        assert_eq!(a.route_ns, 11);
        assert_eq!(a.intake_ns, 22);
        assert_eq!(a.step_ns, 33);
        assert_eq!(a.merge_ns, 44);
        assert_eq!(a.checkpoint_ns, u64::MAX, "saturates, never wraps");
        assert!(!a.is_zero());
        assert_eq!(PhaseTimes::default().total_ns(), 0);
        assert!(PhaseTimes::default().is_zero());
    }

    #[test]
    fn timer_is_monotone() {
        let t = PhaseTimer::start();
        let first = t.elapsed_ns();
        let second = t.elapsed_ns();
        assert!(second >= first);
    }
}
