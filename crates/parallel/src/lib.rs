//! Deterministic parallel execution for the simulators.
//!
//! Every parallelizable sweep in the workspace (machine steps within an MPC
//! round, vertex sweeps in the LOCAL engines, seeded repetition loops in the
//! verifiers) goes through the helpers in this crate. They enforce one
//! contract:
//!
//! > **A parallel sweep is a pure per-item map whose results are
//! > materialized in item-index order.** Any cross-item merging (ledger
//! > absorption, message routing, witness collection, RNG consumption)
//! > happens afterwards, sequentially, in a fixed order.
//!
//! Under that contract [`ParallelismMode::Parallel`] is observationally
//! *bit-identical* to [`ParallelismMode::Sequential`] — the toggle only
//! changes wall-clock time — which is what keeps the replay, provenance,
//! and chaos-recovery guarantees intact. The `determinism` conformance lint
//! (crate `csmpc-conformance`) holds the simulator crates to the contract
//! by rejecting raw `par_iter` chains that do not end in an order-fixing
//! `collect`; the helpers here are the approved entry points.
//!
//! Parallel sweeps run on a persistent worker pool private to this crate,
//! started on the first parallel sweep that needs it. A sweep of `n` items
//! is cut into about `4 × workers` contiguous chunks; free threads (the
//! caller among them) claim chunks dynamically, and chunk `c` writes each
//! result straight into the output slot its index owns, so the output does
//! not depend on which thread ran which chunk.

#![warn(missing_docs)]

mod pool;

/// Number of worker threads a parallel sweep may use.
///
/// Resolved once per process, on first use: `RAYON_NUM_THREADS`, then
/// `CSMPC_WORKERS` (the first that parses to at least 1 wins), then
/// [`std::thread::available_parallelism`], else 1. With one worker every
/// sweep runs inline on the calling thread.
#[must_use]
pub fn current_num_threads() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        for var in ["RAYON_NUM_THREADS", "CSMPC_WORKERS"] {
            if let Ok(raw) = std::env::var(var) {
                if let Ok(n) = raw.trim().parse::<usize>() {
                    if n >= 1 {
                        return n;
                    }
                }
            }
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// How a simulator executes its internally parallelizable sweeps.
///
/// Both modes produce bit-identical results (outputs, `Stats` ledger,
/// provenance log, event log) for the same seed; the mode only affects
/// wall-clock time. Defaults to [`ParallelismMode::auto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelismMode {
    /// Plain index-order loops on the calling thread.
    Sequential,
    /// Chunked, order-preserving sweeps on the worker pool.
    Parallel,
}

impl ParallelismMode {
    /// [`ParallelismMode::Parallel`] when more than one worker thread is
    /// available ([`current_num_threads`]), else
    /// [`ParallelismMode::Sequential`].
    #[must_use]
    pub fn auto() -> Self {
        if current_num_threads() > 1 {
            ParallelismMode::Parallel
        } else {
            ParallelismMode::Sequential
        }
    }

    /// `true` for [`ParallelismMode::Parallel`].
    #[must_use]
    pub fn is_parallel(self) -> bool {
        self == ParallelismMode::Parallel
    }
}

impl Default for ParallelismMode {
    fn default() -> Self {
        ParallelismMode::auto()
    }
}

/// Items below this count run inline even in parallel mode — results are
/// identical either way (the parallel path is order-preserving); this only
/// avoids paying thread overhead on trivial sweeps.
const INLINE_CUTOFF: usize = 4;

/// Splits `len > 0` items into contiguous chunks: `(chunk_size,
/// chunk_count)`. Aims for `4 × workers` chunks — a small
/// over-decomposition so the dynamic claimer load-balances uneven chunk
/// costs — but never chunks of less than one item.
fn chunk_plan(len: usize) -> (usize, usize) {
    let chunk = len.div_ceil((4 * current_num_threads()).min(len));
    (chunk, len.div_ceil(chunk))
}

/// A raw pointer the `Sync` chunk closures may capture; every chunk
/// touches a disjoint index range through it.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// The pointer to slot `i`. A method, so closures capture the whole
    /// `Sync` wrapper rather than its bare `*mut T` field.
    fn at(&self, i: usize) -> *mut T {
        self.0.wrapping_add(i)
    }
}

// SAFETY: `T: Send` because other threads write or borrow `T` values
// through the pointer; the pointer itself is only shared, and the callers
// below hand each index to exactly one chunk.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Replaces the contents of `out` with `f(0), …, f(n - 1)` for `n > 0`,
/// computed on the worker pool.
fn map_into<R, F>(n: usize, out: &mut Vec<R>, f: &F)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    out.clear();
    out.reserve(n);
    let (chunk, chunks) = chunk_plan(n);
    let base = SendPtr(out.as_mut_ptr());
    pool::run(chunks, &|c| {
        for i in c * chunk..n.min((c + 1) * chunk) {
            // SAFETY: `i < n` lies in the reserved capacity, and chunk `c`
            // alone owns slot `i`, so each slot is written exactly once.
            unsafe { base.at(i).write(f(i)) };
        }
    });
    // SAFETY: `pool::run` returned, so every chunk finished and all `n`
    // slots are written (a chunk panic is re-thrown before this line).
    unsafe { out.set_len(n) };
}

/// Maps `f(i, &mut items[i])` over the slice: `f` may mutate its item in
/// place and returns a value collected in index order. In parallel mode the
/// sweep is chunked across worker threads, so `f` must be pure with respect
/// to sweep order (it sees only its own item).
pub fn par_map_mut<T, R, F>(mode: ParallelismMode, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let mut out = Vec::new();
    par_map_mut_into(mode, items, &mut out, f);
    out
}

/// Maps `f(i)` over `0..n`, returning results in index order. The workhorse
/// for vertex sweeps and seeded repetition loops.
pub fn par_map_range<R, F>(mode: ParallelismMode, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out = Vec::new();
    par_map_range_into(mode, n, &mut out, f);
    out
}

/// Like [`par_map_range`] but writes the results into `out`, reusing its
/// allocation (`out` is cleared first). At a fixed `n` a warm `out` makes
/// the sweep allocation-free in sequential mode, which is what the
/// steady-state `alloc-count` gate measures; in parallel mode the pool
/// dispatch itself costs O(1) small control allocations per sweep.
///
/// Either mode calls `f` exactly once per index.
pub fn par_map_range_into<R, F>(mode: ParallelismMode, n: usize, out: &mut Vec<R>, f: F)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if mode.is_parallel() && n >= INLINE_CUTOFF {
        map_into(n, out, &f);
    } else {
        out.clear();
        out.extend((0..n).map(f));
    }
}

/// Like [`par_map_mut`] but writes the returned values into `out`, reusing
/// its allocation (`out` is cleared first).
pub fn par_map_mut_into<T, R, F>(mode: ParallelismMode, items: &mut [T], out: &mut Vec<R>, f: F)
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let base = SendPtr(items.as_mut_ptr());
    par_map_range_into(mode, items.len(), out, |i| {
        // SAFETY: `i < items.len()`, `items` stays mutably borrowed for
        // this call, and `par_map_range_into` calls this closure once per
        // index, so this is the only reference to `items[i]`.
        f(i, unsafe { &mut *base.at(i) })
    });
}

/// Updates every item in place with `f(i, &mut items[i])` and returns
/// whether `f` returned `true` for any of them. `f` runs on every item (no
/// short-circuit), so its writes do not depend on the answer.
///
/// Runs over the same contiguous blocks as [`par_fill_blocks`]: each block
/// yields one flag, and the flags are or-ed in block order afterwards (no
/// `reduce`, no atomics, no per-item flag buffer). Sequential mode
/// allocates nothing.
pub fn par_update_any<T, F>(mode: ParallelismMode, items: &mut [T], f: F) -> bool
where
    T: Send,
    F: Fn(usize, &mut T) -> bool + Sync,
{
    blocks_any(mode, items, |lo, block| {
        let mut any = false;
        for (i, item) in block.iter_mut().enumerate() {
            any |= f(lo + i, item);
        }
        any
    })
}

/// Resizes `out` to `n` items and fills it block by block: `f(lo, block)`
/// owns the output slots `lo..lo + block.len()` and must overwrite every
/// one of them (a warm `out` keeps whatever it held before). The blocks
/// are contiguous and disjoint, so a sweep over CSR rows can walk each
/// block's rows with one running offset instead of looking every row up
/// on its own.
///
/// Sequential mode makes one call, `f(0, out)`, and allocates nothing when
/// `out` already holds `n` items' capacity. Parallel mode splits `out` into
/// `4 × workers` blocks and pays only the O(1) control allocations of one
/// pool dispatch. Each slot's value depends only on `f`, so both modes
/// fill the same buffer.
pub fn par_fill_blocks<R, F>(mode: ParallelismMode, n: usize, out: &mut Vec<R>, f: F)
where
    R: Send + Clone + Default,
    F: Fn(usize, &mut [R]) + Sync,
{
    out.resize(n, R::default());
    blocks_any(mode, out, |lo, block| {
        f(lo, block);
        false
    });
}

/// Runs `f(lo, block)` over contiguous blocks of `items` and returns
/// whether any call returned `true`. Sequential mode, and parallel mode
/// below [`INLINE_CUTOFF`] items, pass the whole slice as one block.
fn blocks_any<T, F>(mode: ParallelismMode, items: &mut [T], f: F) -> bool
where
    T: Send,
    F: Fn(usize, &mut [T]) -> bool + Sync,
{
    if mode.is_parallel() && items.len() >= INLINE_CUTOFF {
        let width = items.len().div_ceil(4 * current_num_threads());
        let mut blocks: Vec<&mut [T]> = items.chunks_mut(width).collect();
        let flags = par_map_mut(mode, &mut blocks, |b, block| f(b * width, block));
        flags.contains(&true)
    } else {
        f(0, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_agree_on_par_map_mut() {
        let mut a: Vec<u64> = (0..100).collect();
        let mut b = a.clone();
        let ra = par_map_mut(ParallelismMode::Sequential, &mut a, |i, x| {
            *x += i as u64;
            *x
        });
        let rb = par_map_mut(ParallelismMode::Parallel, &mut b, |i, x| {
            *x += i as u64;
            *x
        });
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn modes_agree_on_par_map_range() {
        let seq = par_map_range(ParallelismMode::Sequential, 1000, |i| i * i);
        let par = par_map_range(ParallelismMode::Parallel, 1000, |i| i * i);
        assert_eq!(seq, par);
    }

    #[test]
    fn modes_agree_on_par_map_range_into_and_buffer_is_reused() {
        let mut seq: Vec<u64> = Vec::new();
        let mut par: Vec<u64> = Vec::new();
        par_map_range_into(ParallelismMode::Sequential, 1000, &mut seq, |i| {
            (i as u64) * 3 + 1
        });
        par_map_range_into(ParallelismMode::Parallel, 1000, &mut par, |i| {
            (i as u64) * 3 + 1
        });
        assert_eq!(seq, par);
        // Refilling at the same size must reuse the allocation.
        let ptr = par.as_ptr();
        par_map_range_into(ParallelismMode::Parallel, 1000, &mut par, |i| i as u64);
        assert_eq!(ptr, par.as_ptr());
        assert_eq!(par[999], 999);
    }

    #[test]
    fn modes_agree_on_par_map_mut_into() {
        let mut a: Vec<u64> = (0..300).collect();
        let mut b = a.clone();
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        par_map_mut_into(ParallelismMode::Sequential, &mut a, &mut ra, |i, x| {
            *x += i as u64;
            *x
        });
        par_map_mut_into(ParallelismMode::Parallel, &mut b, &mut rb, |i, x| {
            *x += i as u64;
            *x
        });
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn modes_agree_on_par_update_any() {
        for n in [0usize, 3, 5, 1000] {
            let mut seen = Vec::new();
            for mode in [ParallelismMode::Sequential, ParallelismMode::Parallel] {
                for hit in [None, Some(0), Some(n.saturating_sub(1))] {
                    let mut items: Vec<u64> = (0..n as u64).collect();
                    let any = par_update_any(mode, &mut items, |i, x| {
                        *x = *x * 2 + i as u64;
                        Some(i) == hit
                    });
                    assert_eq!(any, n > 0 && hit.is_some(), "n={n} hit={hit:?}");
                    seen.push((hit, items));
                }
            }
            let (seq, par) = seen.split_at(3);
            assert_eq!(seq, par, "n={n}");
            assert!(seq[0].1.iter().enumerate().all(|(i, &x)| x == 3 * i as u64));
        }
    }

    #[test]
    fn modes_agree_on_par_fill_blocks() {
        // Around the inline cutoff, and lengths that no block count of a
        // small pool divides evenly.
        for n in [
            0usize,
            1,
            3,
            INLINE_CUTOFF - 1,
            INLINE_CUTOFF,
            INLINE_CUTOFF + 1,
            17,
            1001,
        ] {
            let mut filled = Vec::new();
            for mode in [ParallelismMode::Sequential, ParallelismMode::Parallel] {
                // A warm buffer longer than `n`, holding stale values.
                let mut out: Vec<u64> = vec![u64::MAX; n + 5];
                let ptr = out.as_ptr();
                par_fill_blocks(mode, n, &mut out, |lo, block| {
                    for (i, slot) in block.iter_mut().enumerate() {
                        *slot = ((lo + i) as u64) * 7 + 1;
                    }
                });
                assert_eq!(ptr, out.as_ptr(), "n={n}: the warm buffer is reused");
                filled.push(out);
            }
            assert_eq!(filled[0], filled[1], "n={n}");
            assert!(filled[0]
                .iter()
                .enumerate()
                .all(|(i, &x)| x == i as u64 * 7 + 1));
        }
    }

    #[test]
    fn par_fill_blocks_hands_out_disjoint_covering_blocks() {
        // Each slot records its block's start.
        let starts = |mode, n| {
            let mut out: Vec<usize> = Vec::new();
            par_fill_blocks(mode, n, &mut out, |lo, block| block.fill(lo));
            out
        };
        assert!(starts(ParallelismMode::Sequential, 1001)
            .iter()
            .all(|&lo| lo == 0));
        let small = INLINE_CUTOFF - 1;
        assert!(starts(ParallelismMode::Parallel, small)
            .iter()
            .all(|&lo| lo == 0));
        // Parallel: starts never decrease, and every block begins where
        // the previous one ended.
        let par = starts(ParallelismMode::Parallel, 1001);
        assert_eq!(par[0], 0);
        for (i, w) in par.windows(2).enumerate() {
            assert!(w[1] == w[0] || w[1] == i + 1, "slot {}: {w:?}", i + 1);
        }
        let blocks = 1 + par.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(
            blocks,
            1001usize.div_ceil(1001usize.div_ceil(4 * current_num_threads()))
        );
    }

    #[test]
    fn empty_sweeps_are_fine() {
        let out: Vec<u8> = par_map_range(ParallelismMode::Parallel, 0, |_| 0u8);
        assert!(out.is_empty());
    }

    #[test]
    fn results_stay_in_index_order_for_every_plan() {
        // 0..=2100 covers the empty sweep, the inline cutoff, one-item
        // chunks (n < 4 × workers) and many-item chunks with a short tail.
        let mut out = Vec::new();
        for n in 0..=2100usize {
            par_map_range_into(ParallelismMode::Parallel, n, &mut out, |i| i * 3 + 1);
            assert_eq!(out.len(), n);
            assert!(
                out.iter().enumerate().all(|(i, &x)| x == i * 3 + 1),
                "n={n}"
            );
        }
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let caught = std::panic::catch_unwind(|| {
            par_map_range(ParallelismMode::Parallel, 1000, |i| {
                assert!(i != 517, "boom");
                i
            })
        });
        assert!(caught.is_err(), "a panic in a chunk must reach the caller");
        // The pool must still serve sweeps after a panicked job.
        let v = par_map_range(ParallelismMode::Parallel, 1000, |i| i);
        assert_eq!(v.iter().sum::<usize>(), 499_500);
    }

    #[test]
    fn nested_parallel_calls_do_not_deadlock() {
        let out = par_map_range(ParallelismMode::Parallel, 64, |i| {
            par_map_range(ParallelismMode::Parallel, 32, |j| i * j)
                .iter()
                .sum::<usize>()
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * (31 * 32 / 2));
        }
    }

    #[test]
    fn repeated_calls_reuse_the_pool() {
        // A long run of small sweeps must not accumulate resources or
        // wedge the daemon workers.
        for round in 0..200usize {
            let v = par_map_range(ParallelismMode::Parallel, 257, |i| i + round);
            assert_eq!((v[0], v[256]), (round, 256 + round));
        }
    }

    /// Set in the child processes of
    /// [`worker_count_prefers_rayon_num_threads_then_csmpc_workers`].
    const CHILD_GUARD: &str = "CSMPC_PARALLEL_PRINT_WORKERS";

    /// Child half of the worker-count test: prints the resolved count.
    /// Does nothing unless [`CHILD_GUARD`] is set.
    #[test]
    fn print_worker_count_in_child() {
        if std::env::var_os(CHILD_GUARD).is_some() {
            println!("workers={}", current_num_threads());
        }
    }

    #[test]
    fn worker_count_prefers_rayon_num_threads_then_csmpc_workers() {
        // The count is fixed once per process, so each setting runs in a
        // fresh copy of this test binary filtered to the child test.
        for (rayon_threads, csmpc_workers, expected) in [("3", "5", "3"), ("0", "2", "2")] {
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args([
                    "--exact",
                    "tests::print_worker_count_in_child",
                    "--nocapture",
                ])
                .env(CHILD_GUARD, "1")
                .env("RAYON_NUM_THREADS", rayon_threads)
                .env("CSMPC_WORKERS", csmpc_workers)
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "child failed:\n{stdout}");
            let printed: Vec<&str> = stdout
                .lines()
                .filter_map(|l| l.strip_prefix("workers="))
                .collect();
            assert_eq!(
                printed,
                [expected],
                "RAYON_NUM_THREADS={rayon_threads} CSMPC_WORKERS={csmpc_workers}:\n{stdout}"
            );
        }
    }

    #[test]
    fn auto_matches_worker_count() {
        let mode = ParallelismMode::auto();
        assert_eq!(mode.is_parallel(), current_num_threads() > 1);
        assert_eq!(ParallelismMode::default(), mode);
    }
}
