//! Lazily-started persistent worker pool shared by every parallel sweep
//! helper in this crate.
//!
//! The previous runtime spawned fresh scoped threads for every `map` call;
//! at million-item scale the spawn/join cost dominated the sweep itself.
//! This pool starts `current_num_threads() - 1` daemon workers the first
//! time a parallel call actually needs them and reuses them for the rest
//! of the process.
//!
//! # Execution model
//!
//! A parallel call is a [`Job`]: a chunk count plus a `Fn(usize)` body that
//! executes chunk `c`. Workers (and the submitting caller, which always
//! participates) claim chunk indices from a shared atomic cursor until the
//! job is exhausted. Claiming is dynamic — whichever thread is free takes
//! the next chunk — but the *output* stays deterministic because every
//! chunk writes a fixed, disjoint output range chosen by its index alone;
//! there is no concatenation step whose order could vary.
//!
//! # Why the lifetime-erased pointer is sound
//!
//! `run` stores a raw pointer to the caller's closure in the job so the
//! `'static` worker threads can call it. The caller blocks until the
//! completion count (guarded by a mutex, so it also publishes the workers'
//! writes) reaches the chunk count. Every dereference of the pointer
//! happens inside the execution of a claimed chunk, and every claimed
//! chunk finishes before the count reaches the total — so no worker can
//! touch the closure (or the output buffers it writes) after `run`
//! returns. Workers that lose the race for the final chunks observe
//! `cursor >= chunks` and return without dereferencing anything.
//!
//! # Panics
//!
//! A panic in the closure is caught at chunk granularity, the remaining
//! chunks still run (keeping the completion count honest), and the first
//! payload is re-thrown on the calling thread once the job completes.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Lifetime-erased pointer to the job body. Only dereferenced while the
/// submitting caller is provably still blocked in [`run`] (see module
/// docs), which is what makes the erasure sound.
struct RawFunc(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and the pointer itself is only a value; validity is guaranteed by the
// caller-blocks-until-done protocol described in the module docs.
unsafe impl Send for RawFunc {}
unsafe impl Sync for RawFunc {}

/// One submitted parallel call.
struct Job {
    func: RawFunc,
    chunks: usize,
    /// Next unclaimed chunk index; claims past `chunks` are no-ops.
    cursor: AtomicUsize,
    /// Number of chunks that have finished executing. Guarded by a mutex
    /// (not an atomic) so the final observation also establishes
    /// happens-before with every chunk's output writes.
    finished: Mutex<usize>,
    done: Condvar,
    /// First panic payload caught while executing a chunk.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work: Condvar,
}

/// The process-wide pool, started on first use. `None` when the resolved
/// worker count is 1 — everything runs inline and no threads are spawned.
fn pool() -> Option<&'static Pool> {
    static POOL: OnceLock<Option<&'static Pool>> = OnceLock::new();
    *POOL.get_or_init(|| {
        let workers = crate::current_num_threads();
        if workers <= 1 {
            return None;
        }
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
        }));
        // The submitting caller always participates, so `workers` total
        // threads touch a job: `workers - 1` here plus the caller.
        for i in 0..workers - 1 {
            std::thread::Builder::new()
                .name(format!("csmpc-pool-{i}"))
                .spawn(move || worker_loop(pool))
                .expect("spawn pool worker");
        }
        Some(pool)
    })
}

fn worker_loop(pool: &'static Pool) {
    loop {
        let job = {
            let mut queue = pool.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.front() {
                    break Arc::clone(job);
                }
                queue = pool.work.wait(queue).unwrap();
            }
        };
        work_on(&job);
        // All chunks are claimed; retire the job so the queue front moves
        // on. (The submitting caller also removes it — whichever runs
        // first wins, `retain` is idempotent.)
        let mut queue = pool.queue.lock().unwrap();
        queue.retain(|j| !Arc::ptr_eq(j, &job));
    }
}

/// Claims and executes chunks of `job` until the cursor is exhausted.
fn work_on(job: &Job) {
    loop {
        let idx = job.cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= job.chunks {
            return;
        }
        // SAFETY: idx < chunks, so the submitting caller is still blocked
        // in `run` and the closure is alive (module docs).
        let func = unsafe { &*job.func.0 };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| func(idx))) {
            let mut slot = job.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut finished = job.finished.lock().unwrap();
        *finished += 1;
        if *finished == job.chunks {
            job.done.notify_all();
        }
    }
}

/// Executes `f(0), f(1), …, f(chunks - 1)`, distributing the calls over
/// the persistent pool. Returns once every call has finished; re-throws
/// the first panic raised inside `f`. Runs inline when there is nothing to
/// distribute (one chunk, one worker, or the pool is disabled).
pub(crate) fn run(chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    if chunks == 0 {
        return;
    }
    let pool = match pool() {
        Some(pool) if chunks > 1 => pool,
        _ => {
            for c in 0..chunks {
                f(c);
            }
            return;
        }
    };
    // SAFETY: only erases the lifetime bound of the trait object; the
    // pointer is dereferenced exclusively while this frame is blocked
    // below (module docs).
    let func: *const (dyn Fn(usize) + Sync + 'static) =
        unsafe { std::mem::transmute::<*const (dyn Fn(usize) + Sync), _>(f) };
    let job = Arc::new(Job {
        func: RawFunc(func),
        chunks,
        cursor: AtomicUsize::new(0),
        finished: Mutex::new(0),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    pool.queue.lock().unwrap().push_back(Arc::clone(&job));
    pool.work.notify_all();
    // Participate instead of idling — this also makes nested parallel
    // calls deadlock-free: every submitter drives its own job forward even
    // if all pool workers are busy elsewhere.
    work_on(&job);
    let mut finished = job.finished.lock().unwrap();
    while *finished < job.chunks {
        finished = job.done.wait(finished).unwrap();
    }
    drop(finished);
    pool.queue.lock().unwrap().retain(|j| !Arc::ptr_eq(j, &job));
    let payload = job.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}
