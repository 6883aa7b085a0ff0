//! Seeded races in the buffer-reusing sweep helpers: each closure writes
//! shared state instead of only its own item or block.

/// An in-place update that logs through a captured `RefCell`.
pub fn racy_update(mode: ParallelismMode, items: &mut [u64], log: &RefCell<Vec<usize>>) -> bool {
    par_update_any(mode, items, |i, x| {
        log.borrow_mut().push(i);
        *x += 1;
        true
    })
}

/// A block fill that counts into a captured total.
pub fn racy_fill(mode: ParallelismMode, n: usize, out: &mut Vec<u32>) -> usize {
    let mut total = 0usize;
    par_fill_blocks(mode, n, out, |lo, block| {
        total += block.len();
        block.fill(lo as u32);
    });
    total
}

/// A buffer-reusing range map that pushes into a captured Vec.
pub fn racy_range(mode: ParallelismMode, n: usize, out: &mut Vec<u64>) -> Vec<usize> {
    let mut seen = Vec::new();
    par_map_range_into(mode, n, out, |v| {
        seen.push(v);
        v as u64
    });
    seen
}

/// A buffer-reusing item map that stores through a captured atomic.
pub fn racy_items(mode: ParallelismMode, items: &mut [u64], out: &mut Vec<u64>, hits: &AtomicU64) {
    par_map_mut_into(mode, items, out, |_, x| {
        hits.fetch_add(1, Ordering::Relaxed);
        *x
    });
}
