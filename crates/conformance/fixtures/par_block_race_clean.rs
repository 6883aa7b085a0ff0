//! Clean counterpart of the buffer-reusing sweep helpers: each closure
//! writes only its own item or block and its locals.

/// An in-place update of the closure's own item.
pub fn update(mode: ParallelismMode, items: &mut [u64]) -> bool {
    par_update_any(mode, items, |i, x| {
        let old = *x;
        *x = old.min(i as u64);
        *x != old
    })
}

/// A block fill that walks the block's CSR rows with a running offset.
pub fn fill(mode: ParallelismMode, csr: &CsrAdjacency, lab: &[u32], out: &mut Vec<u32>) {
    par_fill_blocks(mode, csr.n(), out, |lo, block| {
        let hi = lo + block.len();
        for ((slot, row), &own) in block.iter_mut().zip(csr.rows(lo, hi)).zip(&lab[lo..hi]) {
            *slot = row.iter().fold(own, |m, &w| m.min(lab[w as usize]));
        }
    });
}

/// Buffer-reusing maps over a range and over items mutated in place.
pub fn maps(mode: ParallelismMode, items: &mut [u64], out: &mut Vec<u64>) {
    par_map_range_into(mode, items.len(), out, |v| v as u64 * 2);
    par_map_mut_into(mode, items, out, |i, x| {
        *x += i as u64;
        *x
    });
}
