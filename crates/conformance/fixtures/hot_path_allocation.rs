//! Seeded violation fixture for the hot-path allocation arm of
//! [`Lint::Determinism`]: `// #[csmpc_hot]` marks a function as engine
//! hot-path code (run once per vertex per round, or tighter), where a
//! per-call ordered-map allocation defeats the reusable flat workspaces
//! (`csmpc_graph::ball::BallWorkspace`). Not compiled into any crate;
//! scanned by `tests/fixtures.rs`.

use std::collections::{BTreeMap, BTreeSet};

// #[csmpc_hot]
pub fn ball_extent(ids: &[u64]) -> usize {
    let index: BTreeMap<u64, usize> = ids.iter().map(|&x| (x, 0)).collect();
    let mut seen = BTreeSet::new();
    seen.insert(0u64);
    index.len() + seen.len()
}

// A marked function that sticks to flat scratch buffers stays clean.
// #[csmpc_hot]
pub fn flat_extent(ids: &[u64], scratch: &mut Vec<u64>) -> usize {
    scratch.clear();
    scratch.extend_from_slice(ids);
    scratch.len()
}

// Unmarked functions may build loop-invariant maps freely (cc_labels'
// by_name table is the canonical legitimate use).
pub fn grouped(ids: &[u64]) -> BTreeMap<u64, u64> {
    ids.iter().map(|&x| (x, x)).collect()
}

// #[csmpc_hot]
pub fn audited(ids: &[u64]) -> usize {
    // csmpc-allow(determinism): fixture for the suppressed case
    let tmp = BTreeMap::from([(0u64, ids.len() as u64)]);
    tmp.len()
}
