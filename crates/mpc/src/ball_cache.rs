//! Memoized ball collection, keyed by exact graph content.
//!
//! The repetition loops in `csmpc-core` (success-probability, stability,
//! and sensitivity trials) re-run ball-collecting algorithms on the *same*
//! input graph dozens to hundreds of times with different seeds. Ball
//! extents depend only on the graph and the radius — not the seed — so the
//! sweep's output is identical across trials. This cache shares one
//! computed ball set (behind an [`Arc`]) across those trials.
//!
//! **Correctness over speed**: a cache key is the radius plus the *entire*
//! graph — every ID, every name, and the CSR adjacency spine — not a
//! lossy hash. A 64-bit FNV-1a fingerprint of that content provides the
//! fast reject; on fingerprint match the key's graph is compared with the
//! caller's field for field before an entry is reused, so a fault-mutated
//! or otherwise edited graph can never be served stale balls. Charges are
//! unaffected: callers charge the same rounds/words/space whether the set
//! was computed or reused (the model's observables measure the simulated
//! algorithm, which always "performs" the collection).
//!
//! The cache is process-global, bounded (a shared [`Lru`]), and shared
//! across threads; entries are immutable once inserted, so a hit in
//! parallel mode returns the same bits a sequential run computes
//! ([`BallWorkspace`] output is mode-independent by construction).
//!
//! [`BallWorkspace`]: csmpc_graph::ball::BallWorkspace

use crate::lru::Lru;
use csmpc_graph::ball::with_thread_workspace;
use csmpc_graph::fnv::Fnv1a;
use csmpc_graph::Graph;
use csmpc_parallel::{par_map_range, ParallelismMode};
use std::sync::Arc;

/// One collected ball set: `(ball graph, center index)` per vertex.
pub type BallSet = Arc<Vec<(Graph, usize)>>;

/// The radius and the graph itself behind their FNV-1a fingerprint. The
/// fingerprint is the first field, so the derived equality rejects on it
/// before comparing the graph.
#[derive(PartialEq)]
struct BallKey {
    fingerprint: u64,
    r: usize,
    graph: Graph,
}

impl BallKey {
    fn new(g: &Graph, r: usize) -> Self {
        let mut h = Fnv1a::new();
        h.word(r as u64).word(g.n() as u64).word(g.m() as u64);
        for v in 0..g.n() {
            h.word(g.id(v).0).word(g.name(v).0);
            h.word(g.degree(v) as u64);
            for &w in g.neighbors(v) {
                h.bytes(&w.to_le_bytes());
            }
        }
        BallKey {
            fingerprint: h.finish(),
            r,
            graph: g.clone(),
        }
    }
}

/// A bounded LRU cache of collected ball sets.
///
/// Most callers want the process-wide [`global`] instance; tests build
/// their own to observe hit/miss behavior in isolation.
#[derive(Debug)]
pub struct BallCache(Lru<BallKey, Vec<(Graph, usize)>>);

impl BallCache {
    /// An empty cache holding at most `capacity` ball sets.
    #[must_use]
    pub const fn with_capacity(capacity: usize) -> Self {
        BallCache(Lru::with_capacity(capacity))
    }

    /// Returns the `r`-radius ball set of `g` (plus the worst-case
    /// `graph_words` over the set), computing and inserting it on a miss.
    ///
    /// The computation sweeps every vertex with a per-thread
    /// [`csmpc_graph::ball::BallWorkspace`] over the graph's CSR spine;
    /// output is bit-identical in both [`ParallelismMode`]s, so cached
    /// results are mode-agnostic.
    #[must_use]
    pub fn collect(&self, g: &Graph, r: usize, mode: ParallelismMode) -> (BallSet, usize) {
        let balls = self.0.get_or_insert_with(BallKey::new(g, r), || {
            par_map_range(mode, g.n(), |v| {
                // csmpc-allow(par-closure-race): the workspace is thread_local! — each worker mutates only its own RefCell, never shared state
                with_thread_workspace(|ws| {
                    let (b, c, _) = ws.ball(g, v, r);
                    (b, c)
                })
            })
        });
        let worst = balls
            .iter()
            .map(|(b, _)| crate::distributed::graph_words(b))
            .max()
            .unwrap_or(0);
        (balls, worst)
    }

    /// Number of cached ball sets.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The process-wide cache used by
/// [`crate::DistributedGraph::collect_balls`]. Sized to hold the working
/// set of a repetition loop (a handful of distinct `(graph, radius)`
/// pairs) without accumulating unbounded ball sets.
pub fn global() -> &'static BallCache {
    static GLOBAL: BallCache = BallCache::with_capacity(8);
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmpc_graph::generators;
    use csmpc_graph::ops::{relabel_ids, with_fresh_names};
    use csmpc_graph::rng::Seed;

    #[test]
    fn hit_returns_the_shared_set() {
        let cache = BallCache::with_capacity(4);
        let g = generators::random_tree(40, Seed(3));
        let (a, wa) = cache.collect(&g, 2, ParallelismMode::Sequential);
        let (b, wb) = cache.collect(&g, 2, ParallelismMode::Sequential);
        assert!(Arc::ptr_eq(&a, &b), "second call must hit");
        assert_eq!(wa, wb);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_radius_is_a_different_entry() {
        let cache = BallCache::with_capacity(4);
        let g = generators::cycle(12);
        let (a, _) = cache.collect(&g, 1, ParallelismMode::Sequential);
        let (b, _) = cache.collect(&g, 2, ParallelismMode::Sequential);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn mutated_ids_and_names_never_reuse_stale_balls() {
        // Same topology, different IDs (beyond some node) and different
        // names: both must be cache-distinct — ball graphs carry ids AND
        // names, so either difference changes the output.
        let cache = BallCache::with_capacity(8);
        let g = generators::path(9);
        let relabeled = relabel_ids(&g, |v, id| {
            if v > 4 {
                csmpc_graph::NodeId(id.0 + 500)
            } else {
                id
            }
        });
        let renamed = with_fresh_names(&g, 9_000);
        let (a, _) = cache.collect(&g, 2, ParallelismMode::Sequential);
        let (b, _) = cache.collect(&relabeled, 2, ParallelismMode::Sequential);
        let (c, _) = cache.collect(&renamed, 2, ParallelismMode::Sequential);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(b[8].0.id(b[8].1).0, g.id(8).0 + 500);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn cached_set_matches_fresh_compute_bit_for_bit() {
        let cache = BallCache::with_capacity(4);
        let g = generators::random_tree(30, Seed(9));
        let (cached, worst) = cache.collect(&g, 3, ParallelismMode::Sequential);
        for (v, (b, c)) in cached.iter().enumerate() {
            let (rb, rc, _) = csmpc_graph::ball::ball(&g, v, 3);
            assert_eq!((b, c), (&rb, &rc), "vertex {v}");
        }
        let recomputed_worst = cached
            .iter()
            .map(|(b, _)| crate::distributed::graph_words(b))
            .max()
            .unwrap_or(0);
        assert_eq!(worst, recomputed_worst);
    }
}
