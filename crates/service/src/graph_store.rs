//! Shared graph materialization: one built graph per distinct
//! [`GraphSpec`], no matter how many jobs reference it.
//!
//! The store is the service-side face of the content-keyed cache family
//! from `csmpc-mpc`: specs are compared exactly (they are pure data), and
//! a hit hands back the same [`Arc`]'d immutable [`SharedGraph`] every
//! caller sees. The store holds no adjacency spine of its own: ball
//! collection fetches one from the process-wide
//! [`csmpc_mpc::ball_cache::csr_global`] cache when it first needs it, so
//! a fleet of jobs on the same topology still pays for one spine total.

use crate::job::GraphSpec;
use csmpc_graph::Graph;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One materialized graph, shared read-only between concurrent jobs.
#[derive(Debug)]
pub struct SharedGraph {
    /// The built graph.
    pub graph: Graph,
    /// `graph_words(graph)` — the input-size figure admission works from.
    pub words: usize,
}

/// A bounded LRU store of [`SharedGraph`]s keyed by exact [`GraphSpec`].
#[derive(Debug)]
pub struct GraphStore {
    entries: Mutex<Vec<(GraphSpec, Arc<SharedGraph>)>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl GraphStore {
    /// An empty store holding at most `capacity` graphs.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        GraphStore {
            entries: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the shared materialization of `spec`, building it on a
    /// miss. Hits move to the front (most recently used).
    #[must_use]
    pub fn get(&self, spec: &GraphSpec) -> Arc<SharedGraph> {
        {
            let mut entries = self.entries.lock().expect("graph store poisoned");
            if let Some(pos) = entries.iter().position(|(k, _)| k == spec) {
                let entry = entries.remove(pos);
                let shared = Arc::clone(&entry.1);
                entries.insert(0, entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return shared;
            }
        }
        let graph = spec.build();
        let words = csmpc_mpc::graph_words(&graph);
        let shared = Arc::new(SharedGraph { graph, words });
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().expect("graph store poisoned");
        // A racing thread may have built the same spec; keep one copy.
        if let Some(pos) = entries.iter().position(|(k, _)| k == spec) {
            return Arc::clone(&entries[pos].1);
        }
        entries.insert(0, (*spec, Arc::clone(&shared)));
        entries.truncate(self.capacity);
        shared
    }

    /// `(hits, misses)` so far.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of stored graphs.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("graph store poisoned").len()
    }

    /// `true` when nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide store used by the scheduler.
pub fn global() -> &'static GraphStore {
    static GLOBAL: OnceLock<GraphStore> = OnceLock::new();
    GLOBAL.get_or_init(|| GraphStore::with_capacity(32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_spec_shares_one_graph() {
        let store = GraphStore::with_capacity(4);
        let a = store.get(&GraphSpec::Cycle { n: 12 });
        let b = store.get(&GraphSpec::Cycle { n: 12 });
        assert!(Arc::ptr_eq(&a, &b), "store must share materializations");
        assert_eq!(store.stats(), (1, 1));
        assert_eq!(a.words, csmpc_mpc::graph_words(&a.graph));
    }

    #[test]
    fn distinct_specs_do_not_collide_and_lru_evicts() {
        let store = GraphStore::with_capacity(2);
        let a = store.get(&GraphSpec::Cycle { n: 8 });
        let _b = store.get(&GraphSpec::Path { n: 8 });
        let _c = store.get(&GraphSpec::TwoCycles { n: 8 });
        assert_eq!(store.len(), 2, "capacity bound holds");
        // `a` was least recently used — evicted; refetch rebuilds.
        let a2 = store.get(&GraphSpec::Cycle { n: 8 });
        assert!(!Arc::ptr_eq(&a, &a2));
        assert_eq!(a.graph.n(), a2.graph.n());
    }
}
