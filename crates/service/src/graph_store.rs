//! Shared graph materialization: one built graph per distinct
//! [`GraphSpec`], no matter how many jobs reference it.
//!
//! The store runs on the same bounded [`Lru`] as
//! [`csmpc_mpc::BallCache`]: specs are compared exactly (they are pure
//! data), and a hit hands back the same [`Arc`]'d immutable
//! [`SharedGraph`] every caller sees.

use crate::job::GraphSpec;
use csmpc_graph::Graph;
use csmpc_mpc::lru::Lru;
use std::sync::Arc;

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
pub struct GraphStore(Lru<GraphSpec, SharedGraph>);

impl GraphStore {
    /// An empty store holding at most `capacity` graphs.
    #[must_use]
    pub const fn with_capacity(capacity: usize) -> Self {
        GraphStore(Lru::with_capacity(capacity))
    }

    /// Returns the shared materialization of `spec`, building it on a
    /// miss. Hits move to the front (most recently used).
    #[must_use]
    pub fn get(&self, spec: &GraphSpec) -> Arc<SharedGraph> {
        self.0.get_or_insert_with(*spec, || {
            let graph = spec.build();
            let words = csmpc_mpc::graph_words(&graph);
            SharedGraph { graph, words }
        })
    }

    /// `(hits, misses)` so far.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        self.0.stats()
    }
}

/// The process-wide store used by the scheduler.
pub fn global() -> &'static GraphStore {
    static GLOBAL: GraphStore = GraphStore::with_capacity(32);
    &GLOBAL
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
    fn distinct_specs_do_not_collide() {
        let store = GraphStore::with_capacity(4);
        let cycle = store.get(&GraphSpec::Cycle { n: 8 });
        let path = store.get(&GraphSpec::Path { n: 8 });
        let two = store.get(&GraphSpec::TwoCycles { n: 8 });
        assert!(!Arc::ptr_eq(&cycle, &path) && !Arc::ptr_eq(&path, &two));
        assert_eq!((cycle.graph.m(), path.graph.m()), (8, 7));
        assert_eq!(store.stats(), (0, 3));
    }
}
