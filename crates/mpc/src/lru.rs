//! The bounded LRU behind the process-wide content-keyed caches
//! ([`crate::BallCache`] and the job service's graph store). Keys are
//! compared exactly, never by a lossy hash; a key type that wants a fast
//! reject puts a fingerprint in its first field. Values are immutable
//! once inserted and handed out behind an [`Arc`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A cache slot: inserted empty by the miss that claims its key, filled
/// once by that caller's `build`.
type Slot<V> = Arc<OnceLock<Arc<V>>>;

/// A bounded, thread-safe LRU of shared values keyed by exact content.
pub struct Lru<K, V> {
    /// Most recently used first.
    entries: Mutex<Vec<(K, Slot<V>)>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> std::fmt::Debug for Lru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let len = self.entries.lock().map(|e| e.len()).unwrap_or(0);
        f.debug_struct("Lru")
            .field("capacity", &self.capacity)
            .field("entries", &len)
            .finish_non_exhaustive()
    }
}

impl<K: PartialEq, V> Lru<K, V> {
    /// An empty cache holding at most `capacity` entries (floored to 1).
    #[must_use]
    pub const fn with_capacity(capacity: usize) -> Self {
        Lru {
            entries: Mutex::new(Vec::new()),
            capacity: if capacity == 0 { 1 } else { capacity },
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the value cached under `key`, moving it to the front. A
    /// miss claims the key: it inserts an empty slot at the front (evicting
    /// the least recently used entries beyond capacity), then runs `build`
    /// without holding the lock. Callers that race for a claimed key wait
    /// for that one build and share its value, so each key is built once
    /// while it stays cached. If `build` panics, the slot stays empty and
    /// the next caller of the key builds it.
    ///
    /// `build` must not request `key` from this cache: the nested call
    /// would wait for its own caller's build and deadlock.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned, and re-raises a panic of
    /// `build`.
    pub fn get_or_insert_with(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        let slot = {
            let mut entries = self.entries.lock().expect("lru poisoned");
            if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
                entries[..=pos].rotate_right(1);
                if let Some(value) = entries[0].1.get() {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(value);
                }
            } else {
                entries.insert(0, (key, Arc::default()));
                entries.truncate(self.capacity);
            }
            Arc::clone(&entries[0].1)
        };
        let mut built = false;
        let value = slot.get_or_init(|| {
            built = true;
            Arc::new(build())
        });
        let counter = if built { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        Arc::clone(value)
    }

    /// `(hits, misses)` so far; a miss is one call to `build`.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of cached entries.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("lru poisoned").len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fetches `key`, building `key * 10` on a miss.
    fn get(lru: &Lru<u32, u32>, key: u32) -> Arc<u32> {
        lru.get_or_insert_with(key, || key * 10)
    }

    #[test]
    fn evicts_the_least_recently_used_entry() {
        let lru = Lru::with_capacity(2);
        let one = get(&lru, 1);
        let _ = get(&lru, 2);
        let _ = get(&lru, 3);
        assert_eq!(lru.len(), 2, "capacity bound holds");
        // 1 was least recently used: a refetch rebuilds it.
        assert!(!Arc::ptr_eq(&one, &get(&lru, 1)));
        assert_eq!(lru.stats(), (0, 4));
    }

    #[test]
    fn a_hit_moves_the_entry_to_the_front() {
        let lru = Lru::with_capacity(2);
        let one = get(&lru, 1);
        let two = get(&lru, 2);
        assert!(Arc::ptr_eq(&one, &get(&lru, 1)), "hit shares the value");
        // 2 is now least recently used, so 3 evicts it and 1 survives.
        let _ = get(&lru, 3);
        assert!(Arc::ptr_eq(&one, &get(&lru, 1)));
        assert!(!Arc::ptr_eq(&two, &get(&lru, 2)));
        assert_eq!(lru.stats(), (2, 4));
    }

    #[test]
    fn racing_callers_wait_for_one_build() {
        let lru = Lru::with_capacity(4);
        let barrier = std::sync::Barrier::new(2);
        let builds = AtomicU64::new(0);
        let values: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        lru.get_or_insert_with(7, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(std::time::Duration::from_millis(100));
                            70
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "one build per key");
        assert!(Arc::ptr_eq(&values[0], &values[1]));
        assert_eq!(lru.stats(), (1, 1));
    }

    #[test]
    fn a_panicking_build_leaves_the_key_buildable() {
        let lru = Lru::with_capacity(4);
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lru.get_or_insert_with(3, || panic!("build failed"))
        }));
        assert!(failed.is_err());
        assert_eq!(*get(&lru, 3), 30);
        assert_eq!(lru.stats(), (0, 1), "only the finished build is a miss");
    }

    #[test]
    fn threads_racing_on_one_key_share_one_value() {
        let lru = Lru::with_capacity(4);
        let barrier = std::sync::Barrier::new(8);
        let values: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        get(&lru, 5)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(lru.len(), 1);
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])));
        assert_eq!(lru.stats(), (7, 1));
    }

    #[test]
    fn capacity_holds_under_contention() {
        let lru = Lru::with_capacity(2);
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let lru = &lru;
                scope.spawn(move || {
                    for round in 0..24 {
                        let key = (t + round) % 6;
                        assert_eq!(*get(lru, key), key * 10);
                        assert!(lru.len() <= 2, "LRU bound violated under contention");
                    }
                });
            }
        });
        assert_eq!(lru.len(), 2);
        let (hits, misses) = lru.stats();
        assert_eq!(hits + misses, 8 * 24);
    }
}
