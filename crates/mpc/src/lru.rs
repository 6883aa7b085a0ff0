//! The bounded LRU behind the process-wide content-keyed caches
//! ([`crate::BallCache`] and the job service's graph store). Keys are
//! compared exactly, never by a lossy hash; a key type that wants a fast
//! reject puts a fingerprint in its first field. Values are immutable
//! once inserted and handed out behind an [`Arc`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A bounded, thread-safe LRU of shared values keyed by exact content.
pub struct Lru<K, V> {
    /// Most recently used first.
    entries: Mutex<Vec<(K, Arc<V>)>>,
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

    /// Returns the value cached under `key`, moving it to the front; on a
    /// miss, runs `build` (without holding the lock), inserts the result
    /// at the front and evicts the least recently used entries beyond
    /// capacity. When threads race to build one key, the first insert
    /// wins and every caller gets its value.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    pub fn get_or_insert_with(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        {
            let mut entries = self.entries.lock().expect("lru poisoned");
            if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
                entries[..=pos].rotate_right(1);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entries[0].1);
            }
        }
        let value = Arc::new(build());
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().expect("lru poisoned");
        // A racing thread may have inserted the same key; keep one copy.
        if let Some((_, winner)) = entries.iter().find(|(k, _)| *k == key) {
            return Arc::clone(winner);
        }
        entries.insert(0, (key, Arc::clone(&value)));
        entries.truncate(self.capacity);
        value
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
    fn a_racing_insert_keeps_one_copy() {
        // The build runs outside the lock, so a nested call inserts the
        // same key first: the outer build loses and returns the winner.
        let lru = Lru::with_capacity(4);
        let mut winner = None;
        let got = lru.get_or_insert_with(7, || {
            winner = Some(lru.get_or_insert_with(7, || 1));
            2
        });
        assert_eq!(*got, 1);
        assert!(Arc::ptr_eq(&got, &winner.unwrap()));
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.stats(), (0, 2), "both builds ran");
        assert!(Arc::ptr_eq(&got, &lru.get_or_insert_with(7, || 3)));
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
        let (hits, misses) = lru.stats();
        assert_eq!(hits + misses, 8);
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
