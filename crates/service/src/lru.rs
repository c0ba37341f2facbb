//! The one bounded least-recently-used map every daemon cache uses:
//! warm sessions (which hold their sweep memos) and what-if stacks in
//! the service, parsed netlists in the protocol engine.
//!
//! A `HashMap` plus a logical clock. Every [`get`](Lru::get) and
//! [`insert`](Lru::insert) advances the clock and stamps the entry it
//! touches; eviction drops the entry with the oldest stamp. The scan
//! is O(capacity), which is nothing next to what a miss costs (a
//! netlist parse or a session compile), and the caches are small.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// A bounded map that evicts its least-recently-used entry at
/// capacity.
pub(crate) struct Lru<K, V> {
    entries: HashMap<K, (V, u64)>,
    capacity: usize,
    clock: u64,
}

impl<K, V> std::fmt::Debug for Lru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lru")
            .field("len", &self.entries.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map holding at most `capacity` entries. Capacity 0
    /// stores nothing.
    pub(crate) fn new(capacity: usize) -> Self {
        Lru {
            entries: HashMap::new(),
            capacity,
            clock: 0,
        }
    }

    /// The entry under `key`, marked most recently used.
    pub(crate) fn get<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.clock += 1;
        let (value, last_used) = self.entries.get_mut(key)?;
        *last_used = self.clock;
        Some(value)
    }

    /// Inserts (or replaces) the entry under `key` as the most recently
    /// used one. A new key at capacity first evicts the least recently
    /// used entry. Returns whether an entry was evicted.
    pub(crate) fn insert(&mut self, key: K, value: V) -> bool {
        self.clock += 1;
        if self.capacity == 0 {
            return false;
        }
        let mut evicted = false;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(k, _)| k.clone());
            if let Some(lru) = lru {
                self.entries.remove(&lru);
                evicted = true;
            }
        }
        self.entries.insert(key, (value, self.clock));
        evicted
    }

    /// Removes and returns the entry under `key`.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key).map(|(value, _)| value)
    }

    /// The entries, in no particular order, without marking any of
    /// them used.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.values().map(|(value, _)| value)
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: with capacity 0 there is nothing to evict — the old
    /// eviction helper used to `.expect("non-empty cache")` on the
    /// empty scan and panic the daemon's collector thread.
    #[test]
    fn evict_at_zero_capacity_on_empty_map_does_not_panic() {
        let mut lru: Lru<String, u64> = Lru::new(0);
        assert!(!lru.insert("fresh".to_owned(), 1));
        assert_eq!(lru.len(), 0);
        assert_eq!(lru.get(&"fresh".to_owned()), None);
    }

    /// At capacity a new key evicts the least recently used entry;
    /// `get` counts as a use.
    #[test]
    fn evict_drops_lru_at_capacity() {
        let mut lru: Lru<&str, u64> = Lru::new(2);
        assert!(!lru.insert("old", 1));
        assert!(!lru.insert("new", 2));
        assert!(lru.insert("fresh", 3));
        assert_eq!(lru.get(&"old"), None, "oldest entry evicted");
        assert_eq!(lru.len(), 2);

        // Touching "new" makes "fresh" the eviction candidate.
        assert_eq!(lru.get(&"new"), Some(&2));
        assert!(lru.insert("newer", 4));
        assert_eq!(lru.get(&"fresh"), None);
        assert_eq!(lru.get(&"new"), Some(&2));
    }

    /// Replacing a present key never evicts, however full the map is.
    #[test]
    fn present_keys_never_evict() {
        let mut lru: Lru<&str, u64> = Lru::new(1);
        assert!(!lru.insert("only", 1));
        assert!(!lru.insert("only", 2));
        assert_eq!(lru.get(&"only"), Some(&2));
        assert_eq!(lru.len(), 1);
    }

    /// `values` reads every entry and counts as no use: the entry it
    /// passed over first is still the eviction candidate.
    #[test]
    fn remove_drops_entries_and_values_reads_them_all() {
        let mut lru: Lru<u64, u64> = Lru::new(4);
        for k in 0..4 {
            lru.insert(k, k * 10);
        }
        assert_eq!(lru.remove(&1), Some(10));
        assert_eq!(lru.remove(&1), None);
        assert_eq!(lru.len(), 3);
        let mut values: Vec<u64> = lru.values().copied().collect();
        values.sort_unstable();
        assert_eq!(values, [0, 20, 30]);
        assert!(!lru.insert(4, 40));
        assert!(lru.insert(5, 50));
        assert_eq!(lru.get(&0), None, "values did not refresh the oldest");
        assert_eq!(lru.get(&3), Some(&30));
    }
}
