//! A small, dependency-free LRU cache: the bounded store behind the
//! [`MiningArtifactCache`](crate::MiningArtifactCache)'s per-origin-cell
//! expansions and per-departure period networks.
//!
//! Classic design: a hash map from key to slot index plus an intrusive
//! doubly-linked recency list over a slab of slots, so `get`, `insert`
//! and eviction are all O(1).

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used cache.
#[derive(Debug)]
pub struct Lru<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Lru {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every entry, releasing the values (capacity is kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &i = self.map.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(&self.slots[i].value)
    }

    /// Inserts (or replaces) `key`, evicting the least recently used
    /// entry if at capacity. Returns the evicted `(key, value)` if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return None;
        }
        if self.map.len() == self.capacity {
            // Recycle the LRU slot in place.
            let i = self.tail;
            self.unlink(i);
            let old_key = std::mem::replace(&mut self.slots[i].key, key.clone());
            let old_value = std::mem::replace(&mut self.slots[i].value, value);
            self.map.remove(&old_key);
            self.map.insert(key, i);
            self.push_front(i);
            return Some((old_key, old_value));
        }
        let i = self.slots.len();
        self.slots.push(Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, i);
        self.push_front(i);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_eviction_order() {
        let mut lru = Lru::new(3);
        assert!(lru.is_empty());
        lru.insert("a", 1);
        lru.insert("b", 2);
        lru.insert("c", 3);
        assert_eq!(lru.len(), 3);
        // Touch `a`: now `b` is least recent.
        assert_eq!(lru.get(&"a"), Some(&1));
        let evicted = lru.insert("d", 4);
        assert_eq!(evicted, Some(("b", 2)));
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.get(&"c"), Some(&3));
        assert_eq!(lru.get(&"d"), Some(&4));
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.capacity(), 3);
    }

    #[test]
    fn replace_updates_value_without_evicting() {
        let mut lru = Lru::new(2);
        lru.insert(1, "x");
        lru.insert(2, "y");
        assert!(lru.insert(1, "z").is_none());
        assert_eq!(lru.get(&1), Some(&"z"));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn capacity_one_works() {
        let mut lru = Lru::new(1);
        lru.insert(1, 1);
        assert_eq!(lru.insert(2, 2), Some((1, 1)));
        assert_eq!(lru.get(&1), None);
        assert_eq!(lru.get(&2), Some(&2));
    }

    #[test]
    fn long_churn_stays_consistent() {
        let mut lru = Lru::new(8);
        for i in 0..1000u32 {
            lru.insert(i % 13, i);
            assert!(lru.len() <= 8);
        }
        // The 8 most recent distinct keys must be present.
        let mut present = 0;
        for k in 0..13 {
            if lru.get(&k).is_some() {
                present += 1;
            }
        }
        assert_eq!(present, 8);
    }
}
