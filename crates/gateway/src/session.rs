//! Per-connection response caching for repeat-OD clients.
//!
//! A commuter app polls the same OD pair on one keep-alive connection
//! every few seconds; the platform would serve each poll from its truth
//! store, but even a truth hit pays submit → queue → worker dispatch →
//! ticket wakeup. The session cache short-circuits the repeat *at the
//! edge*: a small per-connection LRU of fully rendered `/route`
//! response bodies, keyed by the exact request parameters.
//!
//! Entries are **generation-versioned** against
//! [`World::generation`](cp_service::World::generation), exactly like
//! the serving layer's `MiningArtifactCache`: a response rendered at
//! generation *g* is served only while the city's world is still at
//! *g*. After `bump_generation` (the generation moved on), the stale body
//! is dropped and the request goes back through the platform — the edge
//! can never pin a client to a pre-mutation route.
//!
//! The cache is connection-private (it lives on the handler's stack
//! while the connection does), so it needs no locking and dies with the
//! connection — it is affinity caching, not a shared response cache
//! with invalidation traffic.

use std::collections::VecDeque;

/// Exact identity of a cacheable `/route` request on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionKey {
    /// City id.
    pub city: u32,
    /// Origin node.
    pub from: u32,
    /// Destination node.
    pub to: u32,
    /// Departure time bits (`TimeOfDay.0.to_bits()` — exact match only;
    /// canonicalisation happens behind the platform, not at the edge).
    pub t_bits: u64,
}

struct SessionEntry {
    key: SessionKey,
    /// The world generation the body was rendered at.
    generation: u64,
    body: String,
}

/// A bounded per-connection LRU of rendered response bodies.
pub struct SessionCache {
    cap: usize,
    /// Most-recently-used at the back.
    entries: VecDeque<SessionEntry>,
}

impl SessionCache {
    /// A cache holding at most `cap` rendered responses (0 disables it).
    pub fn new(cap: usize) -> SessionCache {
        SessionCache {
            cap,
            entries: VecDeque::with_capacity(cap.min(64)),
        }
    }

    /// The cached body for `key`, if it exists *and* was rendered at
    /// `current_generation`. A stale entry (older generation) is dropped
    /// on sight — serving it would pin the client to pre-mutation
    /// mining state.
    pub fn get(&mut self, key: SessionKey, current_generation: u64) -> Option<&str> {
        let idx = self.entries.iter().position(|e| e.key == key)?;
        if self.entries[idx].generation != current_generation {
            self.entries.remove(idx);
            return None;
        }
        // Move to the back (most recently used).
        let entry = self.entries.remove(idx).expect("index in bounds");
        self.entries.push_back(entry);
        self.entries.back().map(|e| e.body.as_str())
    }

    /// Stores a rendered body for `key` at `generation`, evicting the
    /// least-recently-used entry when full.
    pub fn put(&mut self, key: SessionKey, generation: u64, body: String) {
        if self.cap == 0 {
            return;
        }
        if let Some(idx) = self.entries.iter().position(|e| e.key == key) {
            self.entries.remove(idx);
        }
        while self.entries.len() >= self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back(SessionEntry {
            key,
            generation,
            body,
        });
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u32) -> SessionKey {
        SessionKey {
            city: 0,
            from: n,
            to: n + 1,
            t_bits: 42,
        }
    }

    #[test]
    fn hit_requires_matching_generation() {
        let mut cache = SessionCache::new(4);
        cache.put(key(1), 7, "body".into());
        assert_eq!(cache.get(key(1), 7), Some("body"));
        // A generation bump invalidates on sight.
        assert_eq!(cache.get(key(1), 8), None);
        assert!(cache.is_empty(), "stale entry dropped");
    }

    #[test]
    fn lru_evicts_oldest_and_get_refreshes_recency() {
        let mut cache = SessionCache::new(2);
        cache.put(key(1), 0, "a".into());
        cache.put(key(2), 0, "b".into());
        assert_eq!(cache.get(key(1), 0), Some("a")); // 1 now most recent
        cache.put(key(3), 0, "c".into()); // evicts 2
        assert_eq!(cache.get(key(2), 0), None);
        assert_eq!(cache.get(key(1), 0), Some("a"));
        assert_eq!(cache.get(key(3), 0), Some("c"));
    }

    #[test]
    fn put_replaces_same_key_and_zero_capacity_disables() {
        let mut cache = SessionCache::new(2);
        cache.put(key(1), 0, "old".into());
        cache.put(key(1), 1, "new".into());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(key(1), 1), Some("new"));

        let mut off = SessionCache::new(0);
        off.put(key(1), 0, "x".into());
        assert_eq!(off.get(key(1), 0), None);
    }
}
