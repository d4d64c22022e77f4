//! Sharded LRU prediction cache.
//!
//! Predictions are pure functions of `(model id, version, feature digest)`,
//! so a recurring plan signature (the paper's "recurrent jobs" workload,
//! Zhu et al. §3) can skip inference entirely. The cache is sharded to keep
//! lock contention off the multi-threaded serving path; each shard runs an
//! exact LRU over its own slice of the capacity.
//!
//! A shard is a `HashMap` from key to a slot in a node slab, and the nodes
//! form a doubly linked recency list. `get` and `insert` are O(1): a hit or
//! a refresh moves the node to the head, and an insert into a full shard
//! unlinks the tail, reuses that node in place and drops the victim's key
//! from the map. Every touch moves a node to the head and a miss reorders
//! nothing, so list order is last-touch order and the tail is exactly the
//! least recently used entry. Once a shard is warm (full), an insert
//! reuses the victim's node in place: the slab never grows again and the map
//! holds a fixed number of keys, so inserts do no per-entry allocation.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Key identifying one cached prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Gateway-stable model id ([`crate::ModelHandle::index`]).
    pub model: u64,
    /// Deployed model version the prediction came from.
    pub version: u64,
    /// FNV-1a digest of the feature vector bits (`obs::digest_f64`).
    pub digest: u64,
}

impl CacheKey {
    fn shard_hash(&self) -> u64 {
        // SplitMix64 finalizer over the mixed key — spreads sequential
        // digests evenly across shards.
        let mut x = self
            .model
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            ^ self.version.wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ self.digest;
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// `nodes` index meaning "no node" (list ends, empty shard).
const NIL: u32 = u32::MAX;

/// One cached entry, linked into its shard's recency list.
#[derive(Debug)]
struct Node {
    key: CacheKey,
    value: f64,
    /// Next more recently touched node (`NIL` at the head).
    newer: u32,
    /// Next less recently touched node (`NIL` at the tail).
    older: u32,
}

/// One shard: a hash index into a slab of nodes threaded on a doubly
/// linked recency list, most recent at `head`, least recent at `tail`.
#[derive(Debug)]
struct Shard {
    map: HashMap<CacheKey, u32>,
    nodes: Vec<Node>,
    head: u32,
    tail: u32,
}

impl Shard {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, i: u32) {
        let Node { newer, older, .. } = self.nodes[i as usize];
        match newer {
            NIL => self.head = older,
            n => self.nodes[n as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.nodes[o as usize].newer = newer,
        }
    }

    fn push_head(&mut self, i: u32) {
        let old_head = self.head;
        let node = &mut self.nodes[i as usize];
        node.newer = NIL;
        node.older = old_head;
        match old_head {
            NIL => self.tail = i,
            h => self.nodes[h as usize].newer = i,
        }
        self.head = i;
    }

    /// Makes node `i` the most recent.
    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_head(i);
        }
    }
}

/// Sharded LRU cache of scalar predictions.
///
/// Each shard keeps its entries on an intrusive recency list over a slab of
/// nodes, so `get` and `insert` are O(1): a hit moves its node to the head,
/// and an insert into a full shard recycles the tail node in place. The
/// tail is exactly the least recently touched entry — every touch moves a
/// node to the head and a miss reorders nothing — so eviction is exact LRU
/// within the shard. Once a shard has filled, inserts recycle nodes and make
/// no per-entry allocation.
#[derive(Debug)]
pub struct PredictionCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PredictionCache {
    /// Creates a cache holding roughly `capacity` entries across `shards`
    /// shards (each shard holds `ceil(capacity / shards)`, min 1, at most
    /// `u32::MAX` so node indices fit their `u32` links).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards).clamp(1, NIL as usize);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &CacheKey) -> usize {
        (key.shard_hash() % self.shards.len() as u64) as usize
    }

    /// Looks up a prediction, bumping its recency and the hit/miss counters.
    pub fn get(&self, key: &CacheKey) -> Option<f64> {
        let mut shard = self.shards[self.shard_of(key)].lock();
        match shard.map.get(key).copied() {
            Some(i) => {
                shard.touch(i);
                let value = shard.nodes[i as usize].value;
                drop(shard);
                self.hits.fetch_add(1, Relaxed);
                Some(value)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Relaxed);
                None
            }
        }
    }

    /// Looks up a prediction without touching recency or counters.
    pub fn peek(&self, key: &CacheKey) -> Option<f64> {
        let shard = self.shards[self.shard_of(key)].lock();
        shard.map.get(key).map(|&i| shard.nodes[i as usize].value)
    }

    /// Inserts (or refreshes) a prediction as the most recent entry of its
    /// shard, evicting the shard's least-recently-used entry if it is full.
    pub fn insert(&self, key: CacheKey, value: f64) {
        let mut shard = self.shards[self.shard_of(&key)].lock();
        if let Some(&i) = shard.map.get(&key) {
            shard.nodes[i as usize].value = value;
            shard.touch(i);
            return;
        }
        let i = if shard.nodes.len() < self.per_shard {
            shard.nodes.push(Node {
                key,
                value,
                newer: NIL,
                older: NIL,
            });
            (shard.nodes.len() - 1) as u32
        } else {
            let victim = shard.tail;
            shard.unlink(victim);
            let node = &mut shard.nodes[victim as usize];
            let old_key = std::mem::replace(&mut node.key, key);
            node.value = value;
            shard.map.remove(&old_key);
            self.evictions.fetch_add(1, Relaxed);
            victim
        };
        shard.map.insert(key, i);
        shard.push_head(i);
    }

    /// Total entries currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard entry budget.
    pub fn per_shard_capacity(&self) -> usize {
        self.per_shard
    }

    /// All cached keys of one shard, most recent first — a walk of the
    /// shard's recency list from its head, so the last key is the next
    /// eviction victim (test/diagnostic helper; takes the shard lock).
    pub fn shard_keys_by_recency(&self, shard: usize) -> Vec<CacheKey> {
        let guard = self.shards[shard].lock();
        let mut keys = Vec::with_capacity(guard.map.len());
        let mut i = guard.head;
        while i != NIL {
            let node = &guard.nodes[i as usize];
            keys.push(node.key);
            i = node.older;
        }
        keys
    }

    /// Shard index a key maps to (test/diagnostic helper).
    pub fn shard_index(&self, key: &CacheKey) -> usize {
        self.shard_of(key)
    }

    /// Cache hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    /// Cache misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Relaxed)
    }

    /// Evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(d: u64) -> CacheKey {
        CacheKey {
            model: 0,
            version: 1,
            digest: d,
        }
    }

    #[test]
    fn hit_returns_inserted_value_bitwise() {
        let cache = PredictionCache::new(8, 2);
        cache.insert(key(42), 1.5e-3);
        assert_eq!(cache.get(&key(42)).unwrap().to_bits(), 1.5e-3f64.to_bits());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn miss_counts_and_returns_none() {
        let cache = PredictionCache::new(8, 2);
        assert!(cache.get(&key(7)).is_none());
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent_within_shard() {
        // Single shard, capacity 2: inserting a third key evicts the least
        // recently used of the first two.
        let cache = PredictionCache::new(2, 1);
        cache.insert(key(1), 1.0);
        cache.insert(key(2), 2.0);
        assert!(cache.get(&key(1)).is_some()); // key 1 now most recent
        cache.insert(key(3), 3.0); // evicts key 2
        assert!(cache.peek(&key(1)).is_some());
        assert!(cache.peek(&key(2)).is_none());
        assert!(cache.peek(&key(3)).is_some());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let cache = PredictionCache::new(2, 1);
        cache.insert(key(1), 1.0);
        cache.insert(key(2), 2.0);
        cache.insert(key(1), 10.0); // refresh, not an eviction
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.peek(&key(1)), Some(10.0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_into_full_shard_moves_key_to_most_recent() {
        let cache = PredictionCache::new(3, 1);
        for d in 1..=3 {
            cache.insert(key(d), d as f64);
        }
        // Key 1 is the LRU tail; refreshing it must not evict anything.
        cache.insert(key(1), 10.0);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.shard_keys_by_recency(0), vec![key(1), key(3), key(2)]);
        // Refreshing the head is a no-op on the order.
        cache.insert(key(1), 11.0);
        assert_eq!(cache.shard_keys_by_recency(0), vec![key(1), key(3), key(2)]);
        assert_eq!(cache.peek(&key(1)), Some(11.0));
        // The next fresh key now evicts key 2, the true LRU.
        cache.insert(key(4), 4.0);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.shard_keys_by_recency(0), vec![key(4), key(1), key(3)]);
        assert!(cache.peek(&key(2)).is_none());
    }

    #[test]
    fn capacity_is_per_shard() {
        let cache = PredictionCache::new(16, 4);
        assert_eq!(cache.shard_count(), 4);
        assert_eq!(cache.per_shard_capacity(), 4);
    }
}
