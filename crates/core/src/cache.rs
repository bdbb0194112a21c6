//! Cross-query VCP result cache.
//!
//! [`vcp_pair`](crate::vcp_pair) is the engine's dominant cost: every call
//! enumerates input correspondences and drives the verifier. Its result is
//! a pure function of the two lifted strands and the [`VcpConfig`]
//! thresholds, and both sides are deduplicated by structural hash — so the
//! pair `(query hash, class hash, config fingerprint)` fully determines
//! the answer. This module memoizes that function across `query()` calls
//! (and, via the persisted cache segments of a sharded index, across
//! processes).
//!
//! The map is sharded: workers in the work-stealing VCP scheduler hit
//! disjoint shards most of the time, so a single global lock would
//! serialize exactly the part of the pipeline the paper parallelizes
//! (§5.5). The hit/miss counters are exact but not written per lookup:
//! the engine's pricing workers look up with [`VcpCache::peek`], tally
//! hits and misses in plain integers, and add them once per worker
//! through [`VcpCache::record_lookups`], so a warm cell writes no line
//! that other workers share. [`VcpCache::get`] counts its own lookup.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::vcp::VcpPair;

/// Cache key: `(query structural hash, class structural hash,
/// VcpConfig fingerprint)`.
pub type VcpKey = (u64, u64, u64);

/// One persisted cache entry (a row of an index's cache segment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VcpCacheEntry {
    /// Structural hash of the query strand.
    pub query_hash: u64,
    /// Structural hash of the corpus strand class.
    pub class_hash: u64,
    /// [`crate::VcpConfig::fingerprint`] the result was computed under.
    pub vcp_fingerprint: u64,
    /// The memoized result.
    pub pair: VcpPair,
}

/// Point-in-time counter snapshot for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the verifier.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const SHARDS: usize = 16;

/// Sharded concurrent map from [`VcpKey`] to [`VcpPair`].
#[derive(Debug)]
pub struct VcpCache {
    shards: Vec<Mutex<HashMap<VcpKey, VcpPair>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for VcpCache {
    fn default() -> VcpCache {
        VcpCache::new()
    }
}

impl VcpCache {
    /// Creates an empty cache.
    pub fn new() -> VcpCache {
        VcpCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &VcpKey) -> &Mutex<HashMap<VcpKey, VcpPair>> {
        // The components are already hashes; mixing them is enough to
        // spread keys without re-hashing.
        let mix = key.0 ^ key.1.rotate_left(17) ^ key.2.rotate_left(43);
        &self.shards[(mix as usize) % SHARDS]
    }

    /// Looks up a memoized result, counting the outcome.
    pub fn get(&self, key: &VcpKey) -> Option<VcpPair> {
        let found = self.peek(key);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Looks up a memoized result **without** counting the outcome.
    ///
    /// The refine-top-K pass scans every served-window cell to separate
    /// cache-known values from candidates for re-verification; counting
    /// those scans as misses would break the `misses == vcp_pair
    /// invocations` identity the benches report as `verifier_calls`.
    /// The matrix pass's lookups are counted, but by the worker that
    /// makes them ([`VcpCache::record_lookups`]).
    pub fn peek(&self, key: &VcpKey) -> Option<VcpPair> {
        self.shard(key)
            .lock()
            .expect("cache shard")
            .get(key)
            .copied()
    }

    /// Adds `hits` and `misses` counted lookups that a caller tallied
    /// over [`VcpCache::peek`].
    pub fn record_lookups(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Memoizes one result.
    pub fn insert(&self, key: VcpKey, pair: VcpPair) {
        self.shard(&key)
            .lock()
            .expect("cache shard")
            .insert(key, pair);
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").len())
            .sum()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters and size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Zeroes the hit/miss counters (entries are kept).
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Exports every entry, sorted by key for deterministic indexes.
    pub fn entries(&self) -> Vec<VcpCacheEntry> {
        let mut out: Vec<VcpCacheEntry> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            for (&(query_hash, class_hash, vcp_fingerprint), &pair) in
                shard.lock().expect("cache shard").iter()
            {
                out.push(VcpCacheEntry {
                    query_hash,
                    class_hash,
                    vcp_fingerprint,
                    pair,
                });
            }
        }
        out.sort_by_key(|e| (e.query_hash, e.class_hash, e.vcp_fingerprint));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(q: f64, t: f64) -> VcpPair {
        VcpPair {
            q_in_t: q,
            t_in_q: t,
        }
    }

    #[test]
    fn get_counts_hits_and_misses() {
        let cache = VcpCache::new();
        assert_eq!(cache.get(&(1, 2, 3)), None);
        cache.insert((1, 2, 3), pair(0.5, 0.25));
        assert_eq!(cache.get(&(1, 2, 3)), Some(pair(0.5, 0.25)));
        assert_eq!(cache.get(&(1, 2, 3)), Some(pair(0.5, 0.25)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn entries_round_trip_and_sort() {
        let cache = VcpCache::new();
        cache.insert((9, 1, 7), pair(1.0, 0.0));
        cache.insert((2, 5, 7), pair(0.0, 1.0));
        let entries = cache.entries();
        assert_eq!(entries.len(), 2);
        assert!(entries[0].query_hash < entries[1].query_hash);
        let rebuilt = VcpCache::new();
        for e in &entries {
            rebuilt.insert((e.query_hash, e.class_hash, e.vcp_fingerprint), e.pair);
        }
        assert_eq!(rebuilt.get(&(9, 1, 7)), Some(pair(1.0, 0.0)));
        assert_eq!(rebuilt.get(&(2, 5, 7)), Some(pair(0.0, 1.0)));
        assert_eq!(rebuilt.stats().entries, 2);
    }

    #[test]
    fn reset_keeps_entries() {
        let cache = VcpCache::new();
        cache.insert((1, 1, 1), pair(0.5, 0.5));
        let _ = cache.get(&(1, 1, 1));
        cache.reset_counters();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = VcpCache::new();
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..256u64 {
                        cache.insert((w, i, 0), pair(w as f64, i as f64));
                        assert!(cache.get(&(w, i, 0)).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.len(), 4 * 256);
        assert_eq!(cache.stats().hits, 4 * 256);
    }
}
