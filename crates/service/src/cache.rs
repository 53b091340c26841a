//! A sharded, capacity-bounded plan cache shared by all worker threads.
//!
//! Keys are `(NPD digest, options digest)`; values are the finished
//! [`PlanArtifact`](crate::pipeline::PlanArtifact)s behind `Arc`, so a hit
//! hands back the exact bytes the original job produced without copying.
//! Eviction is FIFO per shard: the planner's outputs are deterministic, so
//! recency bookkeeping buys nothing — the cache exists to absorb repeated
//! submissions of the same document, which arrive in bursts.
//!
//! Each shard keeps its own hit/miss/eviction counters under its lock
//! (surfaced as the `klotski_cache_shard_*` metric families) so an operator
//! can see a skewed tenant population hammering one shard; the aggregate
//! `klotski_cache_*` series are their sums, taken at scrape time.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Number of independent shards. Power of two so shard selection is a mask.
pub const SHARDS: usize = 8;

struct Shard<V> {
    map: HashMap<(u64, u64), Arc<V>>,
    order: VecDeque<(u64, u64)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Point-in-time counters for one shard, for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Entries resident in the shard.
    pub entries: usize,
    /// Lookups answered by this shard.
    pub hits: u64,
    /// Lookups this shard missed.
    pub misses: u64,
    /// Entries evicted by the shard's FIFO bound.
    pub evictions: u64,
}

/// A concurrent capacity-bounded map from `(npd_digest, options_digest)` to
/// shared plan artifacts.
pub struct PlanCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// Per-shard capacity (total capacity rounded up to a multiple of
    /// [`SHARDS`]).
    shard_capacity: usize,
}

impl<V> PlanCache<V> {
    /// A cache holding at most ~`capacity` artifacts (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        order: VecDeque::new(),
                        hits: 0,
                        misses: 0,
                        evictions: 0,
                    })
                })
                .collect(),
            shard_capacity: capacity.div_ceil(SHARDS),
        }
    }

    fn shard(&self, key: (u64, u64)) -> &Mutex<Shard<V>> {
        // Mix both digests so documents differing only in options spread.
        let h = key.0 ^ key.1.rotate_left(32);
        &self.shards[(h as usize) & (SHARDS - 1)]
    }

    /// Looks up a finished artifact, counting the hit or miss.
    pub fn get(&self, key: (u64, u64)) -> Option<Arc<V>> {
        if self.shard_capacity == 0 {
            self.shard(key).lock().unwrap().misses += 1;
            return None;
        }
        let mut shard = self.shard(key).lock().unwrap();
        match shard.map.get(&key) {
            Some(v) => {
                let v = Arc::clone(v);
                shard.hits += 1;
                Some(v)
            }
            None => {
                shard.misses += 1;
                None
            }
        }
    }

    /// Inserts an artifact, evicting the oldest entry in the shard when at
    /// capacity. Re-inserting an existing key refreshes the value without
    /// growing the shard.
    pub fn insert(&self, key: (u64, u64), value: Arc<V>) {
        if self.shard_capacity == 0 {
            return;
        }
        let mut shard = self.shard(key).lock().unwrap();
        if shard.map.insert(key, value).is_none() {
            shard.order.push_back(key);
            while shard.order.len() > self.shard_capacity {
                if let Some(old) = shard.order.pop_front() {
                    shard.map.remove(&old);
                    shard.evictions += 1;
                }
            }
        }
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits since construction.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().unwrap().hits).sum()
    }

    /// Misses since construction.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().unwrap().misses).sum()
    }

    /// Evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().evictions)
            .sum()
    }

    /// Per-shard counters, in shard order (for the labeled metric
    /// families).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().unwrap();
                ShardStats {
                    entries: shard.map.len(),
                    hits: shard.hits,
                    misses: shard.misses,
                    evictions: shard.evictions,
                }
            })
            .collect()
    }

    /// Every resident entry, FIFO order within each shard (the journal
    /// compactor's view of what is worth persisting).
    pub fn snapshot(&self) -> Vec<((u64, u64), Arc<V>)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let shard = s.lock().unwrap();
            for key in &shard.order {
                if let Some(v) = shard.map.get(key) {
                    out.push((*key, Arc::clone(v)));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_same_arc() {
        let cache = PlanCache::new(16);
        assert!(cache.get((1, 2)).is_none());
        let v = Arc::new("artifact".to_string());
        cache.insert((1, 2), Arc::clone(&v));
        let got = cache.get((1, 2)).expect("hit");
        assert!(Arc::ptr_eq(&got, &v));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn capacity_bounds_entries_and_counts_evictions() {
        let cache = PlanCache::new(SHARDS); // one slot per shard
        for i in 0..100u64 {
            cache.insert((i, 0), Arc::new(i));
        }
        assert!(
            cache.len() <= SHARDS,
            "cache grew to {} entries",
            cache.len()
        );
        // The newest key in some shard must still be resident.
        assert!((0..100u64).any(|i| cache.get((i, 0)).is_some()));
        assert_eq!(cache.evictions(), 100 - cache.len() as u64);
        let stats = cache.shard_stats();
        assert_eq!(stats.len(), SHARDS);
        assert_eq!(
            stats.iter().map(|s| s.evictions).sum::<u64>(),
            cache.evictions()
        );
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        cache.insert((1, 1), Arc::new(7u32));
        assert!(cache.get((1, 1)).is_none());
        assert_eq!(cache.len(), 0);
        // The miss still lands on the key's shard.
        assert_eq!(cache.shard_stats().iter().map(|s| s.misses).sum::<u64>(), 1);
    }

    #[test]
    fn options_digest_distinguishes_entries() {
        let cache = PlanCache::new(64);
        cache.insert((1, 10), Arc::new("astar"));
        cache.insert((1, 20), Arc::new("dp"));
        assert_eq!(*cache.get((1, 10)).unwrap(), "astar");
        assert_eq!(*cache.get((1, 20)).unwrap(), "dp");
    }

    #[test]
    fn per_shard_counters_sum_to_globals() {
        let cache = PlanCache::new(64);
        for i in 0..32u64 {
            cache.insert((i, i), Arc::new(i));
        }
        for i in 0..48u64 {
            let _ = cache.get((i, i)); // 32 hits, 16 misses
        }
        let stats = cache.shard_stats();
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), cache.hits());
        assert_eq!(stats.iter().map(|s| s.misses).sum::<u64>(), cache.misses());
        assert_eq!(stats.iter().map(|s| s.entries).sum::<usize>(), cache.len());
    }

    #[test]
    fn snapshot_returns_every_resident_entry() {
        let cache = PlanCache::new(64);
        for i in 0..10u64 {
            cache.insert((i, 1), Arc::new(i));
        }
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 10);
        for (key, v) in snap {
            assert_eq!(*v, key.0);
        }
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = Arc::new(PlanCache::new(256));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let key = (i % 32, t);
                        if let Some(v) = cache.get(key) {
                            assert_eq!(*v, key.0 * 1000 + key.1);
                        } else {
                            cache.insert(key, Arc::new(key.0 * 1000 + key.1));
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(cache.len() <= 128);
    }
}
