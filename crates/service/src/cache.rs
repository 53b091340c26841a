//! The capacity-bounded plan cache shared by connection and worker threads.
//!
//! Keys are `(NPD digest, options digest)`; values are the finished
//! [`PlanArtifact`](crate::pipeline::PlanArtifact)s behind `Arc`, so a hit
//! hands back the exact bytes the original job produced without copying.
//! Eviction is FIFO: the planner's outputs are deterministic, so recency
//! bookkeeping buys nothing — the cache exists to absorb repeated
//! submissions of the same document, which arrive in bursts.
//!
//! It is also the daemon's one warm store: an entry a worker planned keeps
//! its search's ESC verdicts beside the artifact, and a miss starts from
//! those of the newest resident entry under its store key
//! ([`PlanCache::newest`]). So `--cache N` bounds verdict reuse too, and
//! eviction is its only loss. They sit beside the artifact, not in it,
//! because a finished job kept for polling holds its artifact long after
//! the cache has let the entry go.
//!
//! One mutex guards the map, the age order and the counters: a lookup is a
//! hash probe and an `Arc` clone (~100 ns) against requests that each parse
//! a document and open a connection, so there is nothing for shards to win,
//! and one FIFO makes the capacity exact and the eviction order the
//! insertion order rather than a property of which keys hash together.

use crate::jobs::JobKey;
use crate::locked;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

struct Inner<V, W> {
    /// Each key's artifact, and the warm state kept beside it.
    map: HashMap<JobKey, (Arc<V>, Option<Arc<W>>)>,
    /// Resident keys, oldest first.
    order: VecDeque<JobKey>,
    stats: CacheStats,
}

/// Point-in-time counters, for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries resident.
    pub entries: usize,
    /// Lookups answered.
    pub hits: u64,
    /// Lookups missed.
    pub misses: u64,
    /// Entries evicted by the FIFO bound.
    pub evictions: u64,
}

/// A concurrent capacity-bounded map from `(npd_digest, options_digest)` to
/// shared plan artifacts, each with optional warm state `W` beside it.
pub struct PlanCache<V, W = ()> {
    inner: Mutex<Inner<V, W>>,
    capacity: usize,
}

impl<V, W> PlanCache<V, W> {
    /// A cache holding at most `capacity` artifacts (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                stats: CacheStats::default(),
            }),
            capacity,
        }
    }

    /// Looks up a finished artifact, counting the hit or miss.
    pub fn get(&self, key: JobKey) -> Option<Arc<V>> {
        let mut inner = locked(&self.inner);
        let hit = inner.map.get(&key).map(|(value, _)| Arc::clone(value));
        match hit {
            Some(_) => inner.stats.hits += 1,
            None => inner.stats.misses += 1,
        }
        hit
    }

    /// Inserts an artifact and its warm state, evicting the oldest entry
    /// when at capacity. Re-inserting an existing key refreshes both without
    /// growing the cache or renewing the key's age.
    pub fn insert(&self, key: JobKey, value: Arc<V>, warm: Option<W>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = locked(&self.inner);
        if (inner.map.insert(key, (value, warm.map(Arc::new)))).is_none() {
            inner.order.push_back(key);
            while inner.order.len() > self.capacity {
                if let Some(old) = inner.order.pop_front() {
                    inner.map.remove(&old);
                    inner.stats.evictions += 1;
                }
            }
        }
    }

    /// The warm state of the newest resident entry whose warm state `pick`
    /// accepts, found by a scan of the age order under the lock (at most
    /// `capacity` entries); not counted as a lookup.
    pub fn newest(&self, pick: impl Fn(&W) -> bool) -> Option<Arc<W>> {
        let inner = locked(&self.inner);
        (inner.order.iter().rev())
            .filter_map(|key| inner.map.get(key)?.1.as_ref())
            .find(|warm| pick(warm))
            .cloned()
    }

    /// The counters and the resident entry count.
    pub fn stats(&self) -> CacheStats {
        let inner = locked(&self.inner);
        CacheStats {
            entries: inner.map.len(),
            ..inner.stats
        }
    }

    /// Every resident entry, oldest first (the journal compactor's view of
    /// what is worth persisting, in the order a replay re-inserts it).
    pub fn snapshot(&self) -> Vec<(JobKey, Arc<V>)> {
        let inner = locked(&self.inner);
        inner
            .order
            .iter()
            .filter_map(|key| Some((*key, Arc::clone(&inner.map.get(key)?.0))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_same_arc() {
        let cache: PlanCache<_> = PlanCache::new(16);
        assert!(cache.get((1, 2)).is_none());
        let v = Arc::new("artifact".to_string());
        cache.insert((1, 2), Arc::clone(&v), None);
        let got = cache.get((1, 2)).expect("hit");
        assert!(Arc::ptr_eq(&got, &v));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn capacity_is_exact_and_eviction_is_oldest_first() {
        // Not a multiple of anything: `--cache 10` holds ten.
        let cache: PlanCache<_> = PlanCache::new(10);
        for i in 0..100u64 {
            cache.insert((i, 0), Arc::new(i), None);
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (10, 90));
        // Exactly the ten newest keys survive, whatever they hash to.
        for i in 0..100u64 {
            assert_eq!(cache.get((i, 0)).is_some(), i >= 90, "key {i}");
        }
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: PlanCache<_> = PlanCache::new(0);
        cache.insert((1, 1), Arc::new(7u32), None);
        assert!(cache.get((1, 1)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.misses), (0, 1));
    }

    #[test]
    fn options_digest_distinguishes_entries() {
        let cache: PlanCache<_> = PlanCache::new(64);
        cache.insert((1, 10), Arc::new("astar"), None);
        cache.insert((1, 20), Arc::new("dp"), None);
        assert_eq!(*cache.get((1, 10)).unwrap(), "astar");
        assert_eq!(*cache.get((1, 20)).unwrap(), "dp");
    }

    #[test]
    fn snapshot_is_every_resident_entry_in_age_order() {
        let cache: PlanCache<_> = PlanCache::new(8);
        for i in 0..10u64 {
            cache.insert((i, 1), Arc::new(i), None);
        }
        // A refresh keeps the key's place in the order.
        cache.insert((4, 1), Arc::new(4), None);
        let snap = cache.snapshot();
        let keys: Vec<u64> = snap.iter().map(|(key, _)| key.0).collect();
        assert_eq!(keys, (2..10).collect::<Vec<u64>>());
        for (key, v) in snap {
            assert_eq!(*v, key.0);
        }
    }

    #[test]
    fn newest_is_the_last_inserted_resident_warm_match_and_counts_nothing() {
        let cache = PlanCache::new(4);
        assert!(cache.newest(|_: &u64| true).is_none());
        for i in 0..6u64 {
            // Entry 5 keeps no warm state.
            cache.insert((i, 0), Arc::new(i), (i != 5).then_some(i * 10));
        }
        // A refresh keeps its age: 3 is still older than 4.
        cache.insert((3, 0), Arc::new(3), Some(30));
        assert_eq!(cache.newest(|_| true).as_deref(), Some(&40));
        assert_eq!(cache.newest(|w| *w < 40).as_deref(), Some(&30));
        // Evicted entries are not found.
        assert!(cache.newest(|w| *w < 20).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache: Arc<PlanCache<_>> = Arc::new(PlanCache::new(256));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let key = (i % 32, t);
                        if let Some(v) = cache.get(key) {
                            assert_eq!(*v, key.0 * 1000 + key.1);
                        } else {
                            cache.insert(key, Arc::new(key.0 * 1000 + key.1), None);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cache.stats().entries, 128);
    }
}
