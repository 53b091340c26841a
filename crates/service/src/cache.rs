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
//! Beside the map sits a byte index: each entry keeps the raw body of the
//! request that admitted it (the leader's bytes, as journaled), filed under
//! `(fnv1a(body), options digest)`. A request whose body equals a resident
//! entry's bytes under the same options is that entry's document, so
//! [`PlanCache::get_by_body`] answers it without decoding or digesting
//! anything; only equal bytes answer — a crafted FNV collision finds the
//! other body and misses. Everything else (a reformatted document, a new
//! body, an evicted entry) takes the digest path, [`PlanCache::get`], and a
//! digest hit on an entry without a body — one replayed from the journal —
//! files the hitting body. An entry holds at most one body and drops it
//! when evicted, so `--cache N` bounds the index too; a body is capped like
//! any request's, and a typical one is smaller than the plan-attached
//! document the entry already holds.
//!
//! One mutex guards the map, the byte index, the age order and the
//! counters: a lookup is a hash probe, at most one byte comparison and an
//! `Arc` clone, against requests that each open a connection, so there is
//! nothing for shards to win, and one FIFO makes the capacity exact and the
//! eviction order the insertion order rather than a property of which keys
//! hash together.

use crate::jobs::JobKey;
use crate::locked;
use klotski_npd::api::fnv1a;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// A request body as the byte index files it: the raw bytes and their
/// FNV-1a hash, taken outside the cache's lock.
#[derive(Debug, Clone, Copy)]
pub struct Body<'a> {
    hash: u64,
    bytes: &'a [u8],
}

impl<'a> Body<'a> {
    /// Hashes `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            hash: fnv1a(bytes),
            bytes,
        }
    }
}

/// One resident artifact, the warm state kept beside it, and the body
/// filed under it in the byte index (with that body's hash).
struct Resident<V, W> {
    value: Arc<V>,
    warm: Option<Arc<W>>,
    body: Option<(u64, Box<[u8]>)>,
}

struct Inner<V, W> {
    map: HashMap<JobKey, Resident<V, W>>,
    /// `(body hash, options digest)` → the entry whose body is filed there.
    /// An entry's `body` is set exactly when this maps its slot to it.
    bodies: HashMap<(u64, u64), JobKey>,
    /// Resident keys, oldest first.
    order: VecDeque<JobKey>,
    stats: CacheStats,
}

impl<V, W> Inner<V, W> {
    /// Files `body` under `key`'s entry, unless the entry already has one or
    /// the slot holds another entry's (colliding) bytes.
    fn file(&mut self, key: JobKey, body: Body) {
        let Some(entry) = self.map.get_mut(&key) else {
            return;
        };
        if entry.body.is_some() {
            return;
        }
        if let Entry::Vacant(slot) = self.bodies.entry((body.hash, key.1)) {
            slot.insert(key);
            entry.body = Some((body.hash, body.bytes.into()));
        }
    }
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
/// shared plan artifacts, each with optional warm state `W` and the body
/// that admitted it beside it.
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
                bodies: HashMap::new(),
                order: VecDeque::new(),
                stats: CacheStats::default(),
            }),
            capacity,
        }
    }

    /// The artifact of the entry admitted by exactly these bytes under
    /// these options. Counts a hit; a miss is not counted, because the
    /// request goes on to [`get`](Self::get), which counts its one lookup.
    pub fn get_by_body(&self, body: Body, options: u64) -> Option<Arc<V>> {
        let mut inner = locked(&self.inner);
        let key = inner.bodies.get(&(body.hash, options))?;
        let entry = inner.map.get(key)?;
        let filed = entry.body.as_ref().map(|(_, bytes)| &bytes[..]);
        let hit = (filed == Some(body.bytes)).then(|| Arc::clone(&entry.value))?;
        inner.stats.hits += 1;
        Some(hit)
    }

    /// Looks up a finished artifact by key, counting the hit or miss. A hit
    /// on an entry without a body files `body` under it.
    pub fn get(&self, key: JobKey, body: Body) -> Option<Arc<V>> {
        let mut inner = locked(&self.inner);
        let hit = inner.map.get(&key).map(|entry| Arc::clone(&entry.value));
        match hit {
            Some(_) => {
                inner.stats.hits += 1;
                inner.file(key, body);
            }
            None => inner.stats.misses += 1,
        }
        hit
    }

    /// The artifact under `key`, if resident; not counted as a lookup (a
    /// worker's re-check of a key its request already looked up).
    pub fn peek(&self, key: JobKey) -> Option<Arc<V>> {
        let inner = locked(&self.inner);
        inner.map.get(&key).map(|entry| Arc::clone(&entry.value))
    }

    /// Inserts an artifact, its warm state and the body that admitted it
    /// (none for a replayed artifact), evicting the oldest entry — and its
    /// body — when at capacity. Re-inserting an existing key refreshes the
    /// artifact and the warm state without growing the cache or renewing
    /// the key's age, and keeps the body already filed, if any.
    pub fn insert(&self, key: JobKey, value: Arc<V>, warm: Option<W>, body: Option<Body>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = locked(&self.inner);
        let warm = warm.map(Arc::new);
        if let Some(entry) = inner.map.get_mut(&key) {
            (entry.value, entry.warm) = (value, warm);
        } else {
            let resident = Resident {
                value,
                warm,
                body: None,
            };
            inner.map.insert(key, resident);
            inner.order.push_back(key);
            while inner.order.len() > self.capacity {
                if let Some(old) = inner.order.pop_front() {
                    if let Some((hash, _)) = inner.map.remove(&old).and_then(|e| e.body) {
                        inner.bodies.remove(&(hash, old.1));
                    }
                    inner.stats.evictions += 1;
                }
            }
        }
        if let Some(body) = body {
            inner.file(key, body);
        }
    }

    /// The warm state of the newest resident entry whose warm state `pick`
    /// accepts, found by a scan of the age order under the lock (at most
    /// `capacity` entries); not counted as a lookup.
    pub fn newest(&self, pick: impl Fn(&W) -> bool) -> Option<Arc<W>> {
        let inner = locked(&self.inner);
        (inner.order.iter().rev())
            .filter_map(|key| inner.map.get(key)?.warm.as_ref())
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
            .filter_map(|key| Some((*key, Arc::clone(&inner.map.get(key)?.value))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The empty request body, for tests that look up by key alone.
    fn empty() -> Body<'static> {
        Body::new(b"")
    }

    #[test]
    fn hit_returns_same_arc() {
        let cache: PlanCache<_> = PlanCache::new(16);
        assert!(cache.get((1, 2), empty()).is_none());
        let v = Arc::new("artifact".to_string());
        cache.insert((1, 2), Arc::clone(&v), None, None);
        let got = cache.get((1, 2), empty()).expect("hit");
        assert!(Arc::ptr_eq(&got, &v));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn capacity_is_exact_and_eviction_is_oldest_first() {
        // Not a multiple of anything: `--cache 10` holds ten.
        let cache: PlanCache<_> = PlanCache::new(10);
        for i in 0..100u64 {
            cache.insert((i, 0), Arc::new(i), None, None);
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (10, 90));
        // Exactly the ten newest keys survive, whatever they hash to.
        for i in 0..100u64 {
            assert_eq!(cache.get((i, 0), empty()).is_some(), i >= 90, "key {i}");
        }
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: PlanCache<_> = PlanCache::new(0);
        cache.insert((1, 1), Arc::new(7u32), None, None);
        assert!(cache.get((1, 1), empty()).is_none());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.misses), (0, 1));
    }

    #[test]
    fn options_digest_distinguishes_entries() {
        let cache: PlanCache<_> = PlanCache::new(64);
        cache.insert((1, 10), Arc::new("astar"), None, None);
        cache.insert((1, 20), Arc::new("dp"), None, None);
        assert_eq!(*cache.get((1, 10), empty()).unwrap(), "astar");
        assert_eq!(*cache.get((1, 20), empty()).unwrap(), "dp");
    }

    #[test]
    fn snapshot_is_every_resident_entry_in_age_order() {
        let cache: PlanCache<_> = PlanCache::new(8);
        for i in 0..10u64 {
            cache.insert((i, 1), Arc::new(i), None, None);
        }
        // A refresh keeps the key's place in the order.
        cache.insert((4, 1), Arc::new(4), None, None);
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
            cache.insert((i, 0), Arc::new(i), (i != 5).then_some(i * 10), None);
        }
        // A refresh keeps its age: 3 is still older than 4.
        cache.insert((3, 0), Arc::new(3), Some(30), None);
        assert_eq!(cache.newest(|_| true).as_deref(), Some(&40));
        assert_eq!(cache.newest(|w| *w < 40).as_deref(), Some(&30));
        // Evicted entries are not found.
        assert!(cache.newest(|w| *w < 20).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    /// `bytes` under another body's hash: a crafted FNV collision.
    fn colliding<'a>(with: &[u8], bytes: &'a [u8]) -> Body<'a> {
        Body {
            hash: Body::new(with).hash,
            bytes,
        }
    }

    fn filed<V, W>(cache: &PlanCache<V, W>) -> usize {
        locked(&cache.inner).bodies.len()
    }

    #[test]
    fn the_byte_index_answers_only_equal_bytes_under_equal_options() {
        let cache: PlanCache<_> = PlanCache::new(8);
        cache.insert((1, 7), Arc::new("one"), None, Some(Body::new(b"doc-one")));
        assert_eq!(
            cache.get_by_body(Body::new(b"doc-one"), 7).as_deref(),
            Some(&"one")
        );
        assert!(cache.get_by_body(Body::new(b"doc-one"), 8).is_none());
        assert!(cache.get_by_body(Body::new(b"doc-one "), 7).is_none());
        // Same hash, other bytes: the probe finds doc-one's bytes and misses.
        assert!(cache
            .get_by_body(colliding(b"doc-one", b"forged"), 7)
            .is_none());
        // A colliding body cannot take the slot from the one filed there; its
        // own entry answers only by digest.
        let forged = colliding(b"doc-one", b"forged");
        cache.insert((2, 7), Arc::new("two"), None, Some(forged));
        assert!(cache.get_by_body(forged, 7).is_none());
        assert_eq!(cache.get((2, 7), forged).as_deref(), Some(&"two"));
        assert!(cache.get_by_body(forged, 7).is_none());
        assert_eq!(
            cache.get_by_body(Body::new(b"doc-one"), 7).as_deref(),
            Some(&"one")
        );
        assert_eq!(filed(&cache), 1);
        // Each probe that answered is one hit; one that missed counts nothing.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 0));
    }

    #[test]
    fn eviction_drops_the_body_with_its_entry() {
        let cache: PlanCache<_> = PlanCache::new(1);
        cache.insert((1, 7), Arc::new(1), None, Some(Body::new(b"a")));
        cache.insert((2, 7), Arc::new(2), None, Some(Body::new(b"b")));
        assert!(cache.get_by_body(Body::new(b"a"), 7).is_none());
        assert_eq!(cache.get_by_body(Body::new(b"b"), 7).as_deref(), Some(&2));
        assert_eq!(filed(&cache), 1);
        // The freed slot files the next entry admitted with those bytes.
        cache.insert((1, 7), Arc::new(3), None, Some(Body::new(b"a")));
        assert_eq!(cache.get_by_body(Body::new(b"a"), 7).as_deref(), Some(&3));
        assert_eq!(filed(&cache), 1);
    }

    #[test]
    fn a_reinserted_key_keeps_its_one_body() {
        let cache: PlanCache<_> = PlanCache::new(4);
        cache.insert((1, 7), Arc::new(1), None, Some(Body::new(b"compact")));
        cache.insert((1, 7), Arc::new(2), None, Some(Body::new(b"pretty")));
        assert_eq!(
            cache.get_by_body(Body::new(b"compact"), 7).as_deref(),
            Some(&2)
        );
        assert!(cache.get_by_body(Body::new(b"pretty"), 7).is_none());
        assert_eq!((filed(&cache), cache.stats().entries), (1, 1));
    }

    #[test]
    fn a_replayed_entry_takes_on_the_first_body_that_hits_it_by_digest() {
        let cache: PlanCache<_> = PlanCache::new(4);
        cache.insert((1, 7), Arc::new(1), None, None);
        assert!(cache.get_by_body(Body::new(b"first"), 7).is_none());
        assert!(cache.get((1, 7), Body::new(b"first")).is_some());
        assert!(cache.get((1, 7), Body::new(b"second")).is_some());
        assert!(cache.get_by_body(Body::new(b"first"), 7).is_some());
        assert!(cache.get_by_body(Body::new(b"second"), 7).is_none());
        // A miss by digest files nothing.
        assert!(cache.get((2, 7), Body::new(b"third")).is_none());
        assert_eq!(filed(&cache), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 1));
    }

    #[test]
    fn peek_is_not_a_lookup() {
        let cache: PlanCache<_> = PlanCache::new(4);
        assert!(cache.peek((1, 1)).is_none());
        cache.insert((1, 1), Arc::new(1), None, None);
        assert!(cache.peek((1, 1)).is_some());
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
                        if let Some(v) = cache.get(key, empty()) {
                            assert_eq!(*v, key.0 * 1000 + key.1);
                        } else {
                            cache.insert(key, Arc::new(key.0 * 1000 + key.1), None, None);
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
