//! The capacity-bounded plan cache shared by connection and worker threads.
//!
//! Keys are `(NPD digest, options digest)`; values are the finished
//! [`PlanArtifact`](crate::pipeline::PlanArtifact)s behind `Arc`, so a hit
//! hands back the exact bytes the original job produced without copying.
//! Eviction is SIEVE (Zhang et al., "SIEVE is Simpler than LRU", NSDI '24):
//! entries stay in one insertion-ordered queue, a counted hit sets the
//! entry's visited bit, and a hand sweeping from the oldest entry toward the
//! newest clears visited bits and evicts the first entry without one. A
//! shared daemon sees skewed tenant popularity: on 200 000 Zipf(1.1) draws
//! over 256 documents against 64 entries, a simulation hits 0.802 for
//! SIEVE, 0.755 for CLOCK, 0.746 for LRU and 0.691 for FIFO (0.82 for the
//! static top 64), this module's seeded trace test reads 0.805 against
//! FIFO's 0.694, and the benchmark's `serve_zipf` misses fell from 31 % to
//! 21 % of its requests. With no hits it evicts oldest-first, as FIFO does.
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
//! nothing for shards to win, and one queue makes the capacity exact and the
//! eviction order a property of the lookups rather than of which keys hash
//! together. A hit writes one bool under the lock it already holds and
//! moves nothing, so the queue stays in insertion order: [`snapshot`]
//! (compaction, then replay) and [`newest`] still read age, which LRU's
//! move on a hit, or CLOCK's reuse of the evicted slot, would not keep.
//!
//! [`snapshot`]: PlanCache::snapshot
//! [`newest`]: PlanCache::newest

use crate::jobs::JobKey;
use crate::locked;
use klotski_npd::api::fnv1a;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// A request body as the byte index files it: the raw bytes and their
/// FNV-1a hash, taken outside the cache's lock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Body<'a> {
    hash: u64,
    bytes: &'a [u8],
}

impl<'a> Body<'a> {
    /// Hashes `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self {
            hash: fnv1a(bytes),
            bytes,
        }
    }
}

/// One resident artifact, the warm state kept beside it, the body filed
/// under it in the byte index (with that body's hash), and its visited bit.
struct Resident<V, W> {
    value: Arc<V>,
    warm: Option<Arc<W>>,
    body: Option<(u64, Box<[u8]>)>,
    /// Set by a counted hit, cleared when the hand passes the entry.
    visited: bool,
}

struct Inner<V, W> {
    map: HashMap<JobKey, Resident<V, W>>,
    /// `(body hash, options digest)` → the entry whose body is filed there.
    /// An entry's `body` is set exactly when this maps its slot to it.
    bodies: HashMap<(u64, u64), JobKey>,
    /// Resident keys, oldest first; never reordered.
    order: VecDeque<JobKey>,
    /// SIEVE's hand: the index in `order` the next eviction starts from.
    hand: usize,
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

    /// Evicts one entry: from the hand toward the newest end, wrapping to
    /// the oldest, clears each visited bit and steps on; removes the first
    /// unvisited entry and its body, and leaves the hand on the next-newer
    /// entry (the oldest when the evicted entry was the newest).
    fn evict(&mut self) {
        while let Some(&key) = self.order.get(self.hand) {
            let Some(entry) = self.map.get_mut(&key) else {
                return;
            };
            if std::mem::take(&mut entry.visited) {
                self.hand = (self.hand + 1) % self.order.len();
                continue;
            }
            self.order.remove(self.hand);
            if self.hand == self.order.len() {
                self.hand = 0;
            }
            if let Some((hash, _)) = self.map.remove(&key).and_then(|e| e.body) {
                self.bodies.remove(&(hash, key.1));
            }
            self.stats.evictions += 1;
            return;
        }
    }
}

/// Point-in-time counters, for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CacheStats {
    /// Entries resident.
    pub entries: usize,
    /// Lookups answered.
    pub hits: u64,
    /// Lookups missed.
    pub misses: u64,
    /// Entries evicted by the capacity bound (SIEVE's choice).
    pub evictions: u64,
}

/// A concurrent capacity-bounded map from `(npd_digest, options_digest)` to
/// shared plan artifacts, each with optional warm state `W` and the body
/// that admitted it beside it.
pub(crate) struct PlanCache<V, W = ()> {
    inner: Mutex<Inner<V, W>>,
    capacity: usize,
}

impl<V, W> PlanCache<V, W> {
    /// A cache holding at most `capacity` artifacts (0 disables caching).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                bodies: HashMap::new(),
                order: VecDeque::new(),
                hand: 0,
                stats: CacheStats::default(),
            }),
            capacity,
        }
    }

    /// The artifact of the entry admitted by exactly these bytes under
    /// these options. Counts a hit and marks the entry visited; a miss is
    /// not counted, because the request goes on to [`get`](Self::get),
    /// which counts its one lookup.
    pub(crate) fn get_by_body(&self, body: Body, options: u64) -> Option<Arc<V>> {
        let mut guard = locked(&self.inner);
        let inner = &mut *guard;
        let key = inner.bodies.get(&(body.hash, options))?;
        let entry = inner.map.get_mut(key)?;
        let filed = entry.body.as_ref().map(|(_, bytes)| &bytes[..]);
        if filed != Some(body.bytes) {
            return None;
        }
        entry.visited = true;
        inner.stats.hits += 1;
        Some(Arc::clone(&entry.value))
    }

    /// Looks up a finished artifact by key, counting the hit or miss. A hit
    /// marks the entry visited and, on an entry without a body, files
    /// `body` under it.
    pub(crate) fn get(&self, key: JobKey, body: Body) -> Option<Arc<V>> {
        let mut inner = locked(&self.inner);
        let hit = inner.map.get_mut(&key).map(|entry| {
            entry.visited = true;
            Arc::clone(&entry.value)
        });
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
    /// worker's re-check of a key its request already looked up), so it
    /// leaves the visited bit alone.
    pub(crate) fn peek(&self, key: JobKey) -> Option<Arc<V>> {
        let inner = locked(&self.inner);
        inner.map.get(&key).map(|entry| Arc::clone(&entry.value))
    }

    /// Inserts an artifact, its warm state and the body that admitted it
    /// (none for a replayed artifact). A new key in a full cache first
    /// evicts one entry — and its body — by the hand, then joins as the
    /// newest, unvisited. Re-inserting an existing key refreshes the
    /// artifact and the warm state without growing the cache, renewing the
    /// key's age or touching its visited bit, and keeps the body already
    /// filed, if any.
    pub(crate) fn insert(&self, key: JobKey, value: Arc<V>, warm: Option<W>, body: Option<Body>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = locked(&self.inner);
        let warm = warm.map(Arc::new);
        if let Some(entry) = inner.map.get_mut(&key) {
            (entry.value, entry.warm) = (value, warm);
        } else {
            if inner.order.len() >= self.capacity {
                inner.evict();
            }
            let resident = Resident {
                value,
                warm,
                body: None,
                visited: false,
            };
            inner.map.insert(key, resident);
            inner.order.push_back(key);
        }
        if let Some(body) = body {
            inner.file(key, body);
        }
    }

    /// The warm state of the newest resident entry whose warm state `pick`
    /// accepts, found by a scan of the age order under the lock (at most
    /// `capacity` entries); not counted as a lookup.
    pub(crate) fn newest(&self, pick: impl Fn(&W) -> bool) -> Option<Arc<W>> {
        let inner = locked(&self.inner);
        (inner.order.iter().rev())
            .filter_map(|key| inner.map.get(key)?.warm.as_ref())
            .find(|warm| pick(warm))
            .cloned()
    }

    /// The counters and the resident entry count.
    pub(crate) fn stats(&self) -> CacheStats {
        let inner = locked(&self.inner);
        CacheStats {
            entries: inner.map.len(),
            ..inner.stats
        }
    }

    /// Every resident entry, oldest first (the journal compactor's view of
    /// what is worth persisting, in the order a replay re-inserts it).
    pub(crate) fn snapshot(&self) -> Vec<(JobKey, Arc<V>)> {
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

    /// The keys resident, oldest first.
    fn ages<V, W>(cache: &PlanCache<V, W>) -> Vec<u64> {
        locked(&cache.inner).order.iter().map(|key| key.0).collect()
    }

    #[test]
    fn a_hit_entry_survives_one_pass_of_the_hand_and_goes_on_the_next() {
        for hit_again in [false, true] {
            let cache: PlanCache<_> = PlanCache::new(2);
            cache.insert((0, 0), Arc::new(0), None, None);
            cache.insert((1, 0), Arc::new(1), None, None);
            assert!(cache.get((0, 0), empty()).is_some());
            // The hand clears 0's bit, evicts 1 behind it and, past the newest
            // end, wraps back to 0.
            cache.insert((2, 0), Arc::new(2), None, None);
            assert_eq!(ages(&cache), [0, 2]);
            if hit_again {
                assert!(cache.get((0, 0), empty()).is_some());
            }
            // Unvisited since the hand last passed, 0 goes; hit again, it
            // stays another pass and the newer entry goes instead.
            cache.insert((3, 0), Arc::new(3), None, None);
            let survivors: &[u64] = if hit_again { &[0, 3] } else { &[2, 3] };
            assert_eq!(ages(&cache), survivors, "hit again: {hit_again}");
            assert_eq!(cache.stats().evictions, 2);
        }
    }

    #[test]
    fn peek_newest_snapshot_and_a_refresh_never_protect_an_entry() {
        let cache = PlanCache::new(3);
        for i in 0..3u64 {
            cache.insert((i, 0), Arc::new(i), Some(i), Some(Body::new(b"doc")));
        }
        assert!(cache.peek((0, 0)).is_some());
        assert_eq!(cache.newest(|w| *w == 0).as_deref(), Some(&0));
        assert_eq!(cache.snapshot().len(), 3);
        cache.insert((0, 0), Arc::new(0), Some(0), Some(Body::new(b"doc")));
        // None of those touched 0's bit: it goes first, as under FIFO.
        cache.insert((3, 0), Arc::new(3), None, None);
        assert_eq!(ages(&cache), [1, 2, 3]);
        // A refresh keeps the bit a counted hit set, too.
        assert!(cache.get((1, 0), empty()).is_some());
        cache.insert((1, 0), Arc::new(1), None, None);
        cache.insert((4, 0), Arc::new(4), None, None);
        assert_eq!(ages(&cache), [1, 3, 4]);
    }

    #[test]
    fn capacity_stays_exact_after_evictions_from_the_middle() {
        let cache: PlanCache<_> = PlanCache::new(10);
        for i in 0..100u64 {
            cache.insert((i, 0), Arc::new(i), None, None);
            // Three hot keys are looked up after every insert.
            for key in [0, 3, 6] {
                let _ = cache.get((key, 0), empty());
            }
            let stats = cache.stats();
            assert_eq!(stats.entries, (i as usize + 1).min(10), "after {i}");
            assert_eq!(stats.evictions, i.saturating_sub(9), "after {i}");
            assert_eq!(cache.snapshot().len(), stats.entries);
        }
        // The hot keys held their places at the old end; the rest went in turn.
        assert_eq!(ages(&cache), [0, 3, 6, 93, 94, 95, 96, 97, 98, 99]);
    }

    #[test]
    fn an_entry_evicted_from_the_middle_frees_its_byte_slot() {
        let cache: PlanCache<_> = PlanCache::new(3);
        for (i, body) in [b"a", b"b", b"c"].into_iter().enumerate() {
            cache.insert((i as u64, 7), Arc::new(i), None, Some(Body::new(body)));
        }
        assert_eq!(cache.get_by_body(Body::new(b"a"), 7).as_deref(), Some(&0));
        // The byte hit kept 0; 1 goes from the middle, with its body.
        cache.insert((3, 7), Arc::new(3), None, Some(Body::new(b"d")));
        assert_eq!(ages(&cache), [0, 2, 3]);
        assert!(cache.get_by_body(Body::new(b"b"), 7).is_none());
        assert_eq!(filed(&cache), 3);
        // Another entry admitted with those bytes is filed in the freed slot.
        cache.insert((9, 7), Arc::new(9), None, Some(Body::new(b"b")));
        assert_eq!(cache.get_by_body(Body::new(b"b"), 7).as_deref(), Some(&9));
        assert_eq!(filed(&cache), 3);
    }

    #[test]
    fn snapshot_stays_in_insertion_order_after_evictions_from_the_middle() {
        let cache: PlanCache<_> = PlanCache::new(4);
        for i in 0..4u64 {
            cache.insert((i, 1), Arc::new(i), None, None);
        }
        assert!(cache.get((0, 1), empty()).is_some());
        assert!(cache.get((2, 1), empty()).is_some());
        cache.insert((4, 1), Arc::new(4), None, None);
        cache.insert((5, 1), Arc::new(5), None, None);
        // 1 and 3 went; the hits kept their places, nothing moved forward.
        let keys: Vec<u64> = cache.snapshot().iter().map(|(key, _)| key.0).collect();
        assert_eq!(keys, [0, 2, 4, 5]);
    }

    /// SIEVE as the paper states it, over a plain vector: the hand names an
    /// entry (none: start at the oldest), a counted hit sets the entry's bit,
    /// and each entry keeps at most one body, filed unless another entry
    /// under the same options holds those bytes.
    struct Model {
        capacity: usize,
        /// `(key, visited, body)`, oldest first.
        entries: Vec<(JobKey, bool, Option<usize>)>,
        hand: Option<JobKey>,
        /// New keys inserted; those not resident were evicted.
        admitted: u64,
    }

    impl Model {
        fn find(&self, key: JobKey) -> Option<usize> {
            self.entries.iter().position(|e| e.0 == key)
        }

        fn file(&mut self, at: usize, body: usize) {
            let options = self.entries[at].0 .1;
            let taken = (self.entries.iter()).any(|e| e.0 .1 == options && e.2 == Some(body));
            if self.entries[at].2.is_none() && !taken {
                self.entries[at].2 = Some(body);
            }
        }

        fn insert(&mut self, key: JobKey, body: Option<usize>) {
            if self.capacity == 0 {
                return;
            }
            let at = match self.find(key) {
                Some(at) => at,
                None => {
                    if self.entries.len() == self.capacity {
                        let mut at = self.hand.and_then(|k| self.find(k)).unwrap_or(0);
                        while self.entries[at].1 {
                            self.entries[at].1 = false;
                            at = (at + 1) % self.entries.len();
                        }
                        self.entries.remove(at);
                        self.hand = self.entries.get(at).map(|e| e.0);
                    }
                    self.admitted += 1;
                    self.entries.push((key, false, None));
                    self.entries.len() - 1
                }
            };
            if let Some(body) = body {
                self.file(at, body);
            }
        }
    }

    const BODIES: [&[u8]; 4] = [b"one", b"two", b"three", b"four"];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        /// Random `insert` / `get` / `get_by_body` / `peek` / `newest` runs
        /// over twelve keys, two option digests and four bodies agree with
        /// the model after every operation: the same answers, the same
        /// residents in the same age order, the same evictions, and a byte
        /// index that files exactly the resident entries' bodies.
        #[test]
        fn the_cache_is_sieve_with_an_exact_byte_index(
            capacity in 0usize..5,
            ops in proptest::collection::vec(0u32..600, 1..120),
        ) {
            let cache = PlanCache::new(capacity);
            let mut model = Model { capacity, entries: Vec::new(), hand: None, admitted: 0 };
            for op in ops {
                let key = (u64::from(op / 5 % 6), u64::from(op / 30 % 2));
                let body = (op / 60 % 5) as usize;
                let bytes = Body::new(BODIES.get(body).copied().unwrap_or_default());
                match op % 5 {
                    0 => {
                        let body = (body < BODIES.len()).then_some(body);
                        cache.insert(key, Arc::new(key), Some(key.0), body.map(|_| bytes));
                        model.insert(key, body);
                    }
                    1 => {
                        let at = model.find(key);
                        assert_eq!(cache.get(key, bytes).as_deref(), at.map(|_| &key));
                        if let Some(at) = at {
                            model.entries[at].1 = true;
                            model.file(at, body);
                        }
                    }
                    2 => {
                        let at = (model.entries.iter())
                            .position(|e| e.0 .1 == key.1 && e.2 == Some(body));
                        let want = at.map(|at| model.entries[at].0);
                        assert_eq!(cache.get_by_body(bytes, key.1).as_deref(), want.as_ref());
                        if let Some(at) = at {
                            model.entries[at].1 = true;
                        }
                    }
                    3 => assert_eq!(cache.peek(key).is_some(), model.find(key).is_some()),
                    _ => {
                        let resident = model.entries.iter().any(|e| e.0 .0 == key.0);
                        let warm = cache.newest(|w| *w == key.0);
                        assert_eq!(warm.as_deref(), resident.then_some(&key.0));
                    }
                }
                let keys: Vec<JobKey> = cache.snapshot().iter().map(|(key, _)| *key).collect();
                let want: Vec<JobKey> = model.entries.iter().map(|e| e.0).collect();
                assert_eq!(keys, want);
                let stats = cache.stats();
                let evicted = model.admitted - want.len() as u64;
                assert_eq!((stats.entries, stats.evictions), (want.len(), evicted));
                let inner = locked(&cache.inner);
                for (slot, key) in &inner.bodies {
                    let filed = inner.map.get(key).and_then(|e| e.body.as_ref());
                    assert_eq!(filed.map(|(hash, _)| (*hash, key.1)), Some(*slot));
                }
                for (key, entry) in &inner.map {
                    if let Some((hash, _)) = &entry.body {
                        assert_eq!(inner.bodies.get(&(*hash, key.1)), Some(key));
                    }
                }
            }
        }
    }

    /// Seeded Zipf(`s`) draws over ranks `0..n` (rank 0 the most popular).
    fn zipf_trace(n: usize, s: f64, len: usize, mut seed: u64) -> Vec<u64> {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let cdf: Vec<f64> = (weights.iter())
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        (0..len)
            .map(|_| {
                // splitmix64
                seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                let u = (z ^ (z >> 31)) as f64 / u64::MAX as f64;
                cdf.partition_point(|&c| c < u).min(n - 1) as u64
            })
            .collect()
    }

    /// Hits of a FIFO of `capacity` keys on `trace`, inserting on each miss.
    fn fifo_hits(trace: &[u64], capacity: usize) -> usize {
        let (mut ring, mut next, mut hits) = (vec![u64::MAX; capacity], 0, 0);
        for &key in trace {
            if ring.contains(&key) {
                hits += 1;
            } else {
                ring[next] = key;
                next = (next + 1) % capacity;
            }
        }
        hits
    }

    /// The benchmark's `serve_zipf` shape: Zipf(1.1) over 256 tenants against
    /// 64 entries, a lookup per request and an insert on each miss.
    #[test]
    fn sieve_keeps_the_hot_tenants_of_a_zipf_trace_resident() {
        let trace = zipf_trace(256, 1.1, 50_000, 0x5eed);
        let cache: PlanCache<_> = PlanCache::new(64);
        for &tenant in &trace {
            if cache.get((tenant, 0), empty()).is_none() {
                cache.insert((tenant, 0), Arc::new(tenant), None, None);
            }
        }
        let stats = cache.stats();
        let sieve = stats.hits as f64 / trace.len() as f64;
        let fifo = fifo_hits(&trace, 64) as f64 / trace.len() as f64;
        assert!(sieve >= 0.78, "SIEVE hit ratio {sieve:.3}");
        assert!(sieve >= fifo + 0.07, "SIEVE {sieve:.3} vs FIFO {fifo:.3}");
        assert_eq!(stats.misses, stats.evictions + 64);
    }
}
