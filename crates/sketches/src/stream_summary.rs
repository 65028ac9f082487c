//! The *stream-summary* data structure behind [Space Saving](crate::SpaceSaving).
//!
//! The structure maintains at most `capacity` monitored keys, each with an
//! estimated count and an *error* term (the count the slot held when the key
//! took it over). Counters with equal counts are grouped into *buckets* that
//! form a doubly-linked list ordered by count, so the minimum counter, an
//! increment by one, and an eviction are all O(1).
//!
//! The implementation is index-based (no `unsafe`, no pointer juggling):
//! bucket nodes live in a `Vec` with a free list and links are `usize`
//! indices with `NIL` as the null sentinel. Counter slots are stored
//! **structure-of-arrays** for the per-packet hot path: the fields an
//! increment touches (count, bucket, neighbour links — `SlotHot`) live in
//! one dense `Vec`, while the key and its error term (`SlotCold`) — read
//! only on insertion, eviction and queries — live in a parallel `Vec`, so
//! bucket-list surgery never drags key bytes through the cache. The key →
//! slot index is a [`CompactMap`] probed with the workspace's fast hash
//! ([`crate::fasthash`]) rather than a SipHash `HashMap`: one cache-resident
//! fingerprint probe per operation.

use std::hash::Hash;

use crate::compact_map::CompactMap;
use crate::journal::{JournalDrain, SlotJournal};

/// Null sentinel for the intrusive index-based linked lists.
const NIL: usize = usize::MAX;

/// The per-slot fields an increment touches (the hot array of the SoA
/// split): current count, owning bucket, and the neighbour links of the
/// bucket's child list.
#[derive(Debug, Clone)]
struct SlotHot {
    count: u64,
    bucket: usize,
    prev: usize,
    next: usize,
}

/// The per-slot fields only insertion/eviction/queries touch (the cold
/// array): the monitored key and the classical Space Saving `error` term
/// (the slot's value when the key took it over; `count - error` is a lower
/// bound on the key's true frequency).
#[derive(Debug, Clone)]
struct SlotCold<K> {
    key: Option<K>,
    error: u64,
}

#[derive(Debug, Clone)]
struct Bucket {
    count: u64,
    /// Head of the doubly-linked list of counter slots in this bucket.
    child: usize,
    prev: usize,
    next: usize,
    in_use: bool,
}

/// An O(1) stream-summary: the union of counter slots, count-ordered buckets
/// and a key index.
///
/// This is deliberately a low-level structure; [`crate::SpaceSaving`] wraps it
/// with the algorithmic policy (what to do when a new key arrives and all
/// slots are taken).
#[derive(Debug, Clone)]
pub struct StreamSummary<K: Eq + Hash + Clone> {
    /// Hot slot fields (count/bucket/links), parallel to `cold`.
    hot: Vec<SlotHot>,
    /// Cold slot fields (key/error), parallel to `hot`.
    cold: Vec<SlotCold<K>>,
    buckets: Vec<Bucket>,
    free_buckets: Vec<usize>,
    /// Bucket with the smallest count (head of the bucket list), or NIL.
    min_bucket: usize,
    index: CompactMap<K, usize>,
    capacity: usize,
    /// Change journal for incremental snapshot publication; `None` until
    /// the first [`Self::drain_journal`].
    journal: Option<Box<SlotJournal<K>>>,
}

impl<K: Eq + Hash + Clone> StreamSummary<K> {
    /// Creates a summary able to monitor up to `capacity` keys.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "stream summary capacity must be positive");
        StreamSummary {
            hot: Vec::with_capacity(capacity),
            cold: Vec::with_capacity(capacity),
            // At most capacity+1 distinct counts can coexist transiently.
            buckets: Vec::with_capacity(capacity + 1),
            free_buckets: Vec::new(),
            min_bucket: NIL,
            // The index can never hold more than `capacity` keys — one per
            // slot — so size it exactly (a seed-era version reserved 2×).
            index: CompactMap::with_capacity(capacity),
            capacity,
            journal: None,
        }
    }

    /// Takes every change recorded since the previous drain: the keys in
    /// slots whose count, key or error changed since then, then the keys
    /// `replace_min` evicted. The first call opens the journal and reports
    /// a rebuild, as does any call after a `clear`. The slot population is
    /// bounded by `capacity`, so the dirty bitmap is sized once.
    pub fn drain_journal(&mut self) -> JournalDrain<K> {
        let cold = &self.cold;
        self.journal
            .get_or_insert_with(|| SlotJournal::open(self.capacity))
            .drain(self.capacity, |slot| cold.get(slot)?.key.as_ref())
    }

    /// SoA slot holding `key`, if monitored — the stable per-summary
    /// identity the incremental snapshot path uses as a tie-breaking rank
    /// (slots never move: keys change slots only through eviction, which is
    /// journaled).
    #[inline]
    pub fn slot_of(&self, key: &K) -> Option<usize> {
        self.index.get(key).copied()
    }

    /// Number of monitored keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no key is monitored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Maximum number of monitored keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when all slots are occupied.
    pub fn is_full(&self) -> bool {
        self.index.len() >= self.capacity
    }

    /// Count of the smallest monitored counter, or 0 when empty.
    pub fn min_count(&self) -> u64 {
        if self.min_bucket == NIL {
            0
        } else {
            self.buckets[self.min_bucket].count
        }
    }

    /// Estimated count for `key` if it is monitored.
    pub fn get(&self, key: &K) -> Option<u64> {
        self.index.get(key).map(|&slot| self.hot[slot].count)
    }

    /// Estimated count and error term for `key` if it is monitored.
    pub fn get_with_error(&self, key: &K) -> Option<(u64, u64)> {
        self.index
            .get(key)
            .map(|&slot| (self.hot[slot].count, self.cold[slot].error))
    }

    /// True when `key` currently holds a counter slot.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Hints the CPU to pull the key-index lines a probe of `key` will
    /// touch ([`CompactMap::prefetch`]): the batched update pipelines call
    /// this a small lookahead before [`Self::increment`]/insertion so the
    /// index misses of a batch overlap. No observable effect.
    #[inline]
    pub fn prefetch(&self, key: &K) {
        self.index.prefetch(key);
    }

    /// [`Self::prefetch`] with the caller supplying the key's
    /// [`crate::fasthash::hash_one`] value, so one hash serves both the
    /// prefetch and the later [`Self::increment_hashed`] probe.
    #[inline]
    pub fn prefetch_hashed(&self, hash: u64) {
        self.index.prefetch_hashed(hash);
    }

    /// Increments the counter of a monitored `key` by one and returns the new
    /// count, or `None` when the key is not monitored. (One index probe: on
    /// the hot path callers use the `None` to branch to insertion instead of
    /// probing `contains` first.)
    pub fn increment(&mut self, key: &K) -> Option<u64> {
        let slot = *self.index.get(key)?;
        Some(self.increment_slot(slot))
    }

    /// [`Self::increment`] with the caller supplying `hash_one(key)` (see
    /// [`CompactMap::get_hashed`]).
    pub fn increment_hashed(&mut self, key: &K, hash: u64) -> Option<u64> {
        let slot = *self.index.get_hashed(hash, key)?;
        Some(self.increment_slot(slot))
    }

    /// Inserts a key that is *not currently monitored* into a free slot with
    /// initial count 1 and error 0. Returns `None` when the summary is full
    /// (use [`Self::replace_min`] in that case) or when the key is already
    /// present.
    pub fn insert_new(&mut self, key: K) -> Option<u64> {
        if self.is_full() || self.index.contains_key(&key) {
            return None;
        }
        let slot = self.hot.len();
        self.hot.push(SlotHot {
            count: 0,
            bucket: NIL,
            prev: NIL,
            next: NIL,
        });
        self.cold.push(SlotCold {
            key: Some(key.clone()),
            error: 0,
        });
        self.index.insert(key, slot);
        Some(self.increment_slot(slot))
    }

    /// Replaces the key of the minimum counter with `key`, charging the old
    /// count as the new key's error term, then increments it. Returns the new
    /// count together with the evicted key.
    ///
    /// # Panics
    /// Panics when the summary is empty or when `key` is already monitored
    /// (callers must check [`Self::contains`] first).
    pub fn replace_min(&mut self, key: K) -> (u64, K) {
        assert!(self.min_bucket != NIL, "replace_min on an empty summary");
        let slot = self.buckets[self.min_bucket].child;
        debug_assert_ne!(slot, NIL);
        let old_key = self.cold[slot]
            .key
            .clone()
            .expect("occupied slot must hold a key");
        assert!(
            !self.index.contains_key(&key),
            "replace_min with an already-monitored key"
        );
        self.index.remove(&old_key);
        self.cold[slot].error = self.hot[slot].count;
        self.cold[slot].key = Some(key.clone());
        self.index.insert(key, slot);
        if let Some(j) = self.journal.as_deref_mut() {
            j.depart(old_key.clone());
        }
        (self.increment_slot(slot), old_key)
    }

    /// Removes every monitored key, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.hot.clear();
        self.cold.clear();
        self.buckets.clear();
        self.free_buckets.clear();
        self.min_bucket = NIL;
        self.index.clear();
        if let Some(j) = self.journal.as_deref_mut() {
            j.invalidate();
        }
    }

    /// Iterates over `(key, count, error)` for every monitored key, in
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64, u64)> {
        self.cold
            .iter()
            .zip(&self.hot)
            .filter_map(|(cold, hot)| cold.key.as_ref().map(|k| (k, hot.count, cold.error)))
    }

    // ---- internal plumbing --------------------------------------------------

    fn alloc_bucket(&mut self, count: u64) -> usize {
        if let Some(idx) = self.free_buckets.pop() {
            let b = &mut self.buckets[idx];
            b.count = count;
            b.child = NIL;
            b.prev = NIL;
            b.next = NIL;
            b.in_use = true;
            idx
        } else {
            self.buckets.push(Bucket {
                count,
                child: NIL,
                prev: NIL,
                next: NIL,
                in_use: true,
            });
            self.buckets.len() - 1
        }
    }

    fn free_bucket(&mut self, bucket: usize) {
        debug_assert_eq!(self.buckets[bucket].child, NIL);
        let (prev, next) = (self.buckets[bucket].prev, self.buckets[bucket].next);
        if prev != NIL {
            self.buckets[prev].next = next;
        } else if self.min_bucket == bucket {
            self.min_bucket = next;
        }
        if next != NIL {
            self.buckets[next].prev = prev;
        }
        self.buckets[bucket].in_use = false;
        self.buckets[bucket].prev = NIL;
        self.buckets[bucket].next = NIL;
        self.free_buckets.push(bucket);
    }

    /// Detaches `slot` from its bucket's child list (does not free the bucket).
    fn detach_slot(&mut self, slot: usize) {
        let bucket = self.hot[slot].bucket;
        let (prev, next) = (self.hot[slot].prev, self.hot[slot].next);
        if prev != NIL {
            self.hot[prev].next = next;
        } else if bucket != NIL {
            self.buckets[bucket].child = next;
        }
        if next != NIL {
            self.hot[next].prev = prev;
        }
        self.hot[slot].prev = NIL;
        self.hot[slot].next = NIL;
        self.hot[slot].bucket = NIL;
    }

    /// Attaches `slot` at the head of `bucket`'s child list.
    fn attach_slot(&mut self, slot: usize, bucket: usize) {
        let head = self.buckets[bucket].child;
        self.hot[slot].bucket = bucket;
        self.hot[slot].prev = NIL;
        self.hot[slot].next = head;
        if head != NIL {
            self.hot[head].prev = slot;
        }
        self.buckets[bucket].child = slot;
    }

    /// Moves `slot` from its current bucket to the bucket for `count + 1`,
    /// creating the destination bucket if needed. O(1) because counts only
    /// ever grow by one. Touches only the hot array and the bucket nodes —
    /// never the keys.
    fn increment_slot(&mut self, slot: usize) -> u64 {
        let old_bucket = self.hot[slot].bucket;
        let new_count = self.hot[slot].count + 1;
        self.hot[slot].count = new_count;

        // Locate the destination bucket: it is either the bucket right after
        // the current one (if its count matches) or a freshly created bucket
        // inserted right after the current one.
        let dest = if old_bucket == NIL {
            // Fresh slot (count was 0): destination is the min bucket if it
            // already holds `new_count`, otherwise a new bucket at the front.
            if self.min_bucket != NIL && self.buckets[self.min_bucket].count == new_count {
                self.min_bucket
            } else {
                let b = self.alloc_bucket(new_count);
                let old_min = self.min_bucket;
                self.buckets[b].next = old_min;
                if old_min != NIL {
                    self.buckets[old_min].prev = b;
                }
                self.min_bucket = b;
                b
            }
        } else {
            let next = self.buckets[old_bucket].next;
            if next != NIL && self.buckets[next].count == new_count {
                next
            } else {
                debug_assert!(next == NIL || self.buckets[next].count > new_count);
                let b = self.alloc_bucket(new_count);
                self.buckets[b].prev = old_bucket;
                self.buckets[b].next = next;
                self.buckets[old_bucket].next = b;
                if next != NIL {
                    self.buckets[next].prev = b;
                }
                b
            }
        };

        self.detach_slot(slot);
        self.attach_slot(slot, dest);
        if old_bucket != NIL && self.buckets[old_bucket].child == NIL {
            self.free_bucket(old_bucket);
        }
        // Every observable slot mutation funnels through here (insert_new
        // and replace_min both end in an increment), so one mark covers
        // count, key and error changes alike.
        if let Some(j) = self.journal.as_deref_mut() {
            j.mark(slot);
        }
        new_count
    }

    /// Debug helper: checks every structural invariant. Used by tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        // The arrays of the SoA split stay parallel.
        assert_eq!(self.hot.len(), self.cold.len());
        // Index consistency.
        for (key, &slot) in self.index.iter() {
            assert!(self.cold[slot].key.as_ref() == Some(key));
        }
        assert_eq!(
            self.index.len(),
            self.cold.iter().filter(|s| s.key.is_some()).count()
        );
        // Bucket list is strictly increasing and every child belongs to it.
        let mut seen_slots = 0usize;
        let mut b = self.min_bucket;
        let mut last = 0u64;
        let mut first = true;
        while b != NIL {
            let bucket = &self.buckets[b];
            assert!(bucket.in_use);
            assert!(first || bucket.count > last, "bucket counts must increase");
            first = false;
            last = bucket.count;
            assert_ne!(bucket.child, NIL, "bucket must not be empty");
            let mut s = bucket.child;
            let mut prev = NIL;
            while s != NIL {
                let slot = &self.hot[s];
                assert_eq!(slot.bucket, b);
                assert_eq!(slot.prev, prev);
                assert_eq!(slot.count, bucket.count);
                seen_slots += 1;
                prev = s;
                s = slot.next;
            }
            b = bucket.next;
        }
        assert_eq!(seen_slots, self.index.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_increment() {
        let mut s = StreamSummary::new(4);
        assert_eq!(s.insert_new("a"), Some(1));
        assert_eq!(s.insert_new("b"), Some(1));
        assert_eq!(s.increment(&"a"), Some(2));
        assert_eq!(s.get(&"a"), Some(2));
        assert_eq!(s.get(&"b"), Some(1));
        assert_eq!(s.get(&"c"), None);
        assert_eq!(s.min_count(), 1);
        s.check_invariants();
    }

    #[test]
    fn insert_new_rejects_duplicates_and_full() {
        let mut s = StreamSummary::new(2);
        assert!(s.insert_new(1).is_some());
        assert!(s.insert_new(1).is_none(), "duplicate must be rejected");
        assert!(s.insert_new(2).is_some());
        assert!(s.insert_new(3).is_none(), "full summary must reject");
        assert!(s.is_full());
    }

    #[test]
    fn replace_min_evicts_smallest() {
        let mut s = StreamSummary::new(2);
        s.insert_new("a");
        s.increment(&"a");
        s.increment(&"a"); // a -> 3
        s.insert_new("b"); // b -> 1
        let (count, evicted) = s.replace_min("c");
        assert_eq!(evicted, "b");
        assert_eq!(count, 2); // inherits 1 and increments
        assert_eq!(s.get_with_error(&"c"), Some((2, 1)));
        assert!(!s.contains(&"b"));
        s.check_invariants();
    }

    #[test]
    fn min_count_tracks_smallest_bucket() {
        let mut s = StreamSummary::new(3);
        assert_eq!(s.min_count(), 0);
        s.insert_new(10);
        s.insert_new(20);
        s.insert_new(30);
        assert_eq!(s.min_count(), 1);
        s.increment(&10);
        s.increment(&20);
        s.increment(&30);
        assert_eq!(s.min_count(), 2);
        s.check_invariants();
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = StreamSummary::new(3);
        s.insert_new(1);
        s.insert_new(2);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.min_count(), 0);
        assert_eq!(s.get(&1), None);
        assert!(s.insert_new(1).is_some());
        s.check_invariants();
    }

    #[test]
    fn iter_reports_all_entries() {
        let mut s = StreamSummary::new(4);
        for k in 0..4 {
            s.insert_new(k);
        }
        s.increment(&2);
        let mut entries: Vec<_> = s.iter().map(|(k, c, e)| (*k, c, e)).collect();
        entries.sort();
        assert_eq!(entries, vec![(0, 1, 0), (1, 1, 0), (2, 2, 0), (3, 1, 0)]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = StreamSummary::<u32>::new(0);
    }

    #[test]
    fn journal_tracks_increments_evictions_and_clears() {
        let mut s = StreamSummary::new(2);
        let d = s.drain_journal();
        assert!(d.rebuild && d.changed.is_empty(), "first drain rebuilds");
        s.insert_new("a");
        s.insert_new("b");
        let d = s.drain_journal();
        assert!(!d.rebuild);
        assert_eq!(d.changed, vec!["a", "b"]);
        // Increment only "a": only its slot is dirty.
        s.increment(&"a");
        assert_eq!(s.drain_journal().changed, vec!["a"]);
        // replace_min evicts "b" and re-marks the reused slot, now "c"'s.
        let (_, evicted) = s.replace_min("c");
        assert_eq!(evicted, "b");
        assert_eq!(s.drain_journal().changed, vec!["c", "b"]);
        // clear() suspends per-slot tracking until the rebuild drain.
        s.clear();
        s.insert_new("d");
        let d = s.drain_journal();
        assert!(d.rebuild && d.changed.is_empty());
    }

    #[test]
    fn long_random_sequence_keeps_invariants() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = StreamSummary::new(16);
        for _ in 0..5_000 {
            let key = rng.gen_range(0u32..64);
            if s.contains(&key) {
                s.increment(&key);
            } else if !s.is_full() {
                s.insert_new(key);
            } else {
                s.replace_min(key);
            }
        }
        s.check_invariants();
        assert_eq!(s.len(), 16);
    }
}
