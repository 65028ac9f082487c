//! Differential property tests for the hot-path layer (PRs 5 and 6).
//!
//! Three suites:
//!
//! * [`CompactMap`] vs `std::collections::HashMap` under random
//!   insert/get/remove/iterate sequences — including a removal-heavy
//!   variant that keeps the table churning, which is exactly the regime
//!   backward-shift deletion exists for (a shift bug shows up as a key
//!   becoming unreachable or a stale value resurfacing after later
//!   inserts probe over the hole).
//! * The hot-path `probe` (home slot peeled, then one rolled byte walk)
//!   vs the byte-at-a-time oracle `probe_reference` on arbitrary
//!   insert/remove/get interleavings, under backward-shift churn, and on
//!   tables filled to the full 7/8 load cap: both must return the
//!   *identical* `Ok(slot)` / `Err((empty, fp))` for every key, present
//!   or absent.
//! * [`StreamSummary`] (CompactMap index + hot/cold SoA slots) vs a
//!   test-local copy of the seed-era implementation (AoS slots,
//!   `HashMap` index): same operation sequences must produce identical
//!   counts, error terms, evicted keys and minimum counters — the
//!   refactor is memory layout only.

use std::collections::HashMap;

use memento_sketches::{CompactMap, StreamSummary};
use proptest::prelude::*;

/// One differential step: both maps get the op, both must agree on every
/// observable.
fn run_map_ops(ops: &[(u8, u8)]) {
    let mut compact: CompactMap<u64, u32> = CompactMap::new();
    let mut reference: HashMap<u64, u32> = HashMap::new();
    for (step, &(op, key)) in ops.iter().enumerate() {
        let key = key as u64;
        match op % 4 {
            0 => {
                let value = step as u32;
                assert_eq!(
                    compact.insert(key, value),
                    reference.insert(key, value),
                    "insert({key}) disagreed at step {step}"
                );
            }
            1 => {
                assert_eq!(
                    compact.remove(&key),
                    reference.remove(&key),
                    "remove({key}) disagreed at step {step}"
                );
            }
            2 => {
                *compact.get_or_insert_with(key, || 100) += 1;
                *reference.entry(key).or_insert(100) += 1;
            }
            _ => {
                if let Some(v) = compact.get_mut(&key) {
                    *v = v.wrapping_add(7);
                }
                if let Some(v) = reference.get_mut(&key) {
                    *v = v.wrapping_add(7);
                }
            }
        }
        assert_eq!(compact.get(&key), reference.get(&key));
        assert_eq!(
            compact.len(),
            reference.len(),
            "len diverged at step {step}"
        );
    }
    // Full-table agreement, both directions: iterate the compact map and
    // compare entry-by-entry, then sizes (so neither side holds extras).
    let mut from_compact: Vec<(u64, u32)> = compact.iter().map(|(k, v)| (*k, *v)).collect();
    let mut from_reference: Vec<(u64, u32)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
    from_compact.sort_unstable();
    from_reference.sort_unstable();
    assert_eq!(from_compact, from_reference);
    for (key, value) in &from_reference {
        assert_eq!(compact.get(key), Some(value));
        assert!(compact.contains_key(key));
    }
}

/// Asserts `probe` and the byte-scan oracle `probe_reference` agree on
/// `key`: same hit slot on a present key, same terminating empty slot and
/// fingerprint on an absent one.
fn assert_probes_agree(map: &CompactMap<u64, u32>, key: u64, context: &str) {
    assert_eq!(
        map.probe(&key),
        map.probe_reference(&key),
        "probe diverges from the byte scan for key {key} ({context})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Mixed op mix over a small key universe (dense collisions in the
    /// 8-slot starting table, growth, overwrite).
    #[test]
    fn compact_map_matches_hashmap(
        ops in prop::collection::vec((0u8..8, 0u8..48), 1..600),
    ) {
        run_map_ops(&ops);
    }

    /// `probe` ≡ byte scan under arbitrary insert/remove/upsert interleavings
    /// (removal-weighted, so backward-shift churn keeps rearranging the
    /// clusters the scans walk): after every op, probe a window of keys
    /// around the touched one — present, absent, and just-removed alike.
    #[test]
    fn probe_equals_reference_under_churn(
        ops in prop::collection::vec(
            prop_oneof![
                2 => (Just(1u8), 0u8..32),          // remove
                2 => (Just(0u8), 0u8..32),          // insert
                1 => (Just(2u8), 0u8..32),          // upsert-increment
            ],
            1..500,
        ),
    ) {
        let ops: Vec<(u8, u8)> = ops;
        let mut map: CompactMap<u64, u32> = CompactMap::new();
        for (step, &(op, key)) in ops.iter().enumerate() {
            let key = key as u64;
            match op {
                0 => {
                    map.insert(key, step as u32);
                }
                1 => {
                    map.remove(&key);
                }
                _ => {
                    *map.get_or_insert_with(key, || 0) += 1;
                }
            }
            for probe_key in key.saturating_sub(3)..=key + 3 {
                assert_probes_agree(&map, probe_key, &format!("after step {step}"));
            }
        }
        for probe_key in 0u64..36 {
            assert_probes_agree(&map, probe_key, "final table");
        }
    }

    /// `probe` ≡ byte scan on tables at the full 7/8 load cap — the longest
    /// clusters and the fewest empty slots the scan can ever meet — and
    /// again after backward-shift churn removes every third key.
    #[test]
    fn probe_equals_reference_at_full_load(
        base in 0u64..u64::MAX,
        capacity in 1usize..160,
    ) {
        let mut map: CompactMap<u64, u32> = CompactMap::with_capacity(capacity);
        let full = map.capacity() as u64; // exactly the 7/8 load limit
        for i in 0..full {
            map.insert(base.wrapping_add(i), i as u32);
        }
        prop_assert_eq!(map.len() as u64, full);
        for i in 0..full + 16 {
            assert_probes_agree(&map, base.wrapping_add(i), "at 7/8 load");
        }
        for i in (0..full).step_by(3) {
            map.remove(&base.wrapping_add(i));
        }
        for i in 0..full + 16 {
            assert_probes_agree(&map, base.wrapping_add(i), "after churn");
        }
    }

    /// Removal-heavy churn: half the ops are removes, so clusters form and
    /// collapse constantly — pins backward-shift deletion (no tombstone
    /// decay, no lost keys behind a hole).
    #[test]
    fn compact_map_survives_removal_churn(
        ops in prop::collection::vec(
            prop_oneof![
                2 => (Just(1u8), 0u8..24),          // remove
                1 => (Just(0u8), 0u8..24),          // insert
                1 => (Just(2u8), 0u8..24),          // upsert-increment
            ],
            1..800,
        ),
    ) {
        run_map_ops(&ops);
    }

    /// The new StreamSummary is the old StreamSummary with a different
    /// memory layout: identical observable behaviour on any op sequence.
    #[test]
    fn stream_summary_matches_seed_implementation(
        ops in prop::collection::vec((0u8..4, 0u8..32), 1..500),
        capacity in 1usize..12,
    ) {
        let mut new = StreamSummary::new(capacity);
        let mut old = seed_summary::StreamSummary::new(capacity);
        for &(op, key) in &ops {
            let key = key as u32;
            match op {
                0 => {
                    // The Space Saving policy step, as SpaceSaving::add
                    // drives it.
                    let got = if let Some(count) = new.increment(&key) {
                        (count, None)
                    } else if !new.is_full() {
                        (new.insert_new(key).expect("not full"), None)
                    } else {
                        let (count, evicted) = new.replace_min(key);
                        (count, Some(evicted))
                    };
                    let want = if old.contains(&key) {
                        (old.increment(&key).expect("present"), None)
                    } else if !old.is_full() {
                        (old.insert_new(key).expect("not full"), None)
                    } else {
                        let (count, evicted) = old.replace_min(key);
                        (count, Some(evicted))
                    };
                    // Counts, and the *identity* of the evicted key (the
                    // bucket-head choice among ties must survive the SoA
                    // split — Memento estimates are bit-for-bit only if it
                    // does).
                    prop_assert_eq!(got, want);
                }
                1 => {
                    prop_assert_eq!(new.get(&key), old.get(&key));
                    prop_assert_eq!(new.get_with_error(&key), old.get_with_error(&key));
                }
                2 => {
                    prop_assert_eq!(new.min_count(), old.min_count());
                    prop_assert_eq!(new.len(), old.len());
                    prop_assert_eq!(new.is_full(), old.is_full());
                }
                _ => {
                    let mut lhs: Vec<(u32, u64, u64)> =
                        new.iter().map(|(k, c, e)| (*k, c, e)).collect();
                    let mut rhs: Vec<(u32, u64, u64)> =
                        old.iter().map(|(k, c, e)| (*k, c, e)).collect();
                    lhs.sort_unstable();
                    rhs.sort_unstable();
                    prop_assert_eq!(lhs, rhs);
                }
            }
        }
        new.check_invariants();
        let mut lhs: Vec<(u32, u64, u64)> = new.iter().map(|(k, c, e)| (*k, c, e)).collect();
        let mut rhs: Vec<(u32, u64, u64)> = old.iter().map(|(k, c, e)| (*k, c, e)).collect();
        lhs.sort_unstable();
        rhs.sort_unstable();
        prop_assert_eq!(lhs, rhs);
    }
}

/// The seed-era stream summary, verbatim in structure: array-of-structs
/// counter slots and a SipHash `HashMap` key index. Kept here (test-only)
/// as the differential reference for the SoA/CompactMap rewrite.
mod seed_summary {
    use std::collections::HashMap;
    use std::hash::Hash;

    const NIL: usize = usize::MAX;

    #[derive(Debug, Clone)]
    struct CounterSlot<K> {
        key: Option<K>,
        count: u64,
        error: u64,
        bucket: usize,
        prev: usize,
        next: usize,
    }

    #[derive(Debug, Clone)]
    struct Bucket {
        count: u64,
        child: usize,
        prev: usize,
        next: usize,
        in_use: bool,
    }

    #[derive(Debug, Clone)]
    pub struct StreamSummary<K: Eq + Hash + Clone> {
        slots: Vec<CounterSlot<K>>,
        buckets: Vec<Bucket>,
        free_buckets: Vec<usize>,
        min_bucket: usize,
        index: HashMap<K, usize>,
        capacity: usize,
    }

    impl<K: Eq + Hash + Clone> StreamSummary<K> {
        pub fn new(capacity: usize) -> Self {
            assert!(capacity > 0);
            StreamSummary {
                slots: Vec::with_capacity(capacity),
                buckets: Vec::with_capacity(capacity + 1),
                free_buckets: Vec::new(),
                min_bucket: NIL,
                index: HashMap::with_capacity(capacity * 2),
                capacity,
            }
        }

        pub fn len(&self) -> usize {
            self.index.len()
        }

        pub fn is_full(&self) -> bool {
            self.index.len() >= self.capacity
        }

        pub fn min_count(&self) -> u64 {
            if self.min_bucket == NIL {
                0
            } else {
                self.buckets[self.min_bucket].count
            }
        }

        pub fn get(&self, key: &K) -> Option<u64> {
            self.index.get(key).map(|&slot| self.slots[slot].count)
        }

        pub fn get_with_error(&self, key: &K) -> Option<(u64, u64)> {
            self.index
                .get(key)
                .map(|&slot| (self.slots[slot].count, self.slots[slot].error))
        }

        pub fn contains(&self, key: &K) -> bool {
            self.index.contains_key(key)
        }

        pub fn increment(&mut self, key: &K) -> Option<u64> {
            let slot = *self.index.get(key)?;
            Some(self.increment_slot(slot))
        }

        pub fn insert_new(&mut self, key: K) -> Option<u64> {
            if self.is_full() || self.index.contains_key(&key) {
                return None;
            }
            let slot = self.slots.len();
            self.slots.push(CounterSlot {
                key: Some(key.clone()),
                count: 0,
                error: 0,
                bucket: NIL,
                prev: NIL,
                next: NIL,
            });
            self.index.insert(key, slot);
            Some(self.increment_slot(slot))
        }

        pub fn replace_min(&mut self, key: K) -> (u64, K) {
            assert!(self.min_bucket != NIL);
            let slot = self.buckets[self.min_bucket].child;
            let old_key = self.slots[slot].key.clone().expect("occupied");
            assert!(!self.index.contains_key(&key));
            self.index.remove(&old_key);
            self.slots[slot].error = self.slots[slot].count;
            self.slots[slot].key = Some(key.clone());
            self.index.insert(key, slot);
            (self.increment_slot(slot), old_key)
        }

        pub fn iter(&self) -> impl Iterator<Item = (&K, u64, u64)> {
            self.slots
                .iter()
                .filter_map(|s| s.key.as_ref().map(|k| (k, s.count, s.error)))
        }

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

        fn detach_slot(&mut self, slot: usize) {
            let bucket = self.slots[slot].bucket;
            let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
            if prev != NIL {
                self.slots[prev].next = next;
            } else if bucket != NIL {
                self.buckets[bucket].child = next;
            }
            if next != NIL {
                self.slots[next].prev = prev;
            }
            self.slots[slot].prev = NIL;
            self.slots[slot].next = NIL;
            self.slots[slot].bucket = NIL;
        }

        fn attach_slot(&mut self, slot: usize, bucket: usize) {
            let head = self.buckets[bucket].child;
            self.slots[slot].bucket = bucket;
            self.slots[slot].prev = NIL;
            self.slots[slot].next = head;
            if head != NIL {
                self.slots[head].prev = slot;
            }
            self.buckets[bucket].child = slot;
        }

        fn increment_slot(&mut self, slot: usize) -> u64 {
            let old_bucket = self.slots[slot].bucket;
            let new_count = self.slots[slot].count + 1;
            self.slots[slot].count = new_count;
            let dest = if old_bucket == NIL {
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
            new_count
        }
    }
}
