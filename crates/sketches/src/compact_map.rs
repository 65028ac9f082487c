//! A flat open-addressing map for the per-packet hot path.
//!
//! [`CompactMap`] replaces `std::collections::HashMap` on the structures a
//! Full update touches (the [`StreamSummary`](crate::StreamSummary) key
//! index, Memento's overflow table `B`). Design, in order of importance
//! for cache behaviour:
//!
//! * **One-byte control array** (`ctrl`): each slot's occupancy plus a
//!   7-bit *fingerprint* of its key's hash live in a dense `Vec<u8>`, so
//!   a probe sequence walks one cache line of control bytes (64 slots)
//!   before it ever touches a key — the SoA idea of SwissTable/hashbrown,
//!   in safe code (entries are `Option<(K, V)>` rather than
//!   `MaybeUninit`).
//! * **One scalar probe walk**: [`CompactMap::probe`] compares the home
//!   slot's control byte straight-line, then walks the following control
//!   bytes one at a time until a key hit or the first empty slot. Below
//!   the 7/8 load cap most probes end at the home slot, where one byte
//!   compare is all the work there is. Group-at-a-time scans (16-lane
//!   SSE2, 8-lane SWAR) measured at parity there; they win only on long
//!   miss walks through a table near the cap, a gain the end-to-end
//!   benchmark does not resolve and that did not pay for their code and
//!   their `unsafe` (see the probe A/B in `crates/bench/EXPERIMENTS.md`).
//!   The same walk backs `get`/`insert`/`remove`, and the first-empty scan
//!   behind insert placement and the backward-shift cluster end walks the
//!   same bytes in the same order; the unpeeled seed-era loop survives as
//!   `probe_reference`, the differential tests' oracle.
//! * **Power-of-two capacity, linear probing**: the bucket index is
//!   `hash & mask` (no integer division) and the probe step is +1, the
//!   friendliest pattern for the prefetcher. The fast hash
//!   ([`crate::fasthash`]) mixes low bits well enough for this to be safe.
//! * **Backward-shift deletion, no tombstones**: removing a key shifts the
//!   displaced tail of its probe cluster back (Knuth's Algorithm R
//!   generalized to circular tables), so heavy churn — Memento retires an
//!   overflow entry for every one it inserts, forever — never decays the
//!   table into a tombstone field that each probe must wade through.
//!
//! The map resizes at 7/8 load; [`CompactMap::with_capacity`] pre-sizes the
//! table so the requested number of keys fits without ever resizing (what
//! the stream-summary index wants: its population is bounded by
//! construction).

use std::hash::Hash;

use crate::fasthash::hash_one;

/// Minimum number of slots. Held at 16 because the table geometry decides
/// every slot position — and with it iteration order, the snapshot path's
/// slot-rank tie-breaks and every probe length — so a different minimum
/// would move the accuracy and probe-length figures the benchmarks gate
/// bit for bit.
const MIN_SLOTS: usize = 16;

/// Control byte for an empty slot. Fingerprints always have the top bit
/// set, so 0 is unambiguous.
const EMPTY: u8 = 0;

/// Probe-shape statistics of a live [`CompactMap`], from
/// [`CompactMap::probe_stats`]. "Probe length" is the number of slots a
/// successful lookup of the key inspects, home slot and hit included
/// (a key sitting in its home slot has probe length 1) — exactly the
/// control bytes [`CompactMap::probe`] compares to find it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeStats {
    /// Number of keys the statistics cover (the map's `len`).
    pub keys: usize,
    /// Mean probe length over all keys (0.0 for an empty map).
    pub mean_probe_len: f64,
    /// Longest probe sequence of any key.
    pub max_probe_len: usize,
}

/// Change journal accumulated between two [`CompactMap::drain_journal`]
/// calls (see [`CompactMap::enable_journal`]). Boxed behind an `Option` so
/// maps that never snapshot (the shard routers) pay one null check per
/// write, nothing more.
#[derive(Debug, Clone)]
struct MapJournal<K> {
    /// One bit per slot: the slot's payload changed (insert, value update,
    /// or an existing entry moved here by backward-shift deletion) since
    /// the last drain.
    dirty: Vec<u64>,
    /// Keys removed since the last drain. A removed key may have been
    /// re-inserted afterwards; consumers must check the live map.
    removed: Vec<K>,
    /// Set when slot identity was invalidated wholesale (`clear`, `grow`):
    /// per-slot tracking is suspended and the next drain reports a full
    /// rebuild.
    all_dirty: bool,
}

/// The drained contents of a [`CompactMap`] change journal, as returned by
/// [`CompactMap::drain_journal`]. When `all_dirty` is set the per-slot and
/// per-key lists are empty and meaningless — the consumer must re-read the
/// whole map.
#[derive(Debug)]
pub struct MapJournalDrain<K> {
    /// Slot identity was invalidated wholesale (`clear` or a resize) since
    /// the last drain; rebuild instead of patching.
    pub all_dirty: bool,
    /// Slots whose payload changed since the last drain, ascending. A listed
    /// slot may be empty *now* (its entry was removed or shifted away); read
    /// the live map via [`CompactMap::slot_entry`].
    pub dirty_slots: Vec<usize>,
    /// Keys removed since the last drain (possibly re-inserted later; check
    /// the live map before treating one as gone).
    pub removed: Vec<K>,
}

/// A flat, power-of-two, linear-probing hash map with a separate one-byte
/// fingerprint array and backward-shift deletion. See the module docs for
/// the design rationale; see `tests/proptest_compact_map.rs` for the
/// differential suite that pins its behaviour to `std`'s `HashMap`.
#[derive(Debug, Clone)]
pub struct CompactMap<K, V> {
    /// One byte per slot: [`EMPTY`] or `0x80 | (hash >> 48) as u8`
    /// (fingerprint from hash bits 48–54; see [`Self::decompose`] for why
    /// those bits).
    ctrl: Vec<u8>,
    /// The slot payloads, parallel to `ctrl` (`Some` iff `ctrl[i] != EMPTY`).
    entries: Vec<Option<(K, V)>>,
    /// `ctrl.len() - 1`; `ctrl.len()` is a power of two.
    mask: usize,
    /// Occupied slot count.
    len: usize,
    /// Change journal for incremental snapshot publication; `None` until
    /// [`Self::enable_journal`].
    journal: Option<Box<MapJournal<K>>>,
}

impl<K: Eq + Hash, V> Default for CompactMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash, V> CompactMap<K, V> {
    /// Creates an empty map with the minimum table size.
    pub fn new() -> Self {
        Self::with_slots(MIN_SLOTS)
    }

    /// Creates a map that can hold `capacity` keys without resizing
    /// (table sized so `capacity` stays within the 7/8 load limit).
    pub fn with_capacity(capacity: usize) -> Self {
        // slots * 7/8 >= capacity  ⇒  slots >= ceil(8c / 7).
        let needed = capacity.saturating_mul(8).div_ceil(7).max(MIN_SLOTS);
        Self::with_slots(needed.next_power_of_two())
    }

    fn with_slots(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        let mut entries = Vec::new();
        entries.resize_with(slots, || None);
        CompactMap {
            ctrl: vec![EMPTY; slots],
            entries,
            mask: slots - 1,
            len: 0,
            journal: None,
        }
    }

    /// Starts recording per-slot changes for incremental snapshots
    /// ([`Self::drain_journal`]). The journal opens in the `all_dirty`
    /// state so the first drain after enabling always reports a full
    /// rebuild. Idempotent; maps that never enable the journal pay one
    /// null check per write.
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Box::new(MapJournal {
                dirty: vec![0; self.ctrl.len().div_ceil(64)],
                removed: Vec::new(),
                all_dirty: true,
            }));
        }
    }

    /// True once [`Self::enable_journal`] has been called.
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Takes everything recorded since the previous drain and resets the
    /// journal to clean. Returns `None` when the journal was never enabled.
    pub fn drain_journal(&mut self) -> Option<MapJournalDrain<K>> {
        let j = self.journal.as_deref_mut()?;
        let mut dirty_slots = Vec::new();
        if !j.all_dirty {
            for (w, &word) in j.dirty.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    dirty_slots.push(w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        }
        let drained = MapJournalDrain {
            all_dirty: j.all_dirty,
            dirty_slots,
            removed: std::mem::take(&mut j.removed),
        };
        j.dirty.clear();
        j.dirty.resize(self.ctrl.len().div_ceil(64), 0);
        j.all_dirty = false;
        Some(drained)
    }

    /// Records `slot` as changed. No-op without a journal or after a
    /// wholesale invalidation (the pending rebuild supersedes per-slot
    /// marks).
    #[inline]
    fn journal_mark(&mut self, slot: usize) {
        if let Some(j) = self.journal.as_deref_mut() {
            if !j.all_dirty {
                j.dirty[slot / 64] |= 1 << (slot % 64);
            }
        }
    }

    /// Records `key` as removed, consuming the owned key the removal freed
    /// (no clone on the removal path).
    #[inline]
    fn journal_removed(&mut self, key: K) {
        if let Some(j) = self.journal.as_deref_mut() {
            if !j.all_dirty {
                j.removed.push(key);
            }
        }
    }

    /// Suspends per-slot tracking until the next drain: slot identity was
    /// invalidated wholesale (`clear`, `grow`).
    #[inline]
    fn journal_invalidate(&mut self) {
        if let Some(j) = self.journal.as_deref_mut() {
            j.all_dirty = true;
            j.removed.clear();
            j.dirty.clear();
        }
    }

    /// Number of keys in the map.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of keys the map can hold before its next resize.
    pub fn capacity(&self) -> usize {
        self.max_load()
    }

    /// The 7/8-of-slots load limit.
    fn max_load(&self) -> usize {
        let slots = self.ctrl.len();
        slots - slots / 8
    }

    /// Home slot and fingerprint byte for a hash value: index from the low
    /// bits, fingerprint from bits 48–54 (top bit forced on so a
    /// fingerprint never equals [`EMPTY`]). The fingerprint bits are
    /// deliberately disjoint from *both* consumers of the hash's ends: the
    /// low bits index this table, and the topmost bits pick the shard in
    /// [`crate::fasthash::route`] — a fingerprint drawn from either range
    /// would lose entropy exactly when sharding or table growth fixes
    /// those bits per table.
    #[inline]
    fn decompose(&self, hash: u64) -> (usize, u8) {
        ((hash as usize) & self.mask, 0x80 | (hash >> 48) as u8)
    }

    /// Walks `key`'s probe sequence once: `Ok(slot)` when the key is
    /// present, otherwise `Err((empty_slot, fingerprint))` — the
    /// terminating empty slot, which is exactly where a no-resize insert
    /// must place the key (so miss-then-insert pays one walk, not two).
    /// The table is never full (load is capped at 7/8), so the probe
    /// always terminates.
    ///
    /// One scalar walk, bit-for-bit equal to [`Self::probe_reference`]:
    /// the home slot is checked straight-line, then one rolled loop
    /// compares the following control bytes in probe order until a key
    /// hit or the first [`EMPTY`]. At the summary index's ~1/2 operating
    /// load ~93% of probes end at the home slot, so that case runs with no
    /// loop bookkeeping at all; the loop behind it is kept rolled, which
    /// leaves it a single key-hit site that LLVM fuses the caller's entry
    /// access (`slot_value`, `get`'s value load) straight into.
    ///
    /// Exposed `#[doc(hidden)]` so the differential property tests can pin
    /// it against [`Self::probe_reference`]; not part of the supported API.
    #[doc(hidden)]
    #[inline(always)]
    pub fn probe(&self, key: &K) -> Result<usize, (usize, u8)> {
        self.probe_hashed(hash_one(key), key)
    }

    /// [`Self::probe`] with the caller supplying `hash_one(key)` — the
    /// batched pipelines hash each key once when they issue its prefetch
    /// and hand the value down here, so the probe does not hash again.
    /// Passing anything but `key`'s own [`hash_one`] value breaks the
    /// table's invariants.
    #[doc(hidden)]
    #[inline(always)]
    pub fn probe_hashed(&self, hash: u64, key: &K) -> Result<usize, (usize, u8)> {
        let (home, fp) = self.decompose(hash);
        let c = self.ctrl[home];
        if c == fp {
            if let Some((k, _)) = &self.entries[home] {
                if k == key {
                    return Ok(home);
                }
            }
        } else if c == EMPTY {
            return Err((home, fp));
        }
        let mut i = (home + 1) & self.mask;
        loop {
            let c = self.ctrl[i];
            if c == fp {
                if let Some((k, _)) = &self.entries[i] {
                    if k == key {
                        return Ok(i);
                    }
                }
            } else if c == EMPTY {
                return Err((i, fp));
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Bit-for-bit byte-at-a-time reference for [`Self::probe`]: the
    /// seed-era scan, one control byte per step with no peeled home slot.
    /// Kept as the oracle of the differential property tests
    /// (`tests/proptest_compact_map.rs`) and as the baseline of the probe
    /// micro-benchmarks; not part of the supported API.
    #[doc(hidden)]
    #[inline]
    pub fn probe_reference(&self, key: &K) -> Result<usize, (usize, u8)> {
        let (mut i, fp) = self.decompose(hash_one(key));
        loop {
            let c = self.ctrl[i];
            if c == EMPTY {
                return Err((i, fp));
            }
            if c == fp {
                if let Some((k, _)) = &self.entries[i] {
                    if k == key {
                        return Ok(i);
                    }
                }
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Value stored in `slot` (as returned by [`Self::probe`] /
    /// [`Self::probe_reference`]), if the slot is occupied. Exposed
    /// `#[doc(hidden)]` so the benches can pay the same entries touch
    /// after either scan without a second probe.
    #[doc(hidden)]
    #[inline]
    pub fn slot_value(&self, slot: usize) -> Option<&V> {
        self.entries[slot].as_ref().map(|(_, v)| v)
    }

    /// First [`EMPTY`] slot at or cyclically after `start`, one control
    /// byte at a time in [`Self::probe`]'s order. The table always holds
    /// one (load is capped at 7/8), so the walk terminates.
    #[inline]
    fn first_empty_from(&self, start: usize) -> usize {
        let mut i = start;
        while self.ctrl[i] != EMPTY {
            i = (i + 1) & self.mask;
        }
        i
    }

    /// Hints the CPU to pull the cache lines `key`'s probe will touch —
    /// the home control byte's line and the home entry — without reading them
    /// (see [`crate::fasthash::prefetch`]). The batched update pipelines
    /// call this for keys a small lookahead before probing them, so the
    /// misses of a batch overlap instead of serializing. Costs one hash
    /// of `key`; has no observable effect on the map.
    #[inline]
    pub fn prefetch(&self, key: &K) {
        self.prefetch_hashed(hash_one(key));
    }

    /// [`Self::prefetch`] with the caller supplying `hash_one(key)`,
    /// letting the batched pipelines reuse one hash for the prefetch and
    /// the later [`Self::probe_hashed`].
    #[inline]
    pub fn prefetch_hashed(&self, hash: u64) {
        let (home, _) = self.decompose(hash);
        crate::fasthash::prefetch(&self.ctrl[home]);
        crate::fasthash::prefetch(&self.entries[home]);
    }

    /// Probe-shape statistics of the current table, computed on demand by
    /// walking every occupied slot (nothing is counted on the hot path).
    /// Used by the workspace's regression tests to pin the Lemire-route
    /// probe-length invariant and by the benches to report table health.
    pub fn probe_stats(&self) -> ProbeStats {
        let mut total_len = 0u64;
        let mut max_len = 0usize;
        for (i, slot) in self.entries.iter().enumerate() {
            let Some((k, _)) = slot else { continue };
            let home = (hash_one(k) as usize) & self.mask;
            let probe_len = (i.wrapping_sub(home) & self.mask) + 1;
            total_len += probe_len as u64;
            max_len = max_len.max(probe_len);
        }
        ProbeStats {
            keys: self.len,
            mean_probe_len: if self.len == 0 {
                0.0
            } else {
                total_len as f64 / self.len as f64
            },
            max_probe_len: max_len,
        }
    }

    /// Slot holding `key`, if present.
    #[inline]
    fn find(&self, key: &K) -> Option<usize> {
        self.probe(key).ok()
    }

    /// Reference to the value stored for `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key)
            .map(|i| &self.entries[i].as_ref().expect("occupied slot").1)
    }

    /// [`Self::get`] with the caller supplying `hash_one(key)` (see
    /// [`Self::probe_hashed`]): the batched pipelines hash once at
    /// prefetch time and reuse the value for the probe.
    #[inline]
    pub fn get_hashed(&self, hash: u64, key: &K) -> Option<&V> {
        self.probe_hashed(hash, key)
            .ok()
            .map(|i| &self.entries[i].as_ref().expect("occupied slot").1)
    }

    /// Mutable reference to the value stored for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.find(key)?;
        // The caller may write through the reference: journal conservatively.
        self.journal_mark(i);
        Some(&mut self.entries[i].as_mut().expect("occupied slot").1)
    }

    /// Slot holding `key`, if present — the stable per-table identity the
    /// incremental snapshot path uses as a tie-breaking rank (slots only
    /// change on removal shifts and resizes, both journaled).
    #[inline]
    pub fn slot_of(&self, key: &K) -> Option<usize> {
        self.find(key)
    }

    /// The `(key, value)` stored in `slot`, if the slot is occupied. The
    /// journal consumer reads dirty slots through this.
    #[inline]
    pub fn slot_entry(&self, slot: usize) -> Option<(&K, &V)> {
        self.entries.get(slot)?.as_ref().map(|(k, v)| (k, v))
    }

    /// True when the map holds `key`.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    /// Writes an absent `key → value` into `slot` (the terminating empty
    /// slot [`Self::probe`] returned) and bumps `len`. The entry goes in
    /// before the control byte so an unwinding value expression cannot
    /// leave a fingerprint over an empty payload.
    #[inline]
    fn occupy(&mut self, slot: usize, fp: u8, key: K, value: V) {
        self.entries[slot] = Some((key, value));
        self.ctrl[slot] = fp;
        self.len += 1;
        self.journal_mark(slot);
    }

    /// Installs `key → value` in the first empty slot of its probe
    /// sequence and returns that slot — the re-walking form used when no
    /// prior probe result is valid (after [`Self::grow`] remapped every
    /// slot). Callers guarantee `key` is absent; `len` is not touched
    /// (grow re-installs existing entries).
    #[inline]
    fn install(&mut self, key: K, value: V) -> usize {
        let (home, fp) = self.decompose(hash_one(&key));
        let i = self.first_empty_from(home);
        self.entries[i] = Some((key, value));
        self.ctrl[i] = fp;
        i
    }

    /// Inserts `key → value`; returns the previous value if the key was
    /// already present. One probe walk on every path (the miss walk ends
    /// at the very slot the key goes into, unless the insert triggers a
    /// resize).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.probe(&key) {
            Ok(i) => {
                let slot = self.entries[i].as_mut().expect("occupied slot");
                let previous = std::mem::replace(&mut slot.1, value);
                self.journal_mark(i);
                Some(previous)
            }
            Err((slot, fp)) => {
                if self.len + 1 > self.max_load() {
                    self.grow();
                    self.install(key, value);
                    self.len += 1;
                } else {
                    self.occupy(slot, fp, key, value);
                }
                None
            }
        }
    }

    /// Mutable reference to the value for `key`, inserting
    /// `default()` first when the key is absent (the hot-path shape of
    /// `HashMap::entry(k).or_insert_with(f)`, hashing the key once and
    /// walking the probe sequence once on either path). A panicking
    /// `default` leaves the map unchanged.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let i = match self.probe(&key) {
            Ok(i) => {
                // The caller gets `&mut V`: journal conservatively.
                self.journal_mark(i);
                i
            }
            Err((slot, fp)) => {
                if self.len + 1 > self.max_load() {
                    // Evaluate the default before growing: an unwinding
                    // default must leave even the allocation untouched.
                    let value = default();
                    self.grow();
                    let slot = self.install(key, value);
                    self.len += 1;
                    slot
                } else {
                    self.occupy(slot, fp, key, default());
                    slot
                }
            }
        };
        &mut self.entries[i].as_mut().expect("occupied slot").1
    }

    /// Removes `key`, returning its value if it was present. Uses
    /// backward-shift deletion: the displaced tail of the probe cluster
    /// moves back over the vacated slot, leaving no tombstone.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let mut hole = self.find(key)?;
        let (removed_key, value) = self.entries[hole].take().expect("occupied slot");
        self.ctrl[hole] = EMPTY;
        self.len -= 1;
        self.journal_removed(removed_key);
        // Knuth's Algorithm R on a circular table: walk the cluster after
        // the hole; any entry whose home position is cyclically outside
        // (hole, j] would become unreachable through the hole — move it
        // into the hole and continue from its old slot. The cluster's end
        // is found up front: the walk only ever vacates slots it has
        // *already* visited (a shifted entry's old slot trails `j`), so the
        // first EMPTY at or after `hole + 1` never moves while the walk
        // runs.
        let end = self.first_empty_from((hole + 1) & self.mask);
        let mut j = hole;
        loop {
            j = (j + 1) & self.mask;
            if j == end {
                return Some(value);
            }
            let home = {
                let (k, _) = self.entries[j].as_ref().expect("occupied slot");
                (hash_one(k) as usize) & self.mask
            };
            // Cyclic probe distances from the entry's home: if the hole is
            // strictly closer to home than j is, the hole lies on the
            // entry's probe path and the entry can (and must) fill it.
            let dist_hole = hole.wrapping_sub(home) & self.mask;
            let dist_j = j.wrapping_sub(home) & self.mask;
            if dist_hole < dist_j {
                self.entries[hole] = self.entries[j].take();
                self.ctrl[hole] = self.ctrl[j];
                self.ctrl[j] = EMPTY;
                // The shifted entry changed slots: its rank is stale.
                self.journal_mark(hole);
                hole = j;
            }
        }
    }

    /// Removes every key, keeping the allocated table.
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        self.ctrl.fill(EMPTY);
        for slot in &mut self.entries {
            *slot = None;
        }
        self.len = 0;
        self.journal_invalidate();
    }

    /// Iterates over `(&key, &value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries
            .iter()
            .filter_map(|slot| slot.as_ref().map(|(k, v)| (k, v)))
    }

    /// Heap footprint of the table itself in bytes: the control array plus
    /// the slot array, *at the allocated size* (the table never shrinks, so
    /// a churn peak's allocation persists — `len`-based accounting would
    /// understate it).
    pub fn heap_bytes(&self) -> usize {
        self.ctrl.len() * (1 + std::mem::size_of::<Option<(K, V)>>())
    }

    /// Doubles the table and re-inserts every entry.
    fn grow(&mut self) {
        self.journal_invalidate();
        let slots = self.ctrl.len() * 2;
        let old_entries = std::mem::take(&mut self.entries);
        self.ctrl = vec![EMPTY; slots];
        self.entries = Vec::new();
        self.entries.resize_with(slots, || None);
        self.mask = slots - 1;
        for (key, value) in old_entries.into_iter().flatten() {
            self.install(key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_overwrite() {
        let mut m: CompactMap<u64, u32> = CompactMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(2, 20), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.get(&1), Some(&11));
        assert_eq!(m.get(&2), Some(&20));
        assert_eq!(m.get(&3), None);
        assert_eq!(m.len(), 2);
        assert!(m.contains_key(&1) && !m.contains_key(&3));
    }

    #[test]
    fn get_mut_and_entry_shape() {
        let mut m: CompactMap<&str, u32> = CompactMap::new();
        *m.get_or_insert_with("a", || 0) += 1;
        *m.get_or_insert_with("a", || 0) += 1;
        assert_eq!(m.get(&"a"), Some(&2));
        if let Some(v) = m.get_mut(&"a") {
            *v = 9;
        }
        assert_eq!(m.get(&"a"), Some(&9));
    }

    #[test]
    fn remove_returns_value_and_shrinks_len() {
        let mut m: CompactMap<u64, u64> = CompactMap::new();
        for i in 0..50 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.remove(&25), Some(50));
        assert_eq!(m.remove(&25), None);
        assert_eq!(m.len(), 49);
        for i in 0..50 {
            assert_eq!(m.get(&i).copied(), if i == 25 { None } else { Some(i * 2) });
        }
    }

    #[test]
    fn backward_shift_keeps_clusters_reachable() {
        // Insert enough keys to force long probe clusters in a small table,
        // then delete from the middle of clusters and verify every survivor
        // is still reachable.
        let mut m: CompactMap<u64, u64> = CompactMap::with_capacity(64);
        for i in 0..60 {
            m.insert(i, i);
        }
        for i in (0..60).step_by(3) {
            assert_eq!(m.remove(&i), Some(i));
        }
        for i in 0..60 {
            let expect = if i % 3 == 0 { None } else { Some(&i) };
            assert_eq!(m.get(&i), expect, "key {i} lost after churn");
        }
        assert_eq!(m.len(), 40);
    }

    #[test]
    fn probe_agrees_with_reference() {
        // Unit-level pin of `probe` against the byte-loop oracle (the
        // proptests cover the same equivalence under randomized churn):
        // present keys, absent keys, and keys removed mid-churn must agree
        // on `Ok` slots *and* on `Err` first-empty slots, bit for bit.
        for capacity in [0usize, 8, 64, 512] {
            let mut m: CompactMap<u64, u64> = CompactMap::with_capacity(capacity);
            let fill = (capacity.max(8) * 7 / 8) as u64;
            for i in 0..fill {
                m.insert(i.wrapping_mul(0x9e37_79b9), i);
            }
            for i in (0..fill).step_by(3) {
                m.remove(&i.wrapping_mul(0x9e37_79b9));
            }
            for probe_key in (0..2 * fill.max(16)).map(|i| i.wrapping_mul(0x9e37_79b9)) {
                assert_eq!(
                    m.probe(&probe_key),
                    m.probe_reference(&probe_key),
                    "key {probe_key}"
                );
            }
        }
    }

    #[test]
    fn probe_and_backward_shift_wrap_past_the_last_slot() {
        // A cluster homed at the last slot of a 16-slot table must wrap
        // through slot 0: probe, first-empty placement and backward-shift
        // deletion all step with `& mask`.
        let mut m: CompactMap<u64, u64> = CompactMap::new();
        assert_eq!(m.ctrl.len(), 16);
        let home = |k: &u64| hash_one(k) as usize & 15;
        let mut last = (0u64..).filter(|k| home(k) == 15);
        let (a, b, c, absent) = (
            last.next().unwrap(),
            last.next().unwrap(),
            last.next().unwrap(),
            last.next().unwrap(),
        );
        let d = (0u64..).find(|k| home(k) == 0).unwrap();
        // a, b, d, c land in slots 15, 0, 1, 2: b and c wrapped, and d was
        // displaced from its own home 0 by the wrapped b.
        for key in [a, b, d, c] {
            m.insert(key, key);
        }
        let slots = |m: &CompactMap<u64, u64>| [a, b, d, c].map(|k| m.probe(&k));
        assert_eq!(slots(&m), [Ok(15), Ok(0), Ok(1), Ok(2)]);
        for key in [a, b, c, d, absent] {
            assert_eq!(m.probe(&key), m.probe_reference(&key), "key {key}");
        }
        // A miss homed at 15 walks the wrapped cluster to the first empty.
        assert!(matches!(m.probe(&absent), Err((3, _))));

        // Removing the cluster's head shifts every wrapped entry back by
        // one, across the wrap: b to 15, d to its home 0, c to 1.
        assert_eq!(m.remove(&a), Some(a));
        assert_eq!(m.probe(&a), m.probe_reference(&a));
        assert_eq!(
            [b, d, c].map(|k| m.probe(&k)),
            [Ok(15), Ok(0), Ok(1)],
            "backward shift across the wrap"
        );
        for key in [b, c, d] {
            assert_eq!(m.get(&key), Some(&key), "key {key} unreachable");
            assert_eq!(m.probe(&key), m.probe_reference(&key), "key {key}");
        }
        assert!(matches!(m.probe(&absent), Err((2, _))));
        assert_eq!(m.probe(&absent), m.probe_reference(&absent));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn with_capacity_never_resizes_within_capacity() {
        let mut m: CompactMap<u64, u64> = CompactMap::with_capacity(4096);
        let slots = m.ctrl.len();
        assert!(m.capacity() >= 4096);
        for i in 0..4096 {
            m.insert(i, i);
        }
        assert_eq!(
            m.ctrl.len(),
            slots,
            "table resized below its stated capacity"
        );
        assert_eq!(m.len(), 4096);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m: CompactMap<u64, u64> = CompactMap::new();
        for i in 0..10_000 {
            m.insert(i, i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000 {
            assert_eq!(m.get(&i), Some(&i));
        }
    }

    #[test]
    fn clear_keeps_allocation_and_empties() {
        let mut m: CompactMap<u64, u64> = CompactMap::with_capacity(100);
        for i in 0..100 {
            m.insert(i, i);
        }
        let slots = m.ctrl.len();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.ctrl.len(), slots);
        assert_eq!(m.get(&5), None);
        m.insert(5, 5);
        assert_eq!(m.get(&5), Some(&5));
    }

    #[test]
    fn panicking_default_leaves_map_unchanged() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut m: CompactMap<u64, u32> = CompactMap::new();
        m.insert(1, 10);
        let result = catch_unwind(AssertUnwindSafe(|| {
            m.get_or_insert_with(2, || panic!("default exploded"));
        }));
        assert!(result.is_err());
        assert_eq!(m.len(), 1, "len must not count the failed insert");
        assert_eq!(m.get(&2), None);
        assert_eq!(m.get(&1), Some(&10));
        m.insert(2, 20);
        assert_eq!(m.get(&2), Some(&20));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn panicking_default_at_max_load_leaves_allocation_unchanged() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Fill a fresh map exactly to its load limit so the next miss
        // would grow: a panicking default must fire before the resize.
        let mut m: CompactMap<u64, u32> = CompactMap::new();
        let cap = m.capacity() as u64;
        for i in 0..cap {
            m.insert(i, 0);
        }
        let bytes = m.heap_bytes();
        let result = catch_unwind(AssertUnwindSafe(|| {
            m.get_or_insert_with(cap, || panic!("default exploded"));
        }));
        assert!(result.is_err());
        assert_eq!(m.heap_bytes(), bytes, "table grew for a failed insert");
        assert_eq!(m.len(), cap as usize);
        assert_eq!(m.get(&cap), None);
    }

    #[test]
    fn fingerprints_survive_shard_partitioning() {
        // The fingerprint bits (48–54) must stay uncorrelated with the
        // shard choice: collect the keys shard 0 of 8 owns and require
        // their fingerprint bytes to cover most of the 128-value space
        // (a fingerprint drawn from the route bits would collapse here).
        use crate::fasthash::{hash_one, route};
        let mut fps = std::collections::HashSet::new();
        for i in 0..20_000u64 {
            if route(&i, 8) == 0 {
                fps.insert(0x80u8 | (hash_one(&i) >> 48) as u8);
            }
        }
        assert!(
            fps.len() > 100,
            "only {} of 128 fingerprints inside one shard",
            fps.len()
        );
    }

    #[test]
    fn probe_stats_on_empty_and_home_resident_tables() {
        let m: CompactMap<u64, u64> = CompactMap::new();
        let stats = m.probe_stats();
        assert_eq!(stats.keys, 0);
        assert_eq!(stats.mean_probe_len, 0.0);
        assert_eq!(stats.max_probe_len, 0);
        // One key, necessarily in its home slot: probe length 1.
        let mut m: CompactMap<u64, u64> = CompactMap::new();
        m.insert(42, 0);
        let stats = m.probe_stats();
        assert_eq!(stats.keys, 1);
        assert_eq!(stats.mean_probe_len, 1.0);
        assert_eq!(stats.max_probe_len, 1);
    }

    #[test]
    fn probe_stats_counts_displacement() {
        // Every key maps to a distinct home in a big sparse table, so
        // *forcing* displacement needs a measured comparison instead:
        // filling a table to capacity must raise the mean above 1 and the
        // stats must stay consistent (mean ≤ max).
        let mut m: CompactMap<u64, u64> = CompactMap::with_capacity(512);
        for i in 0..512 {
            m.insert(i, i);
        }
        let stats = m.probe_stats();
        assert_eq!(stats.keys, 512);
        assert!(stats.mean_probe_len >= 1.0);
        assert!(stats.max_probe_len >= stats.mean_probe_len.ceil() as usize);
    }

    #[test]
    fn lemire_routed_shard_tables_keep_short_probes() {
        // The PR 5 routing invariant, now pinned against `probe_stats`:
        // keys a shard owns under `fasthash::route` (high-bit Lemire
        // reduction) must not cluster in that shard's tables. At 4 shards
        // and the stream-summary's exact sizing (4096 keys in a
        // `with_capacity(4096)` table, ~50% load after the power-of-two
        // round-up) the mean probe length stays at the unsharded level —
        // ≤ 2.2 slots. A `hash % shards` router would push the mean far
        // beyond this (the low index bits would be fixed per shard).
        use crate::fasthash::route;
        for shards in [1usize, 4] {
            let mut m: CompactMap<u64, u64> = CompactMap::with_capacity(4096);
            let mut key = 0u64;
            while m.len() < 4096 {
                if route(&key, shards) == 0 {
                    m.insert(key, key);
                }
                key += 1;
            }
            let stats = m.probe_stats();
            assert_eq!(stats.keys, 4096);
            assert!(
                stats.mean_probe_len <= 2.2,
                "shard 0 of {shards}: mean probe length {} exceeds 2.2",
                stats.mean_probe_len
            );
        }
    }

    #[test]
    fn journal_records_writes_removals_and_invalidations() {
        let mut m: CompactMap<u64, u64> = CompactMap::with_capacity(64);
        assert!(m.drain_journal().is_none(), "journal off by default");
        m.insert(1, 10);
        m.enable_journal();
        // The first drain after enabling always reports a full rebuild.
        assert!(m.drain_journal().unwrap().all_dirty);
        m.insert(2, 20);
        m.insert(1, 11);
        *m.get_or_insert_with(3, || 0) += 5;
        let d = m.drain_journal().unwrap();
        assert!(!d.all_dirty);
        let keys: std::collections::HashSet<u64> = d
            .dirty_slots
            .iter()
            .map(|&s| *m.slot_entry(s).unwrap().0)
            .collect();
        assert!(keys.contains(&1) && keys.contains(&2) && keys.contains(&3));
        assert!(d.removed.is_empty());
        m.remove(&2);
        let d = m.drain_journal().unwrap();
        assert_eq!(d.removed, vec![2]);
        m.clear();
        assert!(m.drain_journal().unwrap().all_dirty, "clear invalidates");
        let d = m.drain_journal().unwrap();
        assert!(!d.all_dirty && d.dirty_slots.is_empty() && d.removed.is_empty());
    }

    #[test]
    fn journal_flags_resize_as_all_dirty() {
        let mut m: CompactMap<u64, u64> = CompactMap::new();
        m.enable_journal();
        m.drain_journal();
        for i in 0..100 {
            m.insert(i, i); // forces several grows past MIN_SLOTS
        }
        assert!(m.drain_journal().unwrap().all_dirty);
    }

    #[test]
    fn journal_marks_backward_shifted_slots() {
        // Every key whose slot changes during removal churn must have its
        // *new* slot journaled, or an incremental snapshot would keep the
        // stale rank.
        let mut m: CompactMap<u64, u64> = CompactMap::with_capacity(64);
        for i in 0..56 {
            m.insert(i, i);
        }
        m.enable_journal();
        m.drain_journal();
        let before: Vec<(u64, usize)> = (0..56u64)
            .filter(|i| i % 3 != 0)
            .map(|i| (i, m.slot_of(&i).unwrap()))
            .collect();
        for i in (0..56u64).step_by(3) {
            m.remove(&i);
        }
        let d = m.drain_journal().unwrap();
        assert!(!d.all_dirty);
        assert_eq!(d.removed.len(), 19);
        let dirty: std::collections::HashSet<usize> = d.dirty_slots.into_iter().collect();
        for (k, old_slot) in before {
            let new_slot = m.slot_of(&k).unwrap();
            if new_slot != old_slot {
                assert!(
                    dirty.contains(&new_slot),
                    "key {k} moved {old_slot}→{new_slot} without a journal mark"
                );
            }
        }
    }

    #[test]
    fn iter_yields_every_entry_once() {
        let mut m: CompactMap<u64, u64> = CompactMap::new();
        for i in 0..37 {
            m.insert(i, i + 100);
        }
        let mut seen: Vec<(u64, u64)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        seen.sort_unstable();
        assert_eq!(seen.len(), 37);
        for (i, (k, v)) in seen.into_iter().enumerate() {
            assert_eq!((k, v), (i as u64, i as u64 + 100));
        }
    }
}
