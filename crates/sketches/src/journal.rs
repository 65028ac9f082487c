//! The change journal behind incremental snapshot publication.
//!
//! A table that publishes O(dirty) snapshots ([`CompactMap`], Memento's
//! overflow table `B`, and [`StreamSummary`], its in-frame summary `y`)
//! must tell its consumer which keys may have changed since the previous
//! freeze. Both record the same three facts between two drains, so both
//! own the same [`SlotJournal`]:
//!
//! * a **dirty-slot bitmap** — one bit per table slot whose payload
//!   changed (insert, value update, a key moved into the slot);
//! * the **departed keys** — keys that left the table (removal, eviction);
//!   a departed key may have come back since, so consumers re-read it;
//! * a **`rebuild` flag** — slot identity was invalidated wholesale
//!   (first drain, clear, resize, or too many departures to be worth
//!   listing): per-slot tracking is suspended and the next drain asks for
//!   a full re-read instead of a patch.
//!
//! The journal is boxed behind an `Option` and opened by the table's first
//! `drain_journal()`, so tables that never publish (the shard routers, the
//! stream summary's own key index) pay one null check per write.
//!
//! [`CompactMap`]: crate::CompactMap
//! [`StreamSummary`]: crate::StreamSummary

/// What a table's `drain_journal()` reports: everything that may have
/// changed since the previous drain.
#[derive(Debug)]
pub struct JournalDrain<K> {
    /// Slot identity was invalidated wholesale since the last drain (or
    /// this is the first drain): re-read the whole table instead of
    /// patching. `changed` is empty then.
    pub rebuild: bool,
    /// Keys to re-read: the keys now in dirty slots (ascending slot order),
    /// then the keys that departed. A key may appear twice, and a departed
    /// key may be back in the table — check the live table for each.
    pub changed: Vec<K>,
}

/// Per-slot change record between two drains (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct SlotJournal<K> {
    /// One bit per slot: its payload changed since the last drain.
    dirty: Vec<u64>,
    /// Keys that left the table since the last drain.
    departed: Vec<K>,
    /// The table's slot count at the last drain: sizes `dirty` and bounds
    /// `departed`.
    slots: usize,
    /// Per-slot tracking is suspended until the next drain, which reports a
    /// full rebuild.
    rebuild: bool,
}

impl<K> SlotJournal<K> {
    /// A journal for a table of `slots` slots, opening in the `rebuild`
    /// state: the first drain always asks for a full re-read.
    pub(crate) fn open(slots: usize) -> Box<Self> {
        Box::new(SlotJournal {
            dirty: vec![0; slots.div_ceil(64)],
            departed: Vec::new(),
            slots,
            rebuild: true,
        })
    }

    /// Records `slot` as changed. No-op while a rebuild is pending (the
    /// rebuild supersedes per-slot marks).
    #[inline]
    pub(crate) fn mark(&mut self, slot: usize) {
        if !self.rebuild {
            self.dirty[slot / 64] |= 1 << (slot % 64);
        }
    }

    /// Records `key` as departed. Once as many keys departed as the table
    /// has slots, listing them costs more than re-reading the table, and a
    /// table that is drained rarely would grow the list with the stream:
    /// the journal invalidates instead.
    #[inline]
    pub(crate) fn depart(&mut self, key: K) {
        if self.rebuild {
            return;
        }
        if self.departed.len() >= self.slots {
            self.invalidate();
        } else {
            self.departed.push(key);
        }
    }

    /// Suspends per-slot tracking until the next drain: slot identity was
    /// invalidated wholesale.
    pub(crate) fn invalidate(&mut self) {
        self.rebuild = true;
        self.departed.clear();
        self.dirty.fill(0);
    }

    /// Takes everything recorded since the previous drain and resets the
    /// journal for a table of `slots` slots. `key_at(slot)` reads the key
    /// the table now holds in `slot`.
    pub(crate) fn drain<'a>(
        &mut self,
        slots: usize,
        key_at: impl Fn(usize) -> Option<&'a K>,
    ) -> JournalDrain<K>
    where
        K: Clone + 'a,
    {
        let mut changed = Vec::new();
        if !self.rebuild {
            for (w, &word) in self.dirty.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    changed.extend(key_at(slot).cloned());
                    bits &= bits - 1;
                }
            }
            changed.append(&mut self.departed);
        }
        let drained = JournalDrain {
            rebuild: self.rebuild,
            changed,
        };
        self.dirty.clear();
        self.dirty.resize(slots.div_ceil(64), 0);
        self.slots = slots;
        self.rebuild = false;
        drained
    }
}
