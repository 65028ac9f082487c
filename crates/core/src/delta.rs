//! Incremental snapshot publication: the delta types behind
//! [`WindowQuery::freeze_delta`].
//!
//! A sharded engine publishes each shard's answers once per epoch. Instead
//! of copying the whole summary each time (O(k) per shard, however little
//! changed), a shard reports only what moved since its previous freeze, so
//! snapshot maintenance is proportional to the **update delta**:
//!
//! * [`WindowPatch`] — what one shard reports per epoch: the tracked flows
//!   whose estimate (or tie-breaking rank) changed since the previous
//!   freeze, the flows that stopped being tracked, and the scalar state
//!   (untracked estimate, stream position, error bound). A patch can also
//!   demand a full `rebuild` when the estimator's change journal could not
//!   say what changed (first freeze, frame flush, table resize, too many
//!   departures). Every estimator builds its patch the same way,
//!   [`WindowPatch::from_keys`]: it names the flows that may have changed
//!   (or, for a rebuild, every tracked flow) and this module looks up each
//!   one's `(estimate, rank)`. Estimators without a journal use the
//!   provided full [`WindowPatch::rebuild`].
//! * [`DeltaWindow`] — the frozen per-shard view: an [`Arc`]-shared
//!   `key → (estimate, rank)` table plus the frozen scalars, answering
//!   [`WindowQuery`] bit-for-bit like the live estimator at its last freeze.
//!   `clone` is one `Arc` bump; [`DeltaWindow::apply`] patches the table in
//!   place when this view is the only owner and falls back to a
//!   copy-on-write clone when a published snapshot still shares it.
//! * [`DeltaAssembler`] — what makes the in-place fast path the common
//!   case: a small rotation of views (one more than the query plane's
//!   double buffer retains) plus a backlog of the patches each view has
//!   not yet seen. Each publication steps the rotation onto the view the
//!   double buffer released two epochs ago — uniquely owned again, so the
//!   backlog replays as plain in-place hash-table writes — and returns an
//!   O(1) clone for the snapshot. Publication therefore costs
//!   O(dirty · rotation), never O(k).
//!
//! **Why ranks?** Live `heavy_hitters` implementations stable-sort their
//! internal traversal order by descending estimate, so ties resolve by
//! traversal position. A delta consumer never sees the full traversal —
//! only changed entries — so each entry carries its traversal position as
//! an explicit `rank`; sorting by `(estimate desc, rank asc)` then
//! reproduces the live stable order exactly, which is what keeps
//! delta-published snapshots bit-for-bit identical to the live answers.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

use memento_sketches::fasthash::FastBuildHasher;

use crate::query::WindowQuery;

/// How many views a [`DeltaAssembler`] rotates through: one more than the
/// two epochs the query plane's double buffer can retain, so the view a
/// publication mutates has (absent slow readers) already been released.
const ROTATION: usize = 3;

/// The changes one shard's estimator accumulated between two
/// [`freeze_delta`](crate::WindowQuery::freeze_delta) calls.
///
/// `updated` and `removed` are disjoint: a key re-inserted after a removal
/// appears only in `updated`. When `rebuild` is set, `updated` holds the
/// *complete* tracked set (ranks included) and `removed` is empty — the
/// consumer replaces its state instead of patching it.
#[derive(Debug, Clone)]
pub struct WindowPatch<K> {
    /// Replace, don't patch: slot identity was invalidated wholesale since
    /// the last freeze (first freeze, frame flush, table resize).
    pub rebuild: bool,
    /// Tracked flows whose `(estimate, rank)` changed — or, under
    /// `rebuild`, every tracked flow. `rank` is the flow's position in the
    /// live instance's canonical enumeration (see the module docs).
    pub updated: Vec<(K, f64, u64)>,
    /// Flows tracked at the previous freeze but not anymore.
    pub removed: Vec<K>,
    /// Estimate reported for flows outside the tracked set, captured at
    /// freeze time.
    pub untracked: f64,
    /// Stream position at freeze time.
    pub processed: u64,
    /// Error bound of the frozen configuration.
    pub error_bound: f64,
}

impl<K> WindowPatch<K> {
    /// A full-rebuild patch from a complete `heavy_hitters(0.0)`
    /// enumeration (already in canonical descending order, so the
    /// enumeration index is a faithful rank).
    pub fn rebuild(
        entries: Vec<(K, f64)>,
        untracked: f64,
        processed: u64,
        error_bound: f64,
    ) -> Self {
        WindowPatch {
            rebuild: true,
            updated: entries
                .into_iter()
                .enumerate()
                .map(|(i, (k, est))| (k, est, i as u64))
                .collect(),
            removed: Vec::new(),
            untracked,
            processed,
            error_bound,
        }
    }

    /// A patch over the flows `keys` names, deduplicated: a key `rank`
    /// still finds is re-emitted with its `(estimate, rank)`, any other key
    /// goes to `removed`. `rebuild` says whether `keys` is the complete
    /// tracked set (replace) or only the flows that may have changed
    /// (patch). The scalars are zero; the caller stamps them.
    pub fn from_keys(
        rebuild: bool,
        keys: impl IntoIterator<Item = K>,
        rank: impl Fn(&K) -> Option<u64>,
        estimate: impl Fn(&K) -> f64,
    ) -> Self
    where
        K: Eq + Hash,
    {
        // Keyed by the workspace's fast multiply–rotate hash: SipHash here
        // would dominate the whole O(dirty) freeze.
        let keys: HashSet<K, FastBuildHasher> = keys.into_iter().collect();
        let mut updated = Vec::new();
        let mut removed = Vec::new();
        for key in keys {
            match rank(&key) {
                Some(rank) => {
                    let estimate = estimate(&key);
                    updated.push((key, estimate, rank));
                }
                None => removed.push(key),
            }
        }
        WindowPatch {
            rebuild,
            updated,
            removed,
            untracked: 0.0,
            processed: 0,
            error_bound: 0.0,
        }
    }

    /// Number of entry changes the patch carries (the "dirty" count a
    /// publication pays for).
    pub fn changes(&self) -> usize {
        self.updated.len() + self.removed.len()
    }
}

/// The entry table behind a [`DeltaWindow`]: keyed by the fast
/// multiply–rotate hash the rest of the workspace uses (SipHash would
/// dominate patch replay).
type EntryMap<K> = HashMap<K, (f64, u64), FastBuildHasher>;

/// A publishable view of one shard: `key → (estimate, rank)` plus the
/// frozen scalars, kept up to date by [`Self::apply`]-ing each epoch's
/// [`WindowPatch`].
///
/// * `clone` is O(1) (one `Arc` bump plus scalar copies), which is what
///   lets every publication stamp a fresh merged snapshot without copying
///   per-entry state;
/// * [`Self::apply`] mutates the table **in place** when this view is the
///   table's only owner (the steady state under a [`DeltaAssembler`]) and
///   degrades to a copy-on-write clone — never wrong, just slower — when a
///   published snapshot still shares it;
/// * answers [`WindowQuery`] bit-for-bit like the live estimator at the
///   freeze that produced the last patch (see the module docs for the rank
///   argument);
/// * the descending entry order behind [`heavy_hitters`](WindowQuery::heavy_hitters)
///   is computed lazily on first query and shared by every clone taken
///   before the next `apply` — an untouched shard re-sorts nothing.
#[derive(Debug, Clone)]
pub struct DeltaWindow<K> {
    name: &'static str,
    entries: Arc<EntryMap<K>>,
    untracked: f64,
    processed: u64,
    error_bound: f64,
    /// Lazily-built canonical order: `(estimate desc, rank asc)`. Replaced
    /// (not cleared) on `apply` so published clones keep their own cache.
    sorted: Arc<OnceLock<Vec<(K, f64)>>>,
}

impl<K: Eq + Hash + Clone> DeltaWindow<K> {
    /// An empty window: what a reader sees before anything was published.
    pub fn empty(name: &'static str) -> Self {
        DeltaWindow {
            name,
            entries: Arc::new(EntryMap::default()),
            untracked: 0.0,
            processed: 0,
            error_bound: 0.0,
            sorted: Arc::new(OnceLock::new()),
        }
    }

    /// Applies one epoch's patch. In-place hash-table writes — O(changes) —
    /// when this view solely owns its table; a shared table (a published
    /// clone still alive) is copied first, O(tracked), which the
    /// [`DeltaAssembler`] rotation makes the rare case.
    pub fn apply(&mut self, patch: &WindowPatch<K>) {
        let entries = Arc::make_mut(&mut self.entries);
        if patch.rebuild {
            entries.clear();
        }
        for (key, estimate, rank) in &patch.updated {
            entries.insert(key.clone(), (*estimate, *rank));
        }
        for key in &patch.removed {
            entries.remove(key);
        }
        self.untracked = patch.untracked;
        self.processed = patch.processed;
        self.error_bound = patch.error_bound;
        self.sorted = Arc::new(OnceLock::new());
    }

    /// Number of tracked flows.
    pub fn tracked(&self) -> usize {
        self.entries.len()
    }

    /// The canonical descending enumeration, built on first use.
    fn sorted_entries(&self) -> &[(K, f64)] {
        self.sorted.get_or_init(|| {
            let mut all: Vec<(&K, f64, u64)> = self
                .entries
                .iter()
                .map(|(k, &(est, rank))| (k, est, rank))
                .collect();
            all.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("estimates are never NaN")
                    .then(a.2.cmp(&b.2))
            });
            all.into_iter()
                .map(|(k, est, _)| (k.clone(), est))
                .collect()
        })
    }
}

impl<K: Eq + Hash + Clone> WindowQuery<K> for DeltaWindow<K> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn estimate(&self, key: &K) -> f64 {
        self.entries
            .get(key)
            .map(|&(est, _)| est)
            .unwrap_or(self.untracked)
    }

    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        self.sorted_entries()
            .iter()
            .filter(|(_, est)| *est >= threshold)
            .cloned()
            .collect()
    }

    fn processed(&self) -> u64 {
        self.processed
    }

    fn error_bound(&self) -> f64 {
        self.error_bound
    }

    fn untracked_estimate(&self) -> f64 {
        self.untracked
    }
}

/// Folds one shard's stream of [`WindowPatch`]es into publishable
/// [`DeltaWindow`] clones, keeping the per-publication cost at
/// O(dirty · `ROTATION`) hash-table writes.
///
/// The naive single-view design — apply the patch, clone, publish — makes
/// every `apply` hit the copy-on-write slow path: the clone published last
/// epoch still shares the table, so `Arc::make_mut` must copy all O(k)
/// entries. The assembler instead rotates through `ROTATION` views. The
/// view a publication lands on was published `ROTATION` epochs ago; the
/// query plane's double buffer holds only the last two snapshots, so that
/// clone has (slow readers aside) been dropped and the view owns its table
/// again: replaying the few patches it missed — kept in a bounded backlog —
/// is plain in-place writes. A reader that *does* still hold the old
/// snapshot costs one table copy, never correctness.
#[derive(Debug, Clone)]
pub struct DeltaAssembler<K> {
    views: Vec<DeltaWindow<K>>,
    /// `applied[i]`: sequence number of the last patch `views[i]` has seen.
    applied: Vec<u64>,
    /// The last `ROTATION` patches, tagged with their sequence number —
    /// exactly what the stalest view in the rotation is missing.
    backlog: VecDeque<(u64, WindowPatch<K>)>,
    seq: u64,
}

impl<K: Eq + Hash + Clone> DeltaAssembler<K> {
    /// An assembler whose views all start empty.
    pub fn new(name: &'static str) -> Self {
        DeltaAssembler {
            views: (0..ROTATION).map(|_| DeltaWindow::empty(name)).collect(),
            applied: vec![0; ROTATION],
            backlog: VecDeque::with_capacity(ROTATION),
            seq: 0,
        }
    }

    /// Folds `patch` in and returns the up-to-date view for publication
    /// (an O(1) clone retaining the snapshot's immutability: the assembler
    /// will not touch this view again for `ROTATION` publications).
    pub fn publish(&mut self, patch: WindowPatch<K>) -> DeltaWindow<K> {
        self.seq += 1;
        self.backlog.push_back((self.seq, patch));
        if self.backlog.len() > ROTATION {
            self.backlog.pop_front();
        }
        let idx = (self.seq as usize) % ROTATION;
        let applied = std::mem::replace(&mut self.applied[idx], self.seq);
        let view = &mut self.views[idx];
        for (seq, patch) in &self.backlog {
            if *seq > applied {
                view.apply(patch);
            }
        }
        view.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_window_applies_patches_and_answers_queries() {
        let mut w: DeltaWindow<u64> = DeltaWindow::empty("test");
        assert_eq!(w.processed(), 0);
        assert_eq!(w.estimate(&1), 0.0);
        w.apply(&WindowPatch::rebuild(
            vec![(1, 10.0), (2, 5.0), (3, 5.0)],
            1.5,
            100,
            4.0,
        ));
        assert_eq!(w.estimate(&1), 10.0);
        assert_eq!(w.estimate(&99), 1.5, "untracked estimate");
        assert_eq!(w.heavy_hitters(5.0), vec![(1, 10.0), (2, 5.0), (3, 5.0)]);
        assert_eq!(w.heavy_hitters(6.0), vec![(1, 10.0)]);
        // Patch: 3 overtakes on estimate; 2 leaves the tracked set.
        w.apply(&WindowPatch {
            rebuild: false,
            updated: vec![(3, 12.0, 2)],
            removed: vec![2],
            untracked: 2.0,
            processed: 150,
            error_bound: 4.0,
        });
        assert_eq!(w.heavy_hitters(0.0), vec![(3, 12.0), (1, 10.0)]);
        assert_eq!(w.estimate(&2), 2.0, "removed key falls to untracked");
        assert_eq!(w.processed(), 150);
        assert_eq!(w.tracked(), 2);
    }

    #[test]
    fn delta_window_rank_breaks_estimate_ties_like_a_stable_sort() {
        let mut w: DeltaWindow<u64> = DeltaWindow::empty("test");
        // Ranks deliberately delivered out of order: the sort must order
        // equal estimates by ascending rank, not arrival order.
        w.apply(&WindowPatch {
            rebuild: false,
            updated: vec![(30, 7.0, 30), (10, 7.0, 10), (20, 7.0, 20)],
            removed: vec![],
            untracked: 0.0,
            processed: 3,
            error_bound: 0.0,
        });
        assert_eq!(w.heavy_hitters(0.0), vec![(10, 7.0), (20, 7.0), (30, 7.0)]);
    }

    #[test]
    fn delta_window_clone_is_independent_after_apply() {
        let mut w: DeltaWindow<u64> = DeltaWindow::empty("test");
        w.apply(&WindowPatch::rebuild(vec![(1, 3.0)], 0.0, 10, 0.0));
        let published = w.clone();
        let _ = published.heavy_hitters(0.0); // warm the shared sort cache
        w.apply(&WindowPatch {
            rebuild: false,
            updated: vec![(2, 9.0, 1)],
            removed: vec![],
            untracked: 0.0,
            processed: 20,
            error_bound: 0.0,
        });
        assert_eq!(published.heavy_hitters(0.0), vec![(1, 3.0)]);
        assert_eq!(w.heavy_hitters(0.0), vec![(2, 9.0), (1, 3.0)]);
        assert_eq!(published.processed(), 10);
        assert_eq!(w.processed(), 20);
    }

    /// One reference view applying every patch sequentially; an assembler
    /// rotating through its views. Every published clone must match the
    /// reference exactly — including across a mid-sequence rebuild and with
    /// published clones (the double buffer's retention) still alive.
    #[test]
    fn assembler_rotation_matches_sequential_application() {
        let mut reference: DeltaWindow<u64> = DeltaWindow::empty("test");
        let mut assembler: DeltaAssembler<u64> = DeltaAssembler::new("test");
        let mut retained: VecDeque<DeltaWindow<u64>> = VecDeque::new();
        for step in 0..20u64 {
            let patch = if step == 9 {
                // Mid-sequence rebuild: every view must converge on the
                // replacement state even if it never saw patches 0..9.
                WindowPatch::rebuild(vec![(100, 50.0), (101, 25.0)], 0.5, 900, 1.0)
            } else {
                WindowPatch {
                    rebuild: false,
                    updated: vec![(step % 5, step as f64 + 1.0, step % 5)],
                    removed: if step % 4 == 3 {
                        vec![(step + 1) % 5]
                    } else {
                        vec![]
                    },
                    untracked: 0.1 * step as f64,
                    processed: 100 * (step + 1),
                    error_bound: 2.0,
                }
            };
            reference.apply(&patch);
            let published = assembler.publish(patch);
            // Model the query plane's double buffer: the last two published
            // clones stay alive, pinning their tables.
            retained.push_back(published.clone());
            if retained.len() > 2 {
                retained.pop_front();
            }
            assert_eq!(
                published.heavy_hitters(0.0),
                reference.heavy_hitters(0.0),
                "step {step}"
            );
            assert_eq!(published.processed(), reference.processed());
            assert_eq!(
                published.untracked_estimate(),
                reference.untracked_estimate()
            );
            assert_eq!(published.tracked(), reference.tracked());
        }
    }
}
