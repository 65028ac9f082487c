//! The estimator family of the sharded engine: [`ShardedEstimator`].

use std::hash::Hash;
use std::iter;

use memento_core::traits::{SlidingWindowEstimator, WindowQuery};
use memento_core::{DeltaAssembler, DeltaWindow, Memento, Wcss, WindowPatch};
use memento_sketches::{fasthash, ExactWindow};

use crate::engine::{Shard, ShardedEngine};
use crate::snapshot::{EngineSnapshot, SnapshotReader};

/// The boxed per-shard estimator each worker thread owns.
pub type BoxedEstimator<K> = Box<dyn SlidingWindowEstimator<K> + Send>;

/// A [`SlidingWindowEstimator`] scaled across worker threads (see
/// [`ShardedEngine`]). Per-flow queries are answered by the shard owning
/// the flow, heavy-hitter queries by the union of the per-shard answers.
///
/// Each worker freezes *incrementally*: a [`WindowPatch`] covering only
/// the slots dirtied since its previous freeze, folded onto persistent
/// [`DeltaAssembler`] views, so a publication costs O(dirty) rather than
/// O(k) per shard.
pub type ShardedEstimator<K> = ShardedEngine<BoxedEstimator<K>>;

impl<K: Eq + Hash + Clone + Send + Sync + 'static> Shard for BoxedEstimator<K> {
    type Item = K;
    type Part = WindowPatch<K>;
    type View = DeltaWindow<K>;

    fn replay(&mut self, gaps: &[u64], keys: &[K], tail: u64) {
        if !keys.is_empty() {
            self.update_batch_positioned(gaps, keys);
        }
        if tail > 0 {
            self.skip(tail);
        }
    }

    fn freeze_part(&mut self) -> WindowPatch<K> {
        self.freeze_delta()
    }

    fn space_bytes(&self) -> usize {
        SlidingWindowEstimator::space_bytes(&**self)
    }
}

impl<K: Eq + Hash + Clone + Send + Sync + 'static> ShardedEstimator<K> {
    /// Creates a sharded engine with `shards` workers, each owning the
    /// estimator built by `factory(shard_index)`. Every per-shard estimator
    /// must be configured with the **full global window `W`** — the router
    /// keeps it at the global stream position via
    /// [`skip`](SlidingWindowEstimator::skip).
    ///
    /// `name` is the stable identifier reported through
    /// [`WindowQuery::name`] (bench CSV/JSON output). The engine starts
    /// under [`PublishPolicy::default`](crate::PublishPolicy::default);
    /// override with [`Self::with_policy`].
    ///
    /// # Panics
    /// Panics when `shards` is zero or a factory-built estimator reports
    /// itself as not [`mergeable`](SlidingWindowEstimator::mergeable) —
    /// global-position sharded windows require estimators whose `skip` can
    /// advance the window over packets recorded elsewhere; interval
    /// estimators (Space Saving) do not qualify.
    pub fn new<F>(name: &'static str, shards: usize, factory: F) -> Self
    where
        F: FnMut(usize) -> BoxedEstimator<K>,
    {
        let estimators: Vec<BoxedEstimator<K>> = (0..shards)
            .map(factory)
            .inspect(|estimator| {
                assert!(
                    estimator.mergeable(),
                    "{} cannot answer global-position window queries across key partitions \
                     (its skip cannot anchor a shard's window at the global stream position); \
                     it cannot be sharded",
                    estimator.name()
                );
            })
            .collect();
        let error_bound = estimators
            .iter()
            .map(|estimator| estimator.error_bound())
            .fold(0.0, f64::max);
        // The persistent merge state of the delta publication plane: one
        // rotating view assembler per shard. Each epoch folds the shards'
        // incremental patches onto assembler-owned views (in-place
        // hash-table writes — the rotation keeps the mutated view out of
        // the double buffer's retention window) and publishes O(1) clones,
        // so assembling costs O(slots dirtied since the previous epoch)
        // instead of O(shards × summary size).
        let mut merged: Vec<DeltaAssembler<K>> =
            (0..shards).map(|_| DeltaAssembler::new(name)).collect();
        Self::spawn(name, estimators, error_bound, move |patches| {
            merged
                .iter_mut()
                .zip(patches)
                .map(|(assembler, patch)| assembler.publish(patch))
                .collect()
        })
    }

    /// A sharded [`Memento`]: every shard keeps a **full `W`-packet window
    /// at the global stream position** with the full `k` counters (same
    /// `4W/k` error bound as the single instance — the `N×` counter memory
    /// is the price of full-window coverage per shard), with per-shard
    /// decorrelated RNG seeds.
    pub fn memento(shards: usize, counters: usize, window: usize, tau: f64, seed: u64) -> Self {
        Self::new("sharded-memento", shards, move |i| {
            let shard_seed = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Box::new(Memento::new(counters, window, tau, shard_seed))
        })
    }

    /// A sharded [`Wcss`] (Memento with τ = 1): the fully deterministic
    /// configuration, used by the equivalence tests. Per-shard windows and
    /// counters match the single instance exactly, so on streams where no
    /// Space-Saving eviction occurs the sharded estimates are bit-for-bit
    /// the single-threaded ones.
    pub fn wcss(shards: usize, counters: usize, window: usize) -> Self {
        Self::new("sharded-wcss", shards, move |_| {
            Box::new(Wcss::new(counters, window))
        })
    }

    /// A sharded exact window oracle (full `W`-position window per shard):
    /// zero estimation error, used as the sharding-layer ground truth.
    pub fn exact(shards: usize, window: usize) -> Self {
        Self::new("sharded-exact", shards, move |_| {
            Box::new(ExactWindow::new(window))
        })
    }
}

impl<K: Eq + Hash + Clone + Send + Sync + 'static> WindowQuery<K> for ShardedEstimator<K> {
    fn name(&self) -> &'static str {
        self.name
    }

    /// Answered from the latest published [`EngineSnapshot`] (the owning
    /// shard's frozen summary — same key routing as ingest). Under the
    /// default [`PublishPolicy::on_query`](crate::PublishPolicy::on_query)
    /// a publication is forced first, so the answer reflects every
    /// preceding update exactly like the old flush-then-FIFO path; with
    /// `on_query = false` the answer is stale by at most one publication
    /// interval.
    fn estimate(&self, key: &K) -> f64 {
        self.read_snapshot().estimate(key)
    }

    /// Answered from the latest published [`EngineSnapshot`]: per-shard
    /// sets concatenated in shard order, re-sorted by descending estimate.
    /// Same staleness semantics as [`Self::estimate`].
    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        self.read_snapshot().heavy_hitters(threshold)
    }

    /// Global stream position of the snapshot being read. Under the default
    /// on-query publication this doubles as the drain barrier the
    /// throughput harnesses rely on: the publication's freeze jobs run
    /// after every shipped batch on every worker FIFO.
    fn processed(&self) -> u64 {
        self.read_snapshot().processed()
    }

    fn error_bound(&self) -> f64 {
        // A flow lives entirely in one shard whose window spans the full
        // global stream, so the merged per-flow error is the worst
        // per-shard bound, not their sum.
        self.error_bound
    }
}

impl<K: Eq + Hash + Clone + Send + Sync + 'static> SlidingWindowEstimator<K>
    for ShardedEstimator<K>
{
    fn update(&mut self, key: K) {
        self.ingest(key);
    }

    /// Partitions the batch by key hash and ships each shard's share in
    /// gap-stamped messages (see [`ShardedEngine`]).
    fn update_batch(&mut self, keys: &[K]) {
        self.ingest_batch(keys, iter::repeat(0));
    }

    /// Processes a gap-stamped batch at the engine level: before each key,
    /// the *global* stream position advances over its gap. This is the
    /// time plane's ingest path and is much cheaper than the trait default:
    /// each gap folds into the *next* routed key's stamp on every shard —
    /// no shipment per gap, no per-gap worker wakeup.
    fn update_batch_positioned(&mut self, gaps: &[u64], keys: &[K]) {
        assert_eq!(gaps.len(), keys.len(), "one gap stamp per key");
        self.ingest_batch(keys, gaps.iter().copied());
    }

    /// Advances the global stream position over `n` packets observed
    /// outside this engine (e.g. by another engine of a larger deployment).
    fn skip(&mut self, n: u64) {
        self.skip_positions(n);
    }

    fn space_bytes(&self) -> usize {
        self.shard_space_bytes()
    }
}

impl<K: Eq + Hash + Clone> WindowQuery<K> for EngineSnapshot<K> {
    fn name(&self) -> &'static str {
        self.name
    }

    /// A flow lives wholly in one shard: route the key exactly like the
    /// live engine and answer from that shard's summary.
    fn estimate(&self, key: &K) -> f64 {
        self.shards[fasthash::route(key, self.shards.len())].estimate(key)
    }

    /// Union of the per-shard sets (shards partition the key space, so it
    /// is disjoint), re-sorted by descending estimate exactly like the live
    /// merge.
    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        let mut merged: Vec<(K, f64)> = Vec::new();
        for shard in &self.shards {
            merged.extend(shard.heavy_hitters(threshold));
        }
        merged.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        merged
    }

    /// Global stream position at the publication point: every shard is
    /// position-synced before freezing, so this is the per-shard maximum.
    fn processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed()).max().unwrap_or(0)
    }

    /// The worst per-shard bound, like the live engine's.
    fn error_bound(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| s.error_bound())
            .fold(0.0, f64::max)
    }
}

impl<K: Eq + Hash + Clone> WindowQuery<K> for SnapshotReader<K> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn estimate(&self, key: &K) -> f64 {
        self.latest().map(|s| s.estimate(key)).unwrap_or(0.0)
    }

    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        self.latest()
            .map(|s| s.heavy_hitters(threshold))
            .unwrap_or_default()
    }

    fn processed(&self) -> u64 {
        self.latest().map(|s| s.processed()).unwrap_or(0)
    }

    fn error_bound(&self) -> f64 {
        self.error_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PublishPolicy;
    use memento_core::{GrainMap, TimedWindow};

    #[test]
    fn routes_all_packets_and_counts_them() {
        let mut sharded: ShardedEstimator<u64> = ShardedEstimator::exact(4, 4_000);
        for i in 0..2_000u64 {
            sharded.update(i % 37);
        }
        assert_eq!(sharded.processed(), 2_000);
        assert_eq!(sharded.shards(), 4);
        assert!(sharded.space_bytes() > 0);
        assert_eq!(sharded.error_bound(), 0.0);
    }

    #[test]
    fn exact_sharding_matches_exact_counts_beyond_the_window() {
        // Global-position windows: the sharded exact oracle agrees with a
        // single exact window even when the stream is much longer than W
        // and expiry is in full swing — the per-key gap stamps replay every
        // key at its exact global position.
        let window = 800;
        let shards = 4;
        let mut sharded: ShardedEstimator<u64> = ShardedEstimator::exact(shards, window);
        let mut single: ExactWindow<u64> = ExactWindow::new(window);
        for i in 0..5_000u64 {
            let key = (i * i) % 101;
            sharded.update(key);
            single.add(key);
        }
        for key in 0..101u64 {
            assert_eq!(sharded.estimate(&key), single.query(&key) as f64);
        }
        assert_eq!(sharded.processed(), single.processed());
    }

    #[test]
    fn heavy_hitters_merge_across_shards() {
        let mut sharded: ShardedEstimator<u64> = ShardedEstimator::exact(3, 30_000);
        // Three heavy flows chosen to (very likely) live on distinct shards.
        for _ in 0..1_000 {
            for key in [1u64, 2, 3, 500, 501] {
                sharded.update(key);
            }
        }
        let hh = sharded.heavy_hitters(900.0);
        assert_eq!(hh.len(), 5);
        for pair in hh.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "merged output not sorted: {hh:?}");
        }
    }

    #[test]
    fn single_shard_memento_matches_unsharded_memento() {
        // With one shard the engine routes everything to one inner Memento
        // configured identically (all gaps are zero), so estimates agree
        // exactly.
        let mut sharded: ShardedEstimator<u64> = ShardedEstimator::memento(1, 64, 4_000, 1.0, 7);
        let mut single: Memento<u64> = Memento::new(64, 4_000, 1.0, 7);
        for i in 0..10_000u64 {
            let key = (i * i) % 113;
            sharded.update(key);
            single.update(key);
        }
        for key in 0..113u64 {
            assert_eq!(sharded.estimate(&key), Memento::estimate(&single, &key));
        }
        assert_eq!(sharded.processed(), single.processed());
    }

    #[test]
    fn update_batch_equals_per_packet_updates() {
        let mut batched: ShardedEstimator<u64> = ShardedEstimator::wcss(4, 64, 8_000);
        let mut one_by_one: ShardedEstimator<u64> = ShardedEstimator::wcss(4, 64, 8_000);
        let keys: Vec<u64> = (0..20_000u64).map(|i| (i * 7) % 301).collect();
        for part in keys.chunks(997) {
            batched.update_batch(part);
        }
        for &key in &keys {
            one_by_one.update(key);
        }
        for key in 0..301u64 {
            assert_eq!(batched.estimate(&key), one_by_one.estimate(&key));
        }
        assert_eq!(batched.processed(), one_by_one.processed());
    }

    #[test]
    fn engine_level_skip_advances_every_shard_window() {
        // Fill a window, then skip a full window's worth of elsewhere
        // packets: everything must expire on every shard.
        let window = 500;
        let mut sharded: ShardedEstimator<u64> = ShardedEstimator::exact(3, window);
        for i in 0..window as u64 {
            sharded.update(i % 11);
        }
        assert!(sharded.estimate(&1) > 0.0);
        sharded.skip(window as u64);
        for key in 0..11u64 {
            assert_eq!(sharded.estimate(&key), 0.0, "key {key} survived the skip");
        }
        assert_eq!(sharded.processed(), 2 * window as u64);
    }

    #[test]
    fn reader_answers_without_engine_queries() {
        // Periodic publication alone (no on-query publish) must hand the
        // reader a usable snapshot with bounded staleness.
        let mut sharded: ShardedEstimator<u64> =
            ShardedEstimator::exact(2, 50_000).with_policy(PublishPolicy {
                every_batches: 1,
                on_query: false,
            });
        let reader = sharded.reader();
        assert_eq!(reader.processed(), 0, "no snapshot before any publish");
        let keys: Vec<u64> = (0..40_000u64).map(|i| i % 10).collect();
        sharded.update_batch(&keys);
        let epoch = sharded.publish_now();
        assert!(epoch >= 1);
        let snap = reader.latest().expect("published snapshot");
        assert_eq!(snap.processed(), 40_000);
        assert_eq!(reader.estimate(&3), 4_000.0);
        // Clones share the hub and observe the same epochs.
        let clone = reader.clone();
        assert_eq!(
            clone.latest().expect("shared snapshot").epoch(),
            snap.epoch()
        );
    }

    #[test]
    fn snapshot_queries_match_fifo_queries() {
        // The engine's snapshot-backed answers equal the historical FIFO
        // piggyback path at the same point in the stream.
        let mut sharded: ShardedEstimator<u64> = ShardedEstimator::wcss(4, 128, 9_000);
        let keys: Vec<u64> = (0..12_000u64).map(|i| (i * 31) % 257).collect();
        sharded.update_batch(&keys);
        for key in 0..257u64 {
            let via_snapshot = sharded.estimate(&key);
            let shard = fasthash::route(&key, sharded.shards());
            let via_fifo = sharded.query_via_fifo(shard, move |est| est.estimate(&key));
            assert_eq!(via_snapshot.to_bits(), via_fifo.to_bits());
        }
    }

    #[test]
    fn engine_advance_to_expires_by_time() {
        // A full window of idle ticks must expire everything on every
        // shard, with the rotations shipped by the wrapper's `advance_to`
        // (the engine's `skip`) and no ingest afterwards to piggyback on.
        let window = 400u64;
        let map = GrainMap::new(100 * window, window, 8);
        let mut timed = TimedWindow::new(ShardedEstimator::<u64>::exact(2, window as usize), map);
        let packets: Vec<(u64, u64)> = (0..window).map(|i| (5, i % 13)).collect();
        timed.record_timed(&packets);
        assert!(timed.estimate(&1) > 0.0);
        timed.advance_to(5 + 2 * map.window_ticks());
        for key in 0..13u64 {
            assert_eq!(timed.estimate(&key), 0.0, "key {key} survived the gap");
        }
        assert_eq!(timed.clock().last_tick(), 5 + 2 * map.window_ticks());
        assert_eq!(timed.inner().processed(), timed.position());
    }

    #[test]
    fn timed_engine_matches_single_threaded_timed_window() {
        // A timed engine must agree with the single-threaded timed exact
        // window — same grain geometry, same advance points, same clamp
        // policy — at 1, 2 and 4 shards.
        let window = 600usize;
        let map = GrainMap::new(3_000, window as u64, 12);
        for shards in [1usize, 2, 4] {
            let mut engine = TimedWindow::new(ShardedEstimator::<u64>::exact(shards, window), map);
            let mut single = TimedWindow::new(ExactWindow::<u64>::new(window), map);
            let mut t = 0u64;
            for step in 0..60u64 {
                t += (step * 37) % 450; // in-grain repeats and multi-grain jumps
                let sample_t = if step % 9 == 8 {
                    t.saturating_sub(700)
                } else {
                    t
                };
                let packets: Vec<(u64, u64)> = (0..(step % 7 + 1))
                    .map(|i| (sample_t, (step * 11 + i) % 29))
                    .collect();
                engine.record_timed(&packets);
                single.record_timed(&packets);
            }
            for key in 0..29u64 {
                assert_eq!(
                    engine.estimate(&key).to_bits(),
                    single.estimate(&key).to_bits(),
                    "key {key} diverged at {shards} shards"
                );
            }
            assert_eq!(engine.clock().last_tick(), single.clock().last_tick());
            assert_eq!(engine.clock().clamped(), single.clock().clamped());
            assert!(engine.clock().clamped() > 0, "test must exercise the clamp");
        }
    }

    #[test]
    fn wrapping_an_engine_publishes_epoch_one() {
        // `TimedWindow::new` seeds its position mirror from `processed()`,
        // which on an engine is a full freeze round and the first
        // publication, before any packet arrives.
        let engine = ShardedEstimator::<u64>::exact(2, 100);
        let reader = engine.reader();
        assert_eq!(engine.freeze_rounds(), 0);
        assert!(reader.latest().is_none());
        let timed = TimedWindow::with_grains(engine, 1_000, 100, 10);
        assert_eq!(timed.inner().freeze_rounds(), 1);
        assert_eq!(reader.latest().map(|s| s.epoch()), Some(1));
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_panic() {
        let _ = ShardedEstimator::<u64>::exact(0, 100);
    }

    #[test]
    #[should_panic(expected = "global-position window")]
    fn interval_estimators_are_refused() {
        use memento_sketches::SpaceSaving;
        let _ = ShardedEstimator::<u64>::new("sharded-space-saving", 2, |_| {
            Box::new(SpaceSaving::new(16))
        });
    }
}
