//! The hash-partitioned multi-core engine shared by every algorithm family.

use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use memento_sketches::fasthash;

use crate::router::Router;
use crate::snapshot::{EngineReader, PublishPolicy, Snapshot, SnapshotHub};
use crate::worker::ShardWorker;
use crate::{DEFAULT_FLUSH_THRESHOLD, DEFAULT_QUEUE_DEPTH};

/// The state one worker thread owns, and everything the engine needs to
/// know about it: how to replay a shipment, what to freeze for a
/// publication and what one shard contributes to a published snapshot.
///
/// Implemented for [`BoxedEstimator`](crate::BoxedEstimator) and
/// [`BoxedHhh`](crate::BoxedHhh); it cannot be named or implemented
/// outside this crate.
pub trait Shard: Send + 'static {
    /// The ingest unit: a flow key or a hierarchy item.
    type Item: Hash + Clone + Send + 'static;
    /// What a worker freezes and delivers for one publication epoch.
    type Part: Send + 'static;
    /// One shard's share of a published [`Snapshot`].
    type View: Clone + Send + Sync + 'static;

    /// Replays one shipment: `skip(gaps[i])` before each `items[i]`
    /// through the fused `update_batch_positioned` path, then `skip(tail)`
    /// for the packets routed elsewhere after the shard's last item.
    fn replay(&mut self, gaps: &[u64], items: &[Self::Item], tail: u64);

    /// Freezes the shard for one publication epoch.
    fn freeze_part(&mut self) -> Self::Part;

    /// Approximate heap footprint of the shard state in bytes.
    fn space_bytes(&self) -> usize;
}

/// A sliding-window algorithm scaled across worker threads, with
/// **global-position windows**.
///
/// Keys are hash-partitioned over `N` shards; each shard is a worker thread
/// owning an independent instance over a **full window of `W` packets at
/// the global stream position**. The router stamps every key with its
/// *gap* — the number of packets routed to other shards since that shard's
/// previous key — and the worker replays `skip(gap)` before each key
/// (through the fused `update_batch_positioned` path), the D-Memento-style
/// bulk window update of the Memento paper (§6). Every shard's window
/// therefore covers exactly the last `W` packets of the *combined* stream
/// (of which it recorded only its own keys). That is the
/// mergeable-sliding-window contract the heavy-hitter literature
/// (Braverman et al.) assumes for partitioned deployments: per-flow
/// queries are answered by the owning shard alone, and prefix estimates
/// are the sum of the per-shard ones. (The previous count-based design gave
/// each shard `W/N` of its *own* packets, which under skew covers far less
/// than `W` global packets for the shard owning a dominant flow — the
/// 123 → 3308 on-arrival RMSE blowup recorded in
/// `crates/bench/EXPERIMENTS.md`.)
///
/// The engine counts positions only; a timed deployment wraps it in a
/// [`TimedWindow`](memento_core::TimedWindow), which drives it through
/// `skip` and `update_batch`.
///
/// Updates travel to the workers as gap-stamped batches of
/// [`DEFAULT_FLUSH_THRESHOLD`] keys over bounded channels, reusing each
/// algorithm's `update_batch` fast path (for Memento, the geometric skip
/// sampling of §5).
///
/// **Queries are served from published snapshots**: per the
/// [`PublishPolicy`], the engine periodically freezes every shard into an
/// immutable [`Snapshot`] that the engine's own query methods — and any
/// number of wait-free [`EngineReader`] handles ([`Self::reader`]) —
/// answer from at memory speed. With the default `on_query = true` policy
/// the engine's own queries force a publication first, reproducing the
/// historical flush-then-read semantics bit-for-bit; readers observe
/// bounded staleness (≤ one publication interval) instead. The old FIFO
/// piggyback query path survives only as the `#[doc(hidden)]`
/// [`Self::query_via_fifo`] test oracle.
///
/// The two families are [`ShardedEstimator`](crate::ShardedEstimator),
/// which implements
/// [`SlidingWindowEstimator`](memento_core::traits::SlidingWindowEstimator),
/// and [`ShardedHhh`](crate::ShardedHhh), which implements
/// [`HhhAlgorithm`](memento_core::traits::HhhAlgorithm), so every generic
/// driver in the workspace — the figure harnesses, the detection
/// disciplines, the flood-mitigation scenario — can run sharded without
/// modification.
pub struct ShardedEngine<S: Shard> {
    pub(crate) name: &'static str,
    workers: Vec<ShardWorker<S>>,
    /// Gap-stamped buffers and position bookkeeping. Behind a mutex so the
    /// `&self` query methods can ship them; the engine is not itself meant
    /// to be driven from several threads (updates take `&mut self`), so the
    /// lock is uncontended.
    state: Mutex<Router<S::Item>>,
    /// Snapshot publication cadence and on-query behaviour.
    policy: PublishPolicy,
    /// Batches shipped since the last publication (mutated only under the
    /// router lock; atomic so `&self` query methods can read it).
    shipped: AtomicUsize,
    /// Freeze rounds actually enqueued to the workers (diagnostics: lets
    /// tests assert the unchanged-engine short circuit skips them).
    freezes: AtomicUsize,
    /// Snapshot assembly and the epoch double buffer.
    hub: Arc<SnapshotHub<S::Part, Snapshot<S::View>>>,
    /// Worst per-shard error bound, cached at construction (constant per
    /// configuration; zero for families without a per-flow bound).
    pub(crate) error_bound: f64,
}

impl<S: Shard> ShardedEngine<S> {
    /// Spawns one worker per shard state. `assemble` folds one complete
    /// epoch of frozen parts, in shard order, into the snapshot's per-shard
    /// views; it may keep merge state across epochs, which it sees exactly
    /// once each, in order.
    ///
    /// # Panics
    /// Panics when `shards` is empty.
    pub(crate) fn spawn<A>(
        name: &'static str,
        shards: Vec<S>,
        error_bound: f64,
        mut assemble: A,
    ) -> Self
    where
        A: FnMut(Vec<S::Part>) -> Vec<S::View> + Send + 'static,
    {
        assert!(!shards.is_empty(), "shard count must be positive");
        let hub = Arc::new(SnapshotHub::new(
            shards.len(),
            Box::new(move |epoch, parts| Snapshot {
                epoch,
                name,
                shards: assemble(parts),
            }),
        ));
        ShardedEngine {
            name,
            state: Mutex::new(Router::new(shards.len())),
            workers: shards
                .into_iter()
                .enumerate()
                .map(|(i, shard)| {
                    ShardWorker::spawn(format!("{name}-shard-{i}"), DEFAULT_QUEUE_DEPTH, shard)
                })
                .collect(),
            policy: PublishPolicy::default(),
            shipped: AtomicUsize::new(0),
            freezes: AtomicUsize::new(0),
            hub,
            error_bound,
        }
    }

    /// Number of shards (worker threads).
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Sets the snapshot [`PublishPolicy`] (builder style, for use at
    /// construction: `ShardedEstimator::memento(..).with_policy(..)`).
    pub fn with_policy(mut self, policy: PublishPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The engine's current snapshot [`PublishPolicy`].
    pub fn policy(&self) -> PublishPolicy {
        self.policy
    }

    /// A wait-free handle answering queries from the latest published
    /// snapshot: cheap to clone, `Send + Sync`, stale by at most one
    /// publication interval, and never touching the worker FIFOs.
    pub fn reader(&self) -> EngineReader<S::View> {
        EngineReader {
            cell: self.hub.cell(),
            name: self.name,
            error_bound: self.error_bound,
        }
    }

    /// The shard owning `item`: the workspace-wide
    /// [`fasthash::route`] helper — one fast hash per routed item,
    /// deterministic across runs and processes.
    fn shard_of(&self, item: &S::Item) -> usize {
        fasthash::route(item, self.workers.len())
    }

    /// Ships one shard's gap-stamped items plus the trailing skip that
    /// advances the shard's window to the current global position. Ships a
    /// tail-only skip when the shard has no buffered items but has fallen
    /// behind the global position.
    fn ship_shard(&self, state: &mut Router<S::Item>, shard: usize) {
        let Some((gaps, items, tail)) = state.take_shipment(shard) else {
            return;
        };
        self.workers[shard].send(Box::new(move |s: &mut S| s.replay(&gaps, &items, tail)));
        self.shipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Ships every shard's pending buffer and advances every shard to the
    /// current global stream position, without publishing a snapshot.
    fn ship_all(&self, state: &mut Router<S::Item>) {
        for shard in 0..self.workers.len() {
            self.ship_shard(state, shard);
        }
    }

    /// Buffers one routed item. A full buffer ships, and then — the only
    /// place the periodic cadence is checked — publishes if it is due.
    fn push(&self, state: &mut Router<S::Item>, shard: usize, item: S::Item) {
        if state.push(shard, item) < DEFAULT_FLUSH_THRESHOLD {
            return;
        }
        self.ship_shard(state, shard);
        if self.policy.every_batches > 0
            && self.shipped.load(Ordering::Relaxed) >= self.policy.every_batches
        {
            self.publish_epoch(state);
        }
    }

    /// Ships all buffers (position sync), allocates the next epoch and
    /// enqueues one freeze job per worker FIFO. Epochs are allocated under
    /// the router lock, so epoch order equals enqueue order on every FIFO —
    /// which is what makes them complete in order at the hub (and what lets
    /// the hub's stateful assembler apply patches in order).
    ///
    /// **Unchanged-engine short circuit:** every state change since the
    /// previous publication — buffered keys, position advances — turns into
    /// a shipment during the ship-all above, so `shipped == 0` afterwards
    /// means the shards are bit-identical to what the last freeze round
    /// saw. When additionally every allocated epoch has been published (no
    /// freeze jobs in flight), a freeze round would reproduce the latest
    /// snapshot — so that snapshot is re-published under the new epoch
    /// instead, without touching a worker. The epoch still advances
    /// (readers still observe the publication); the workers just never hear
    /// about it.
    fn publish_epoch(&self, state: &mut Router<S::Item>) -> u64 {
        self.ship_all(state);
        let unchanged = self.shipped.swap(0, Ordering::Relaxed) == 0;
        // Epoch allocation and the quiescence check both happen under the
        // router lock, so no worker delivery can race the restamp.
        let restamp = unchanged && self.hub.quiescent();
        let epoch = self.hub.begin_epoch();
        // A restamp moves only the epoch. It publishes nothing before the
        // first publication (of an empty engine), which then needs a real
        // freeze round even though nothing changed.
        let restamped = restamp
            && self.hub.publish_restamped(epoch, |snap| Snapshot {
                epoch,
                ..snap.clone()
            });
        if !restamped {
            self.freezes.fetch_add(1, Ordering::Relaxed);
            for (shard, worker) in self.workers.iter().enumerate() {
                let hub = Arc::clone(&self.hub);
                worker.send(Box::new(move |s: &mut S| {
                    hub.deliver(epoch, shard, s.freeze_part());
                }));
            }
        }
        epoch
    }

    /// Number of freeze rounds actually enqueued to the workers — excludes
    /// re-stamped publications of an unchanged engine. Diagnostics for the
    /// short-circuit tests.
    #[doc(hidden)]
    pub fn freeze_rounds(&self) -> usize {
        self.freezes.load(Ordering::Relaxed)
    }

    /// Publishes a fresh snapshot *now* — ships all pending buffers,
    /// freezes every shard at the current global position, waits for the
    /// merged snapshot to appear in the double buffer — and returns its
    /// epoch. This is the explicit synchronization point: after
    /// `publish_now` returns, every reader observes a snapshot at least
    /// this fresh.
    pub fn publish_now(&self) -> u64 {
        let epoch = {
            let mut state = self.state.lock().expect("router state poisoned");
            self.publish_epoch(&mut state)
        };
        self.hub.wait_published(epoch);
        epoch
    }

    /// The historical FIFO piggyback query path: ships all pending buffers,
    /// then runs `f` on shard `shard`'s worker thread after everything
    /// enqueued before it. Kept (hidden) as the oracle differential tests
    /// compare snapshot answers against; everything else should go through
    /// the query traits or [`Self::reader`].
    #[doc(hidden)]
    pub fn query_via_fifo<R, F>(&self, shard: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut S) -> R + Send + 'static,
    {
        self.ship_all(&mut self.state.lock().expect("router state poisoned"));
        self.workers[shard].call(f)
    }

    /// The snapshot every query method answers from: the latest published
    /// one, after forcing a publication when the policy says queries must
    /// observe everything ingested so far (or when nothing was published
    /// yet).
    pub(crate) fn read_snapshot(&self) -> Arc<Snapshot<S::View>> {
        if self.policy.on_query || self.hub.latest().is_none() {
            self.publish_now();
        }
        self.hub.latest().expect("publish_now published an epoch")
    }

    /// Routes one item (the family's `update`). Holding the state lock
    /// across a (possibly blocking) ship cannot deadlock: `&mut self` rules
    /// out concurrent queries.
    pub(crate) fn ingest(&mut self, item: S::Item) {
        let shard = self.shard_of(&item);
        let mut state = self.state.lock().expect("router state poisoned");
        self.push(&mut state, shard, item);
    }

    /// Routes a batch (the family's `update_batch` and
    /// `update_batch_positioned`): before each item the *global* position
    /// advances over the matching entry of `gaps`, and each shard's share
    /// ships in [`DEFAULT_FLUSH_THRESHOLD`]-sized gap-stamped messages,
    /// preserving per-shard arrival order (the order across shards is
    /// immaterial: shards are disjoint key sets and the gap stamps carry the
    /// exact cross-shard positions). Items beyond the last full message stay
    /// buffered until the next update or query.
    ///
    /// Because `push` stamps each entry's gap eagerly, advancing the router
    /// mid-batch folds the gap into the *next* entry's stamp on every shard
    /// — no shipment per gap, no per-gap worker wakeup; shards that receive
    /// no item after a gap are advanced by the trailing skip of their next
    /// shipment. Observable behaviour is exactly `skip(gaps[i]);
    /// update(items[i])` in order.
    ///
    /// Routes are computed tile-wise: a straight-line pass hashes a fixed
    /// tile of items into a stack array before the branchy push/ship loop
    /// consumes them, so the hashing pipelines ahead of the buffer
    /// bookkeeping instead of serializing with it. Push order — and with
    /// it every gap stamp — is exactly that of the per-item loop.
    pub(crate) fn ingest_batch(&mut self, items: &[S::Item], mut gaps: impl Iterator<Item = u64>) {
        const TILE: usize = 64;
        let mut state = self.state.lock().expect("router state poisoned");
        let mut routes = [0usize; TILE];
        for tile in items.chunks(TILE) {
            for (route, item) in routes.iter_mut().zip(tile) {
                *route = self.shard_of(item);
            }
            for ((item, &shard), gap) in tile.iter().zip(&routes).zip(&mut gaps) {
                if gap > 0 {
                    state.advance(gap);
                }
                self.push(&mut state, shard, item.clone());
            }
        }
    }

    /// Advances the global stream position over `n` packets observed
    /// outside this engine (the family's `skip`). Pending buffers ship
    /// first so already-routed items keep their pre-skip positions; the
    /// advance itself then propagates to the shards as part of the gap
    /// stamps of their next shipments. Never checks the publish cadence.
    pub(crate) fn skip_positions(&mut self, n: u64) {
        let mut state = self.state.lock().expect("router state poisoned");
        self.ship_all(&mut state);
        state.advance(n);
    }

    /// The summed per-shard heap footprint (the family's `space_bytes`).
    pub(crate) fn shard_space_bytes(&self) -> usize {
        self.ship_all(&mut self.state.lock().expect("router state poisoned"));
        self.workers
            .iter()
            .map(|worker| worker.call(|s: &mut S| s.space_bytes()))
            .sum()
    }
}

impl<S: Shard> std::fmt::Debug for ShardedEngine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("name", &self.name)
            .field("shards", &self.workers.len())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;
    use std::iter;

    use memento_core::traits::{HhhQuery, WindowQuery};
    use memento_hierarchy::{Prefix1D, SrcHierarchy};

    use super::*;
    use crate::{ShardedEstimator, ShardedHhh};

    fn addr(i: u64) -> u32 {
        u32::from_be_bytes([10, (i % 7) as u8, (i % 3) as u8, i as u8])
    }

    fn subnet() -> Prefix1D {
        Prefix1D::new(u32::from_be_bytes([10, 0, 0, 0]), 8)
    }

    /// The engine's gap-folding positioned path must match the per-item
    /// `skip(gap); update(item)` interleaving.
    fn positioned_equals_interleaved<S: Shard, A: PartialEq + Debug>(
        make: impl Fn() -> ShardedEngine<S>,
        item: impl Fn(u64) -> S::Item,
        answers: impl Fn(&ShardedEngine<S>) -> A,
    ) {
        let mut positioned = make();
        let mut interleaved = make();
        let n = 6_000u64;
        let gaps: Vec<u64> = (0..n)
            .map(|i| [0, 0, 1, 0, 7, 0, 0, 350][(i % 8) as usize])
            .collect();
        let items: Vec<S::Item> = (0..n).map(&item).collect();
        for (gap_part, item_part) in gaps.chunks(997).zip(items.chunks(997)) {
            positioned.ingest_batch(item_part, gap_part.iter().copied());
        }
        for (&gap, item) in gaps.iter().zip(&items) {
            if gap > 0 {
                interleaved.skip_positions(gap);
            }
            interleaved.ingest(item.clone());
        }
        assert_eq!(answers(&positioned), answers(&interleaved));
    }

    #[test]
    fn positioned_batches_equal_interleaved_skip_and_update() {
        positioned_equals_interleaved(
            || ShardedEstimator::exact(3, 900),
            |i| (i * 13) % 41,
            |engine| {
                let estimates: Vec<u64> = (0..41u64)
                    .map(|key| engine.estimate(&key).to_bits())
                    .collect();
                (estimates, engine.processed())
            },
        );
        positioned_equals_interleaved(
            || ShardedHhh::h_memento(SrcHierarchy, 3, 512, 900, 1.0, 0.01, 5),
            |i| addr(i * 13),
            |engine| {
                let estimates: Vec<u64> = [8u8, 16, 24, 32]
                    .map(|len| Prefix1D::new(addr(1), len))
                    .iter()
                    .map(|p| engine.estimate(p).to_bits())
                    .collect();
                (estimates, engine.output(0.1), engine.processed())
            },
        );
    }

    /// Publishing an untouched engine advances the epoch without a freeze
    /// round; any ingest or position advance re-arms the real freeze path.
    /// `answer` reads `(processed, one estimate)` off a snapshot.
    fn republishes_without_freezing<S: Shard>(
        mut engine: ShardedEngine<S>,
        item: impl Fn(u64) -> S::Item,
        answer: impl Fn(&Snapshot<S::View>) -> (u64, f64),
    ) {
        let items: Vec<S::Item> = (0..4_000u64).map(|i| item(i % 23)).collect();
        engine.ingest_batch(&items, iter::repeat(0));
        let e1 = engine.publish_now();
        let rounds = engine.freeze_rounds();
        // The workers never hear about these two publications.
        let e2 = engine.publish_now();
        let e3 = engine.publish_now();
        assert!(e1 < e2 && e2 < e3, "epochs must keep advancing");
        assert_eq!(engine.freeze_rounds(), rounds, "short circuit froze");
        // The restamped snapshot carries the new epoch and the old answers.
        let snap = engine.reader().latest().expect("published");
        assert_eq!(snap.epoch(), e3);
        assert_eq!(answer(&snap).0, 4_000);
        assert_eq!(answer(&snap), answer(&engine.read_snapshot()));
        // Any ingest — even a single packet — re-arms the real freeze path.
        engine.ingest(item(1));
        let e4 = engine.publish_now();
        assert!(e4 > e3);
        assert!(engine.freeze_rounds() > rounds, "ingest must re-freeze");
        assert_eq!(answer(&engine.read_snapshot()).0, 4_001);
        // A bare position advance (skip) also counts as a change.
        let rounds = engine.freeze_rounds();
        engine.skip_positions(5_000);
        engine.publish_now();
        assert!(engine.freeze_rounds() > rounds, "skip must re-freeze");
        assert_eq!(answer(&engine.read_snapshot()).0, 9_001);
    }

    #[test]
    fn unchanged_engine_republishes_without_freezing() {
        republishes_without_freezing(
            ShardedEstimator::wcss(2, 64, 8_000),
            |i| i,
            |snap| (snap.processed(), snap.estimate(&1)),
        );
        republishes_without_freezing(
            ShardedHhh::h_memento(SrcHierarchy, 2, 256, 8_000, 1.0, 0.01, 3),
            addr,
            |snap| (snap.processed(), snap.estimate(&subnet())),
        );
    }
}
