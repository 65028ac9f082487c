//! # memento-sketches
//!
//! Counting substrates used throughout the [Memento (CoNEXT 2018)][paper]
//! reproduction:
//!
//! * [`SpaceSaving`] — the Space Saving algorithm of Metwally et al. backed by
//!   an O(1) *stream-summary* bucket structure ([`stream_summary`]). Memento
//!   uses one instance per frame; MST/RHHH use one per prefix level; the
//!   network-wide Aggregation baseline relies on its mergeability.
//! * [`ExactInterval`] and [`ExactWindow`] — exact reference counters used as
//!   ground truth for every error metric in the evaluation.
//! * [`OverflowQueue`] — the queue-of-queues `b` from Algorithm 1 of the
//!   paper: one FIFO of flow identifiers per block overlapping the sliding
//!   window, with de-amortized draining of the oldest block.
//! * [`TableSampler`] and [`GeometricSampler`] — the two sampling
//!   implementations the paper compares in §6.2 (random-number table for
//!   Memento/H-Memento, geometric skips for RHHH).
//! * [`FastHasher`]/[`FastBuildHasher`] and [`CompactMap`] — the
//!   cache-resident hot-path layer ([`fasthash`], [`compact_map`]): a
//!   dependency-free fxhash/SplitMix-style hash and a flat open-addressing
//!   map with one-byte fingerprints, backing every per-packet lookup
//!   (the stream-summary key index, Memento's overflow table, the shard
//!   routers via [`fasthash::route`]).
//!
//! [paper]: https://arxiv.org/abs/1810.02899

// `deny` rather than `forbid`: the crate's one `#[allow(unsafe_code)]`
// site wraps the x86_64 software-prefetch hint in [`fasthash::prefetch`],
// a no-access CPU hint that cannot fault. Everything else remains safe
// code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod compact_map;
pub mod exact;
pub mod fasthash;
pub mod overflow_queue;
pub mod sampling;
pub mod space_saving;
pub mod stream_summary;

pub use compact_map::{CompactMap, MapJournalDrain, ProbeStats};
pub use exact::{ExactInterval, ExactTimedWindow, ExactWindow};
pub use fasthash::{FastBuildHasher, FastHasher};
pub use overflow_queue::OverflowQueue;
pub use sampling::{GeometricSampler, PrefixSampler, Sampler, TableSampler};
pub use space_saving::{CounterSnapshot, SpaceSaving};
pub use stream_summary::{StreamSummary, SummaryJournalDrain};
