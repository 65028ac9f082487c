//! What every workload shares: output checks, the metric table, the time
//! budget, and the estimator wrapper that opens spans around the calls the
//! time plane makes into the estimator it owns.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use memento_core::{SlidingWindowEstimator, WindowPatch, WindowQuery};

use crate::stats::{median, replay_rate};
use crate::trace;

/// Output checks: each one is an attempted operation, failed when its
/// condition does not hold. The first few failures are kept for the log.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }
}

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What a workload hands back: its metrics, its checks and free-form notes
/// (sample counts, percentiles picked) for the log.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Checks,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// How long a run measures, and whether it is the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub trace: bool,
}

/// Spans the traced run may keep in memory (about 48 bytes each).
pub const SPAN_CAP: usize = 1_500_000;

/// Timings gathered across the episodes of one phase of a run.
///
/// Every episode replays the same inputs, so a slice or a query at a given
/// position of the replay does the same work each time. Interference from
/// other tenants of a shared host only ever adds time, and on a small box it
/// comes and goes on a scale of seconds: the median of a run swings by a
/// quarter between runs of the same code. So each position keeps the
/// fastest time any episode measured there, and the metrics are built from
/// those per-position times. Set-up is timed once per episode and kept
/// per trace the same way.
#[derive(Debug, Default)]
pub struct Timings {
    setups: BTreeMap<usize, u64>,
    slices: BTreeMap<usize, u64>,
    queries: BTreeMap<usize, u64>,
    pub episodes: u64,
    pub items: u64,
    pub allocs: u64,
}

impl Timings {
    /// Records the set-up time of an episode of trace `trace`.
    pub fn setup(&mut self, trace: usize, ns: u64) {
        keep_fastest(&mut self.setups, trace, ns);
    }

    /// Set-up seconds: the median over the traces of each trace's fastest
    /// set-up.
    pub fn setup_s(&self) -> f64 {
        let s: Vec<f64> = self.setups.values().map(|&n| n as f64 / 1e9).collect();
        median(&s)
    }

    /// Records the time of the timed slice at replay position `position`.
    pub fn slice(&mut self, position: usize, ns: u64) {
        keep_fastest(&mut self.slices, position, ns);
    }

    /// Records the latency of the query at replay position `position`.
    pub fn query(&mut self, position: usize, ns: u64) {
        keep_fastest(&mut self.queries, position, ns);
    }

    /// Items per second over the replay, in millions, from the fastest time
    /// of each slice position.
    pub fn mpps(&self, items_per_slice: usize) -> f64 {
        replay_rate(
            items_per_slice,
            &self.slices.values().copied().collect::<Vec<_>>(),
        )
    }

    /// The fastest latency of each query position, in nanoseconds.
    pub fn query_ns(&self) -> Vec<u64> {
        self.queries.values().copied().collect()
    }

    /// Slice positions timed.
    pub fn slice_positions(&self) -> usize {
        self.slices.len()
    }
}

fn keep_fastest(times: &mut BTreeMap<usize, u64>, position: usize, ns: u64) {
    let best = times.entry(position).or_insert(u64::MAX);
    *best = (*best).min(ns);
}

/// Runs `episode` until `seconds` have passed and at least `min_episodes`
/// have run (one pass over the run's traces), or until the traced run's
/// span buffer is full.
pub fn repeat(seconds: f64, min_episodes: usize, mut episode: impl FnMut()) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut done = 0;
    loop {
        episode();
        done += 1;
        if (Instant::now() >= deadline && done >= min_episodes) || trace::full() {
            break;
        }
    }
}

/// Nanoseconds of an elapsed interval.
pub fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Opens a span when `T` (the traced run) is set.
#[inline(always)]
pub fn traced<const T: bool, R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if T {
        trace::span(name, f)
    } else {
        f()
    }
}

/// An estimator wrapper that opens a span around every ingest call made
/// into it (`update_batch` and `skip`), and — in the isolated replay —
/// freezes a delta patch every `freeze_every` stream positions.
pub struct Spanned<E> {
    pub inner: E,
    update: &'static str,
    skip: &'static str,
    freeze_every: u64,
    next_freeze: u64,
    pub patch_entries: u64,
    pub freezes: u64,
}

impl<E> Spanned<E> {
    pub fn new(inner: E, update: &'static str, skip: &'static str) -> Self {
        Spanned {
            inner,
            update,
            skip,
            freeze_every: 0,
            next_freeze: u64::MAX,
            patch_entries: 0,
            freezes: 0,
        }
    }

    /// Freezes a delta patch (span `core.freeze`) each time the stream
    /// position passes another multiple of `every`.
    pub fn freezing(mut self, every: u64) -> Self {
        self.freeze_every = every.max(1);
        self.next_freeze = self.freeze_every;
        self
    }
}

impl<E: SlidingWindowEstimator<u64>> Spanned<E> {
    fn maybe_freeze(&mut self) {
        if self.freeze_every > 0 && self.inner.processed() >= self.next_freeze {
            self.next_freeze = self.inner.processed() + self.freeze_every;
            let patch: WindowPatch<u64> = trace::span("core.freeze", || self.inner.freeze_delta());
            self.patch_entries += patch.changes() as u64;
            self.freezes += 1;
        }
    }
}

impl<E: SlidingWindowEstimator<u64>> WindowQuery<u64> for Spanned<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn estimate(&self, key: &u64) -> f64 {
        self.inner.estimate(key)
    }

    fn heavy_hitters(&self, threshold: f64) -> Vec<(u64, f64)> {
        self.inner.heavy_hitters(threshold)
    }

    fn processed(&self) -> u64 {
        self.inner.processed()
    }

    fn error_bound(&self) -> f64 {
        self.inner.error_bound()
    }
}

impl<E: SlidingWindowEstimator<u64>> SlidingWindowEstimator<u64> for Spanned<E> {
    fn update(&mut self, key: u64) {
        self.update_batch(&[key]);
    }

    fn update_batch(&mut self, keys: &[u64]) {
        trace::span(self.update, || self.inner.update_batch(keys));
        self.maybe_freeze();
    }

    fn skip(&mut self, n: u64) {
        trace::span(self.skip, || self.inner.skip(n));
        self.maybe_freeze();
    }

    fn space_bytes(&self) -> usize {
        self.inner.space_bytes()
    }
}

/// Per-packet figures of a set of spans: self nanoseconds and allocations
/// per packet of each span name, with the packets they cover.
pub struct Layers {
    names: BTreeMap<&'static str, (u64, u64, u64)>,
    spans: Vec<trace::Span>,
    packets: f64,
}

impl Layers {
    pub fn new(spans: Vec<trace::Span>, packets: u64) -> Self {
        Layers {
            names: trace::by_name(&spans),
            spans,
            packets: packets.max(1) as f64,
        }
    }

    /// Self nanoseconds per packet of the spans named `name`.
    pub fn self_ns(&self, name: &str) -> f64 {
        self.names
            .get(name)
            .map_or(0.0, |e| e.1 as f64 / self.packets)
    }

    /// Allocations per thousand packets inside the spans named `name`
    /// (children included).
    pub fn allocs_per_kpkt(&self, name: &str) -> f64 {
        self.names
            .get(name)
            .map_or(0.0, |e| e.2 as f64 * 1e3 / self.packets)
    }

    /// Mean inclusive duration of one `name` span, in microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + (s.end - s.start)));
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    /// Inclusive nanoseconds of every `name` span.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }
}

/// Times `f` over its input once and returns nanoseconds per packet of the
/// workload (`packets`), for the isolated stage replays.
pub fn isolated(packets: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    ns(start) as f64 / packets.max(1) as f64
}

/// Sets the metrics every traced run reports from its two phases.
pub fn set_process_metrics(
    out: &mut Outcome,
    plain: &Timings,
    traced: &Timings,
    items_per_slice: usize,
    stages_ns: f64,
) {
    let plain_mpps = plain.mpps(items_per_slice);
    let traced_mpps = traced.mpps(items_per_slice);
    let e2e_ns = 1e3 / plain_mpps;
    out.set("e2e_ns", e2e_ns, "ns");
    out.set("residual_ns", e2e_ns - stages_ns, "ns");
    out.set(
        "trace_overhead_frac",
        1.0 - traced_mpps / plain_mpps,
        "fraction",
    );
    out.set(
        "alloc_per_kpkt",
        plain.allocs as f64 * 1e3 / plain.items.max(1) as f64,
        "count",
    );
}

#[cfg(test)]
mod tests {
    use super::Timings;

    #[test]
    fn each_position_keeps_its_fastest_time() {
        let mut t = Timings::default();
        for (position, ns) in [(0, 3_000), (1, 2_000), (0, 1_000), (1, 5_000)] {
            t.slice(position, ns);
            t.query(position, ns);
        }
        // Two slices of 1000 items in 1 µs and 2 µs.
        assert_eq!(t.mpps(1_000), 2_000.0 * 1e3 / 3_000.0);
        assert_eq!(t.query_ns(), vec![1_000, 2_000]);
        assert_eq!(t.slice_positions(), 2);
        for (trace, ns) in [
            (0, 4e9 as u64),
            (1, 2e9 as u64),
            (0, 3e9 as u64),
            (2, 1e9 as u64),
        ] {
            t.setup(trace, ns);
        }
        // Fastest per trace: 3 s, 2 s, 1 s.
        assert_eq!(t.setup_s(), 2.0);
    }
}
