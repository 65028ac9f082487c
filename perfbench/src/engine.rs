//! `hh-engine`: the same keys on the bursty-then-diurnal arrival clock,
//! replayed through the time plane into a 1-shard `ShardedEstimator` under
//! the default `PublishPolicy`, with a `SnapshotReader` polled for
//! `heavy_hitters(θ·W)` after every chunk from the ingest thread.

use std::time::Instant;

use memento_bench::on_arrival_rmse_timed;
use memento_core::{Memento, SlidingWindowEstimator, TimedWindow, WindowQuery};
use memento_shard::{ShardedEstimator, SnapshotReader};

use crate::alloc::allocations;
use crate::hh::{pooled_rmse, position, set_end_to_end, Detection, DetectionStats};
use crate::inputs::{
    HhInputs, CHUNK, COUNTERS, FLOOD_GAP_NANOS, GRAINS, SLICE_CHUNKS, TAU, THETA, WARMUP_CHUNKS,
    WINDOW,
};
use crate::run::{
    ns, repeat, set_process_metrics, traced, Budget, Checks, Layers, Outcome, Spanned, Timings,
    SPAN_CAP,
};
use crate::stats::{percentile, tail_percentile};
use crate::trace;

/// Every this many arrivals is scored.
const PROBE_EVERY: usize = 101;

fn timed<E: SlidingWindowEstimator<u64>>(inner: E) -> TimedWindow<u64, E> {
    let window = WINDOW as u64;
    TimedWindow::with_grains(inner, FLOOD_GAP_NANOS * window, window, GRAINS)
}

fn engine(seed: u64) -> ShardedEstimator<u64> {
    ShardedEstimator::memento(1, COUNTERS, WINDOW, TAU, seed)
}

/// What the reader polls saw over a run.
#[derive(Debug, Default)]
struct Polls {
    staleness: Vec<f64>,
    epochs: u64,
    interval_positions: u64,
    records: u64,
    clears: u64,
    clamps: u64,
}

fn episode<const T: bool, E: SlidingWindowEstimator<u64>>(
    inputs: &HhInputs,
    trace: usize,
    make: impl FnOnce() -> (E, SnapshotReader<u64>),
    timings: &mut Timings,
    detection: &mut DetectionStats,
    polls: &mut Polls,
    checks: &mut Checks,
) -> usize {
    let threshold = THETA * WINDOW as f64;
    let allocs = allocations();
    let start = Instant::now();
    let (inner, reader) = make();
    let mut plane = timed(inner);
    let mut found = Detection::new(inputs);
    let mut slice_start = start;
    let mut seen: Option<(u64, u64)> = None;
    let mut ingested = 0;
    for (c, chunk) in inputs.arrivals.chunks(CHUNK).enumerate() {
        if T {
            trace::next_id();
            trace::begin("chunk");
        }
        traced::<T, _>("core.time", || plane.record_timed(chunk));
        let sent = (c + 1) * CHUNK;
        ingested = sent;
        let q = Instant::now();
        let snapshot = traced::<T, _>("query", || {
            reader.latest().map(|s| {
                let hh = s.heavy_hitters(threshold);
                (s, hh)
            })
        });
        let q = ns(q);
        let done = c + 1;
        match snapshot {
            Some((s, hh)) => {
                found.observe(&hh, sent);
                if done > WARMUP_CHUNKS {
                    polls
                        .staleness
                        .push((plane.position() - s.processed()) as f64);
                }
                if seen.is_some_and(|(epoch, _)| epoch != s.epoch()) {
                    polls.epochs += 1;
                    polls.interval_positions += s.processed() - seen.map_or(0, |p| p.1);
                }
                seen = Some((s.epoch(), s.processed()));
            }
            None => checks.check(seen.is_none(), || {
                "reader returned no snapshot after the first publication".to_string()
            }),
        }
        if T {
            trace::end();
        }
        if done == WARMUP_CHUNKS {
            timings.setup(trace, ns(start));
            slice_start = Instant::now();
        } else if done > WARMUP_CHUNKS {
            timings.query(position(trace, c), q);
            if (done - WARMUP_CHUNKS).is_multiple_of(SLICE_CHUNKS) {
                timings.slice(position(trace, c), ns(slice_start));
                slice_start = Instant::now();
            }
        }
        if T && trace::full() {
            break;
        }
    }
    // Barrier: under the default policy the engine's own `processed()`
    // publishes first, so it must equal the time plane's position.
    let processed = plane.inner().processed();
    checks.check(processed == plane.position(), || {
        format!("processed() = {processed} at position {}", plane.position())
    });
    timings.episodes += 1;
    timings.items += ingested as u64;
    timings.allocs += allocations() - allocs;
    polls.records += ingested as u64;
    polls.clears += plane.whole_window_advances();
    polls.clamps += plane.clock().clamped();
    detection.add(trace, inputs, &found);
    plane.inner().space_bytes()
}

fn plain(seed: u64) -> (ShardedEstimator<u64>, SnapshotReader<u64>) {
    let e = engine(seed);
    let r = e.reader();
    (e, r)
}

fn spanned(seed: u64) -> (Spanned<ShardedEstimator<u64>>, SnapshotReader<u64>) {
    let e = engine(seed);
    let r = e.reader();
    (Spanned::new(e, "shard.ingest_call", "shard.ingest_call"), r)
}

pub fn run(traces: &[HhInputs], seed: u64, budget: Budget) -> Outcome {
    let mut out = Outcome::default();
    let mut plain_t = Timings::default();
    let mut detection = DetectionStats::default();
    let mut polls = Polls::default();
    let mut state_bytes = 0;
    // A traced run spends half its time untraced and half traced, both on
    // the first trace, so the two halves time the same work.
    let (traces, plain_seconds) = if budget.trace {
        (&traces[..1], budget.seconds / 2.0)
    } else {
        (traces, budget.seconds)
    };
    let mut next = 0;
    repeat(plain_seconds, traces.len(), || {
        let j = next % traces.len();
        next += 1;
        state_bytes = episode::<false, _>(
            &traces[j],
            j,
            || plain(seed),
            &mut plain_t,
            &mut detection,
            &mut polls,
            &mut out.checks,
        );
    });
    out.set("state_bytes", state_bytes as f64, "bytes");
    let inputs = &traces[0];
    let mut staleness = polls.staleness.clone();
    staleness.sort_by(f64::total_cmp);
    let (p, stale_tail) = tail_percentile(&staleness, 99.0).unwrap_or((50.0, 0.0));
    out.note(format!(
        "staleness p50 {:.0} / p{p} {stale_tail:.0} positions over {} polls; {} publications seen",
        percentile(&staleness, 50.0),
        staleness.len(),
        polls.epochs
    ));

    if !budget.trace {
        set_end_to_end(&mut out, &plain_t, &detection);
        let started = Instant::now();
        let pooled = pooled_rmse(traces.iter().enumerate().map(|(j, t)| {
            let mut plane = timed(engine(seed.wrapping_add(j as u64)));
            on_arrival_rmse_timed(&mut plane, &t.arrivals, PROBE_EVERY)
        }));
        out.set("on_arrival_rmse", pooled, "pkts");
        out.note(format!(
            "on-arrival RMSE {pooled:?} over {} traces in {:.2} s",
            traces.len(),
            started.elapsed().as_secs_f64()
        ));
        return out;
    }

    let mut traced_t = Timings::default();
    let mut ignored = DetectionStats::default();
    let mut traced_polls = Polls::default();
    trace::start(SPAN_CAP);
    repeat(budget.seconds / 2.0, 1, || {
        episode::<true, _>(
            inputs,
            0,
            || spanned(seed),
            &mut traced_t,
            &mut ignored,
            &mut traced_polls,
            &mut out.checks,
        );
    });
    let layers = Layers::new(trace::finish(), traced_t.items);

    // Isolated replay of the worker's share: the same arrivals through the
    // time plane into a bare Memento, with skip and update spans and a
    // delta freeze at the publication cadence the readers observed.
    let publish_every = polls.interval_positions / polls.epochs.max(1);
    let packets = inputs.arrivals.len() as u64;
    trace::start(SPAN_CAP);
    let mut replay = timed(
        Spanned::new(
            Memento::new(COUNTERS, WINDOW, TAU, seed),
            "core.update",
            "core.skip",
        )
        .freezing(publish_every),
    );
    replay.record_timed(&inputs.arrivals);
    let isolated = Layers::new(trace::finish(), packets);
    let memento = &replay.inner().inner;
    let freezes = replay.inner().freezes.max(1);

    out.set("core.update_ns", isolated.self_ns("core.update"), "ns");
    out.set("core.skip_ns", isolated.self_ns("core.skip"), "ns");
    out.set("core.freeze_ns", isolated.self_ns("core.freeze"), "ns");
    out.set(
        "core.patch_entries",
        replay.inner().patch_entries as f64 / freezes as f64,
        "count",
    );
    out.set(
        "core.full_updates_per_kpkt",
        memento.full_updates() as f64 * 1e3 / packets as f64,
        "count",
    );
    out.set(
        "core.overflows",
        memento.tracked_overflows() as f64,
        "count",
    );
    let episodes = plain_t.episodes.max(1) as f64;
    out.set("core.time_ns", layers.self_ns("core.time"), "ns");
    out.set("core.time_clears", polls.clears as f64 / episodes, "count");
    out.set("core.time_clamps", polls.clamps as f64 / episodes, "count");
    out.set(
        "shard.ingest_call_ns",
        layers.self_ns("shard.ingest_call"),
        "ns",
    );
    out.set(
        "shard.caller_busy_share",
        layers.total_ns("shard.ingest_call") as f64 / layers.total_ns("chunk").max(1) as f64,
        "fraction",
    );
    out.set(
        "shard.epochs_per_mpkt",
        polls.epochs as f64 * 1e6 / polls.records as f64,
        "count",
    );
    out.set("shard.publish_interval_pkts", publish_every as f64, "pkts");
    out.set("staleness_p99_pkts", stale_tail, "pkts");
    out.set("query_ns", layers.self_ns("query"), "ns");
    out.set("loop_ns", layers.self_ns("chunk"), "ns");
    out.set(
        "alloc.core.time_per_kpkt",
        layers.allocs_per_kpkt("core.time"),
        "count",
    );
    out.set(
        "alloc.shard.ingest_call_per_kpkt",
        layers.allocs_per_kpkt("shard.ingest_call"),
        "count",
    );
    out.set(
        "alloc.query_per_kpkt",
        layers.allocs_per_kpkt("query"),
        "count",
    );
    // Caller-thread stages only: the worker's update runs beside them and
    // shows here only as back-pressure inside the ingest calls.
    let stages = layers.self_ns("core.time")
        + layers.self_ns("shard.ingest_call")
        + layers.self_ns("query")
        + layers.self_ns("chunk");
    set_process_metrics(&mut out, &plain_t, &traced_t, SLICE_CHUNKS * CHUNK, stages);
    out
}
