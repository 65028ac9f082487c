//! `hh-bare`: a single-thread `Memento` fed by `update_batch` in 4096-packet
//! chunks, with `heavy_hitters(θ·W)` after every chunk on the same thread.

use std::hint::black_box;
use std::time::Instant;

use memento_bench::on_arrival_rmse;
use memento_core::Memento;
use memento_sketches::{fasthash, CompactMap, StreamSummary};

use crate::alloc::allocations;
use crate::hh::{pooled_rmse, position, set_end_to_end, Detection, DetectionStats};
use crate::inputs::{HhInputs, CHUNK, COUNTERS, SLICE_CHUNKS, TAU, THETA, WARMUP_CHUNKS, WINDOW};
use crate::run::{
    isolated, ns, repeat, set_process_metrics, traced, Budget, Checks, Layers, Outcome, Timings,
    SPAN_CAP,
};
use crate::trace;

/// Every this many arrivals is scored.
const PROBE_EVERY: usize = 101;
/// Estimator seeds per trace in the on-arrival RMSE pass.
const RMSE_SEEDS: usize = 2;

fn episode<const T: bool>(
    inputs: &HhInputs,
    trace: usize,
    seed: u64,
    timings: &mut Timings,
    detection: &mut DetectionStats,
    checks: &mut Checks,
) -> Memento<u64> {
    let threshold = THETA * WINDOW as f64;
    let allocs = allocations();
    let start = Instant::now();
    let mut memento = Memento::new(COUNTERS, WINDOW, TAU, seed);
    let mut found = Detection::new(inputs);
    let mut slice_start = start;
    for (c, chunk) in inputs.keys.chunks(CHUNK).enumerate() {
        if T {
            trace::next_id();
            trace::begin("chunk");
        }
        traced::<T, _>("core.update", || memento.update_batch(chunk));
        let sent = (c + 1) * CHUNK;
        let q = Instant::now();
        let hh = traced::<T, _>("query", || memento.heavy_hitters(threshold));
        let q = ns(q);
        found.observe(&hh, sent);
        checks.check(memento.processed() == sent as u64, || {
            format!("processed() = {} after {sent} packets", memento.processed())
        });
        if T {
            trace::end();
        }
        let done = c + 1;
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
    timings.episodes += 1;
    timings.items += memento.processed();
    timings.allocs += allocations() - allocs;
    detection.add(trace, inputs, &found);
    memento
}

pub fn run(traces: &[HhInputs], seed: u64, budget: Budget) -> Outcome {
    let mut out = Outcome::default();
    let mut plain = Timings::default();
    let mut detection = DetectionStats::default();
    let mut last = None;
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
        last = Some(episode::<false>(
            &traces[j],
            j,
            seed,
            &mut plain,
            &mut detection,
            &mut out.checks,
        ));
    });
    let inputs = &traces[0];
    let memento = last.expect("at least one episode");
    out.set("state_bytes", memento.space_bytes() as f64, "bytes");

    if !budget.trace {
        set_end_to_end(&mut out, &plain, &detection);
        // The error is dominated by the sampling noise on a few heavy
        // flows, so it is pooled over every trace with two estimator seeds
        // each.
        let rmse = |j: usize| {
            let mut m = Memento::new(COUNTERS, WINDOW, TAU, seed.wrapping_add(j as u64));
            on_arrival_rmse(&mut m, &traces[j % traces.len()].keys, WINDOW, PROBE_EVERY)
        };
        let first = rmse(0);
        let again = rmse(0);
        out.checks
            .check(first.value().to_bits() == again.value().to_bits(), || {
                format!(
                    "on-arrival RMSE differs between passes: {} vs {}",
                    first.value(),
                    again.value()
                )
            });
        let passes = RMSE_SEEDS * traces.len();
        let probes = first.count();
        let pooled = pooled_rmse(std::iter::once(first).chain((1..passes).map(rmse)));
        out.set("on_arrival_rmse", pooled, "pkts");
        out.note(format!(
            "on-arrival RMSE {pooled:?} (bits {:#x}) over {passes} passes of {probes} probes",
            pooled.to_bits()
        ));
        return out;
    }

    let mut traced_t = Timings::default();
    let mut ignored = DetectionStats::default();
    let mut last = None;
    trace::start(SPAN_CAP);
    repeat(budget.seconds / 2.0, 1, || {
        last = Some(episode::<true>(
            inputs,
            0,
            seed,
            &mut traced_t,
            &mut ignored,
            &mut out.checks,
        ));
    });
    // The per-layer counts and the isolated stages use the traced episodes'
    // trace and its final state.
    let memento = last.expect("at least one episode");
    let layers = Layers::new(trace::finish(), traced_t.items);

    // Isolated stages over the workload's own keys.
    let packets = inputs.keys.len();
    let full_rate = memento.full_updates() as f64 / memento.processed() as f64;
    let hash_ns = isolated(packets, || {
        for key in &inputs.keys {
            black_box(fasthash::hash_one(black_box(key)));
        }
    });
    let mut table: CompactMap<u64, ()> = CompactMap::with_capacity(COUNTERS);
    for key in memento.tracked_keys() {
        table.insert(key, ());
    }
    let probe_ns = full_rate
        * isolated(packets, || {
            for key in &inputs.keys {
                black_box(table.probe(black_box(key)).is_ok());
            }
        });
    let stride = (1.0 / TAU).round() as usize;
    let summary_ns = isolated(packets, || {
        let mut summary: StreamSummary<u64> = StreamSummary::new(COUNTERS);
        for key in inputs.keys.iter().step_by(stride) {
            if summary.increment(key).is_none() {
                if summary.is_full() {
                    summary.replace_min(*key);
                } else {
                    summary.insert_new(*key);
                }
            }
        }
        black_box(summary.len());
    });

    out.set("sketches.hash_ns", hash_ns, "ns");
    out.set("sketches.probe_ns", probe_ns, "ns");
    out.set(
        "sketches.probe_slots",
        table.probe_stats().mean_probe_len,
        "count",
    );
    out.set("sketches.summary_ns", summary_ns, "ns");
    out.set("core.update_ns", layers.self_ns("core.update"), "ns");
    out.set(
        "core.full_updates_per_kpkt",
        memento.full_updates() as f64 * 1e3 / memento.processed() as f64,
        "count",
    );
    out.set(
        "core.overflows",
        memento.tracked_overflows() as f64,
        "count",
    );
    out.set("query_ns", layers.self_ns("query"), "ns");
    out.set("loop_ns", layers.self_ns("chunk"), "ns");
    out.set(
        "alloc.core.update_per_kpkt",
        layers.allocs_per_kpkt("core.update"),
        "count",
    );
    out.set(
        "alloc.query_per_kpkt",
        layers.allocs_per_kpkt("query"),
        "count",
    );
    // The update span is decomposed into its isolated sketch stages; the
    // rest of the update (window and overflow bookkeeping) is the residual.
    let stages =
        hash_ns + probe_ns + summary_ns + layers.self_ns("query") + layers.self_ns("chunk");
    set_process_metrics(&mut out, &plain, &traced_t, SLICE_CHUNKS * CHUNK, stages);
    out
}
