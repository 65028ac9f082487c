//! What the two single-device workloads share: detection bookkeeping for
//! the emerging flows and the latency and detection metrics built from it.

use memento_bench::Rmse;

use crate::inputs::{HhInputs, CHUNK, HH_PACKETS, WARMUP_CHUNKS};
use crate::run::{Outcome, Timings};
use crate::stats::{median, percentile, tail_percentile};

/// First-report bookkeeping for the emerging flows of one episode.
pub struct Detection<'a> {
    inputs: &'a HhInputs,
    pub at: Vec<Option<usize>>,
}

impl<'a> Detection<'a> {
    pub fn new(inputs: &'a HhInputs) -> Self {
        Detection {
            inputs,
            at: vec![None; inputs.emerging.len()],
        }
    }

    /// Records which emerging flows the answer `hh` reports after `sent`
    /// packets.
    pub fn observe(&mut self, hh: &[(u64, f64)], sent: usize) {
        for (at, &(key, onset)) in self.at.iter_mut().zip(&self.inputs.emerging) {
            if at.is_none() && sent > onset && hh.iter().any(|&(k, _)| k == key) {
                *at = Some(sent);
            }
        }
    }
}

/// Accumulates detection results over the first episode of each trace.
#[derive(Debug, Default)]
pub struct DetectionStats {
    traces: Vec<usize>,
    pub delays: Vec<f64>,
    pub missed: u64,
    pub emerging: u64,
    pub censored: u64,
}

impl DetectionStats {
    /// Adds one episode's detections: the delay of each flow, and its
    /// packets that arrived before it was first reported. A flow never
    /// reported within the episode counts up to the episode's end.
    pub fn add(&mut self, trace: usize, inputs: &HhInputs, detection: &Detection) {
        if self.traces.contains(&trace) {
            return;
        }
        self.traces.push(trace);
        for (&(key, onset), at) in inputs.emerging.iter().zip(&detection.at) {
            self.censored += at.is_none() as u64;
            let at = at.unwrap_or(HH_PACKETS);
            self.delays.push((at - onset) as f64);
            let flow = |range: &[u64]| range.iter().filter(|&&k| k == key).count() as u64;
            self.missed += flow(&inputs.keys[onset..at]);
            self.emerging += flow(&inputs.keys[onset..]);
        }
    }
}

/// The timing position of chunk `chunk` of trace `trace`.
pub fn position(trace: usize, chunk: usize) -> usize {
    trace * HH_PACKETS / CHUNK + chunk
}

/// Sets the query latency, detection and throughput metrics of a
/// single-device run.
pub fn set_end_to_end(out: &mut Outcome, timings: &Timings, detection: &DetectionStats) {
    let slice = crate::inputs::SLICE_CHUNKS * CHUNK;
    out.set("ingest_mpps", timings.mpps(slice), "Mpkt/s");
    out.set("setup_s", timings.setup_s(), "s");
    set_query_latency(out, &timings.query_ns());
    out.set("detect_delay_pkts", median(&detection.delays), "pkts");
    out.set(
        "undetected_flood_frac",
        detection.missed as f64 / detection.emerging.max(1) as f64,
        "fraction",
    );
    out.note(format!(
        "{} of {} emerging-flow onsets never reported within their episode",
        detection.censored,
        detection.delays.len()
    ));
    out.note(format!(
        "{} episodes, {} slice positions of {slice} packets, warm-up {} packets",
        timings.episodes,
        timings.slice_positions(),
        WARMUP_CHUNKS * CHUNK
    ));
}

/// The highest percentile `query_tail_us` reports. On `hh-engine` about 1%
/// of the polls are the first read of a fresh snapshot, which costs tens
/// of microseconds against under one for the rest, so p99 sits on the
/// edge between the two and flips from run to run.
const TAIL_CAP: f64 = 95.0;

/// Sets `query_p50_us` and `query_tail_us` from the per-position query
/// nanoseconds; the tail is p95 when at least ten positions lie beyond it,
/// else the highest percentile that has them.
pub fn set_query_latency(out: &mut Outcome, query_ns: &[u64]) {
    let mut us: Vec<f64> = query_ns.iter().map(|&n| n as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    if us.is_empty() {
        return;
    }
    out.set("query_p50_us", percentile(&us, 50.0), "us");
    let (p, tail) = tail_percentile(&us, TAIL_CAP).unwrap_or((50.0, percentile(&us, 50.0)));
    out.set("query_tail_us", tail, "us");
    out.note(format!(
        "query latency over {} query positions (fastest of the episodes at each); tail at p{p}",
        us.len()
    ));
}

/// Root of the mean squared error over several RMSE accumulators, each
/// weighted by its probe count.
pub fn pooled_rmse(parts: impl IntoIterator<Item = Rmse>) -> f64 {
    let (sum, n) = parts.into_iter().fold((0.0, 0u64), |(sum, n), r| {
        (sum + r.value().powi(2) * r.count() as f64, n + r.count())
    });
    (sum / n.max(1) as f64).sqrt()
}
