//! Seeded input generation. Every input a workload replays is built here,
//! up front and untimed, from the `--seed` argument alone: the same seed
//! gives the same inputs.

use memento_hierarchy::Prefix1D;
use memento_traces::flood::FloodConfig;
use memento_traces::{
    ArrivalModel, EmergingFlowScenario, FloodScenario, Packet, TraceGenerator, TracePreset,
};

/// Window size `W` in packets (stream positions) of every workload.
pub const WINDOW: usize = 100_000;
/// Counters `k` of the estimators under test.
pub const COUNTERS: usize = 4_096;
/// Full-update probability τ of the single-device workloads.
pub const TAU: f64 = 0.25;
/// Heavy-hitter threshold θ; queries ask for flows above `θ·W`.
pub const THETA: f64 = 0.01;
/// Packets handed to the system per ingest call on the single-device
/// workloads; the heavy-hitter query runs once per chunk.
pub const CHUNK: usize = 4_096;
/// Chunks of warm-up before timing starts: the first chunk boundary at or
/// beyond `W` packets.
pub const WARMUP_CHUNKS: usize = WINDOW.div_ceil(CHUNK);
/// Chunks per timed slice of `ingest_mpps`.
pub const SLICE_CHUNKS: usize = 16;
/// Timed slices per episode of the single-device workloads.
pub const SLICES: usize = 24;
/// Packets per episode of the single-device workloads.
pub const HH_PACKETS: usize = (WARMUP_CHUNKS + SLICES * SLICE_CHUNKS) * CHUNK;
/// Traces generated per run for the single-device workloads; episodes
/// cycle through them, so no one trace's layout of publications and heavy
/// flows sets the figures.
pub const HH_TRACES: usize = 8;
/// Emerging flows injected into the single-device trace.
pub const EMERGING_FLOWS: usize = 8;
/// Share of the traffic each emerging flow takes from its onset.
pub const EMERGING_SHARE: f64 = 0.04;
/// Grains of the time plane (the production default).
pub const GRAINS: u64 = 64;
/// Mean inter-arrival gap of a flood, in ns; the time window is this gap
/// times `W`, so a flood arrives at exactly the provisioned rate.
pub const FLOOD_GAP_NANOS: u64 = 100;

/// Requests per episode of the network-wide workload (the fig10 scale).
pub const FLOOD_REQUESTS: usize = 4 * WINDOW;
/// Flood scenarios generated per run; episodes cycle through them, so
/// the detection figures average over several draws of attacking subnets.
pub const FLOOD_SCENARIOS: usize = 16;
/// Requests between detection sweeps and controller queries.
pub const CHECK_EVERY: usize = 1_000;
/// Requests per timed slice of the network-wide workload.
pub const FLOOD_SLICE: usize = 10_000;
/// Load balancers (measurement points) of the network-wide workload.
pub const PROXIES: usize = 10;
/// Attacking subnets of the network-wide workload.
pub const SUBNETS: usize = 50;
/// Control bytes per packet the measurement points may send.
pub const BUDGET: f64 = 1.0;

/// Inputs of the single-device workloads (`hh-bare`, `hh-engine`).
#[derive(Debug, Clone, PartialEq)]
pub struct HhInputs {
    /// Flow keys in arrival order.
    pub keys: Vec<u64>,
    /// `(flow key, onset packet index)` of each emerging flow.
    pub emerging: Vec<(u64, usize)>,
    /// The same keys stamped with the bursty-then-diurnal arrival clock,
    /// as `(nanos, key)`; empty unless generated `timed`.
    pub arrivals: Vec<(u64, u64)>,
}

/// [`HH_TRACES`] single-device traces, from sub-seeds of `seed`; the
/// arrival clock is stamped only when `timed`.
pub fn hh_traces(seed: u64, timed: bool) -> Vec<HhInputs> {
    (0..HH_TRACES as u64)
        .map(|j| hh_inputs(sub_seed(seed, j), timed))
        .collect()
}

/// The `j`-th sub-seed of a run seed.
fn sub_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The datacenter Zipf trace with [`EMERGING_FLOWS`] flows that each take
/// [`EMERGING_SHARE`] of the traffic from staggered onsets in the second
/// half of the trace (inside the diurnal part of the arrival clock).
pub fn hh_inputs(seed: u64, timed: bool) -> HhInputs {
    let base = TraceGenerator::new(TracePreset::datacenter(), seed);
    let half = HH_PACKETS / 2;
    let spacing = half / 10;
    let emerging: Vec<(u64, usize)> = (0..EMERGING_FLOWS)
        .map(|i| {
            // Class-E sources keep the injected flows apart from the
            // generated ones.
            let flow = Packet::new(0xF000_0000 | i as u32, (seed as u32) ^ 0x5A5A_5A5A);
            (flow.flow(), half + i * spacing)
        })
        .collect();
    let mut packets: Box<dyn Iterator<Item = Packet>> = Box::new(base);
    for (i, &(key, onset)) in emerging.iter().enumerate() {
        let flow = Packet::new((key >> 32) as u32, key as u32);
        packets = Box::new(EmergingFlowScenario::new(
            packets,
            flow,
            EMERGING_SHARE,
            onset,
            seed.wrapping_add(1 + i as u64),
        ));
    }
    let packets: Vec<Packet> = packets.take(HH_PACKETS).collect();
    let keys = packets.iter().map(Packet::flow).collect();
    HhInputs {
        keys,
        emerging,
        arrivals: if timed {
            stamp_arrivals(&packets, seed)
        } else {
            Vec::new()
        },
    }
}

/// The gate's `bursty-replay` clock: floods of `W/4` packets between idle
/// gaps of two windows, then a diurnal rotation between the provisioned
/// rate and 1/16th of it every `W/2` packets. The gate splits the trace in
/// half; here the bursty part is the first third, so that the queries of
/// the diurnal part, where snapshots hold more flows and cost more to
/// read, are a clear majority and the query median does not sit on the
/// boundary between the two parts.
fn stamp_arrivals(packets: &[Packet], seed: u64) -> Vec<(u64, u64)> {
    let window = WINDOW as u64;
    let bursty = ArrivalModel::Bursty {
        burst_len: window / 4,
        flood_gap_nanos: FLOOD_GAP_NANOS,
        idle_nanos: 2 * FLOOD_GAP_NANOS * window,
    };
    let diurnal = ArrivalModel::Diurnal {
        fast_gap_nanos: FLOOD_GAP_NANOS,
        slow_gap_nanos: 16 * FLOOD_GAP_NANOS,
        period: window / 2,
    };
    let (front, back) = packets.split_at(packets.len() / 3);
    let mut arrivals: Vec<(u64, u64)> = bursty
        .stamp(front, seed)
        .iter()
        .map(|tp| (tp.nanos, tp.packet.flow()))
        .collect();
    let offset = arrivals.last().map_or(0, |&(t, _)| t);
    arrivals.extend(
        diurnal
            .stamp(back, seed.wrapping_add(1))
            .iter()
            .map(|tp| (offset.saturating_add(tp.nanos), tp.packet.flow())),
    );
    arrivals
}

/// One request of the network-wide workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub src: u32,
    pub dst: u32,
    pub attack: bool,
}

/// Inputs of the network-wide workload (`hhh-flood`).
#[derive(Debug, Clone, PartialEq)]
pub struct FloodInputs {
    pub requests: Vec<Request>,
    /// The attacking `/8` subnets (ground truth).
    pub attack_prefixes: Vec<Prefix1D>,
}

/// [`FLOOD_SCENARIOS`] draws of the fig10 scenario, from sub-seeds of
/// `seed`.
pub fn flood_scenarios(seed: u64) -> Vec<FloodInputs> {
    (0..FLOOD_SCENARIOS as u64)
        .map(|j| flood_inputs(sub_seed(seed, j)))
        .collect()
}

/// The fig10 scenario: the backbone preset with [`SUBNETS`] subnets
/// flooding 70% of the traffic from request `W` on.
pub fn flood_inputs(seed: u64) -> FloodInputs {
    let base = TraceGenerator::new(TracePreset::backbone(), seed ^ 0x7777);
    let config = FloodConfig {
        num_subnets: SUBNETS,
        flood_probability: 0.7,
        start: WINDOW,
    };
    let scenario = FloodScenario::new(base, config, seed ^ 0x4242);
    let attack_prefixes = scenario.attack_prefixes();
    let requests = scenario
        .take(FLOOD_REQUESTS)
        .map(|fp| Request {
            src: fp.packet.src,
            dst: fp.packet.dst,
            attack: fp.is_attack,
        })
        .collect();
    FloodInputs {
        requests,
        attack_prefixes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = hh_inputs(7, true);
        assert_eq!(a, hh_inputs(7, true));
        assert_ne!(a.keys, hh_inputs(8, true).keys);
        assert_eq!(a.keys.len(), HH_PACKETS);
        assert_eq!(a.arrivals.len(), HH_PACKETS);
        let f = flood_inputs(7);
        assert_eq!(f, flood_inputs(7));
        assert_ne!(f.requests, flood_inputs(8).requests);
        let scenarios = flood_scenarios(7);
        assert_eq!(scenarios.len(), FLOOD_SCENARIOS);
        assert_ne!(scenarios[0].attack_prefixes, scenarios[1].attack_prefixes);
        assert_eq!(f.requests.len(), FLOOD_REQUESTS);
    }

    #[test]
    fn emerging_flows_start_at_their_onsets() {
        let inputs = hh_inputs(3, true);
        for &(key, onset) in &inputs.emerging {
            assert!(!inputs.keys[..onset].contains(&key));
            let after = inputs.keys[onset..].iter().filter(|&&k| k == key).count();
            assert!(after as f64 > 0.01 * (HH_PACKETS - onset) as f64);
        }
        assert!(inputs.arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
