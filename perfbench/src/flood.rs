//! `hhh-flood`: the fig10 network-wide scenario driven by the benchmark:
//! ten load balancers whose measurement points send Batch reports under a
//! 1 byte/packet budget to a D-H-Memento controller (H = 5), with a
//! detection sweep, a controller `output(θ)` query and `Mitigator::apply`
//! every check interval. The OPT oracle and the on-arrival error run in a
//! separate untimed pass.

use std::hint::black_box;
use std::time::Instant;

use memento_bench::Rmse;
use memento_core::analysis::NetworkBudget;
use memento_core::HhhAlgorithm;
use memento_hierarchy::{Hierarchy, Prefix1D, SrcHierarchy};
use memento_lb::{HttpRequest, LoadBalancer, Mitigator};
use memento_netwide::{
    CommMethod, DHMementoController, MeasurementPoint, ReportPayload, WireFormat,
};
use memento_sketches::{fasthash, CompactMap, ExactWindow};

use crate::alloc::allocations;
use crate::hh::set_query_latency;
use crate::inputs::{
    FloodInputs, Request, BUDGET, CHECK_EVERY, COUNTERS, FLOOD_SLICE, PROXIES, THETA, WINDOW,
};
use crate::run::{
    isolated, ns, repeat, set_process_metrics, traced, Budget, Checks, Layers, Outcome, Timings,
    SPAN_CAP,
};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace;

/// Backends behind each load balancer.
const BACKENDS: usize = 4;
/// Confidence δ of the controller's H-Memento.
const DELTA: f64 = 0.01;
/// Slack on the control-byte budget. The Batch method meets its budget in
/// expectation: each point samples at τ = B·b / (O + E·b), so the bytes it
/// sends follow the binomial count of its samples. Over an episode's 400k
/// requests that count has a relative standard deviation of about 0.4%,
/// and 2% is five of them.
const BUDGET_SLACK: f64 = 0.02;
/// Every this many requests is scored by the on-arrival pass.
const PROBE_EVERY: usize = 101;
/// Check intervals of warm-up: the flood starts after them.
const WARMUP_CHECKS: usize = WINDOW / CHECK_EVERY;
/// Check intervals between controller `output(θ)` queries. One query costs
/// tens of milliseconds, so it runs every 50 000 requests, while the
/// detection sweep (the poll) runs every check interval. The query's time
/// is kept out of the ingest slices so that `ingest_mpps` measures the
/// request path the layer metrics decompose.
const QUERY_CHECKS: usize = 50;
/// Check intervals per timed slice.
const SLICE_CHECKS: usize = FLOOD_SLICE / CHECK_EVERY;

/// The reporting configuration of fig10: the Batch size that minimises the
/// error bound under the budget, and the sampling rate it implies.
fn method() -> (CommMethod, f64) {
    let model = NetworkBudget {
        header_overhead: 64.0,
        sample_bytes: 4.0,
        points: PROXIES,
        hierarchy: 5,
        window: WINDOW,
        delta: 0.0001,
        budget: BUDGET,
    };
    let (batch, _) = model.optimal_batch(2_000);
    let method = CommMethod::Batch(batch);
    (
        method,
        method.tau_for_budget(BUDGET, &WireFormat::tcp_src()),
    )
}

struct System {
    proxies: Vec<LoadBalancer>,
    controller: DHMementoController<SrcHierarchy>,
}

fn system(seed: u64) -> System {
    let (method, upstream_tau) = method();
    let proxies = (0..PROXIES)
        .map(|id| {
            LoadBalancer::new(
                id,
                BACKENDS,
                method,
                BUDGET,
                WireFormat::tcp_src(),
                WINDOW / PROXIES,
                seed.wrapping_add(id as u64),
            )
        })
        .collect();
    let controller =
        DHMementoController::new(SrcHierarchy, COUNTERS, WINDOW, upstream_tau, DELTA, seed);
    System {
        proxies,
        controller,
    }
}

fn http(i: usize, r: &Request) -> HttpRequest {
    HttpRequest::get(r.src, r.dst, (i % 16) as u16)
}

/// Detection results of one scenario; deterministic, so each scenario's
/// first episode supplies them.
#[derive(Debug, Clone, Default)]
struct Detected {
    delays: Vec<f64>,
    attack: u64,
    missed: u64,
}

/// Totals of one run's episodes.
#[derive(Debug, Default)]
struct Totals {
    scenarios: Vec<Option<Detected>>,
    reports: u64,
    requests: u64,
    denied: u64,
    bytes: f64,
    staleness: Vec<f64>,
    state_bytes: usize,
}

impl Totals {
    fn detected(&self) -> impl Iterator<Item = &Detected> {
        self.scenarios.iter().flatten()
    }
}

fn episode<const T: bool>(
    inputs: &FloodInputs,
    scenario: usize,
    seed: u64,
    timings: &mut Timings,
    totals: &mut Totals,
    checks: &mut Checks,
) {
    let threshold = THETA * WINDOW as f64;
    let mitigator = Mitigator::deny_subnets();
    let allocs = allocations();
    let start = Instant::now();
    let System {
        mut proxies,
        mut controller,
    } = system(seed);
    let mut detected: Vec<Option<usize>> = vec![None; inputs.attack_prefixes.len()];
    let mut slice_start = start;
    let mut excluded = 0;
    let mut sent = 0;
    let mut found = Detected::default();
    for (c, chunk) in inputs.requests.chunks(CHECK_EVERY).enumerate() {
        if T {
            trace::next_id();
            trace::begin("chunk");
        }
        for r in chunk {
            let i = sent;
            sent += 1;
            let proxy = &mut proxies[i % PROXIES];
            let (outcome, report) = traced::<T, _>("lb.handle", || proxy.handle(http(i, r)));
            if r.attack {
                found.attack += 1;
                found.missed += outcome.reached_backend() as u64;
            }
            if let Some(report) = report {
                totals.reports += 1;
                traced::<T, _>("core.hhh_receive", || controller.receive(&report));
            }
        }
        let done = c + 1;
        let q = done.is_multiple_of(QUERY_CHECKS).then(|| {
            let q = Instant::now();
            black_box(traced::<T, _>("query", || controller.output(THETA)));
            ns(q)
        });
        let ingress: u64 = sent as u64;
        checks.check(controller.processed() <= ingress, || {
            format!(
                "controller covers {} of {ingress} requests",
                controller.processed()
            )
        });
        let newly = traced::<T, _>("detect", || {
            let mut newly = Vec::new();
            for (at, p) in detected.iter_mut().zip(&inputs.attack_prefixes) {
                if at.is_none() && controller.point_estimate(p) >= threshold {
                    *at = Some(sent);
                    newly.push(*p);
                }
            }
            newly
        });
        if !newly.is_empty() {
            traced::<T, _>("lb.mitigate", || mitigator.apply(&newly, &mut proxies));
        }
        if T {
            trace::end();
        }
        if done == WARMUP_CHECKS {
            timings.setup(0, ns(start));
            slice_start = Instant::now();
        } else if done > WARMUP_CHECKS {
            // Scenarios are draws of one distribution, so they share their
            // timing positions: each position then gets enough episodes
            // for its fastest time to mean something.
            if let Some(q) = q {
                timings.query(c, q);
                excluded += q;
            }
            totals
                .staleness
                .push(ingress.saturating_sub(controller.processed()) as f64);
            if (done - WARMUP_CHECKS).is_multiple_of(SLICE_CHECKS) {
                timings.slice(c, ns(slice_start) - excluded);
                slice_start = Instant::now();
                excluded = 0;
            }
        }
        if T && trace::full() {
            break;
        }
    }
    timings.episodes += 1;
    timings.items += sent as u64;
    timings.allocs += allocations() - allocs;

    let total: u64 = proxies.iter().map(|p| p.stats().total).sum();
    let bytes: f64 = proxies
        .iter()
        .map(|p| p.bytes_per_packet() * p.stats().total as f64)
        .sum();
    checks.check(total == sent as u64, || {
        format!("proxies saw {total} of {sent} requests")
    });
    checks.check(
        bytes <= BUDGET * (1.0 + BUDGET_SLACK) * total as f64,
        || {
            format!(
                "{:.4} control bytes per packet exceed the budget",
                bytes / total as f64
            )
        },
    );
    let hits = detected.iter().filter(|d| d.is_some()).count();
    checks.check(hits == detected.len() || T, || {
        format!("{hits} of {} attacking subnets detected", detected.len())
    });
    found.delays = detected
        .iter()
        .map(|d| (d.unwrap_or(inputs.requests.len()) - WINDOW) as f64)
        .collect();
    let slot = &mut totals.scenarios[scenario];
    if slot.is_none() && (!T || hits == detected.len()) {
        *slot = Some(found);
    }
    totals.requests += total;
    totals.denied += proxies.iter().map(|p| p.stats().denied).sum::<u64>();
    totals.bytes += bytes;
    totals.state_bytes = controller.as_hmemento().space_bytes();
}

/// The untimed oracle pass: the same requests through fresh proxies and
/// controller, scoring the controller's `/8` point estimate of each probed
/// request against the exact window, and timing OPT's detections.
fn oracle(inputs: &FloodInputs, seed: u64, rmse: &mut Rmse) -> f64 {
    let threshold = THETA * WINDOW as f64;
    let System {
        mut proxies,
        mut controller,
    } = system(seed);
    let mut opt: ExactWindow<u8> = ExactWindow::new(WINDOW);
    let mut opt_at: Vec<Option<usize>> = vec![None; inputs.attack_prefixes.len()];
    for (i, r) in inputs.requests.iter().enumerate() {
        let subnet = (r.src >> 24) as u8;
        if i > WINDOW && i % PROBE_EVERY == 0 {
            let prefix = Prefix1D::new(r.src, 8);
            rmse.record(
                controller.point_estimate(&prefix),
                opt.query(&subnet) as f64,
            );
        }
        if let (_, Some(report)) = proxies[i % PROXIES].handle(http(i, r)) {
            controller.receive(&report);
        }
        opt.add(subnet);
        if (i + 1) % CHECK_EVERY == 0 {
            for (at, p) in opt_at.iter_mut().zip(&inputs.attack_prefixes) {
                if at.is_none() && opt.query(&((p.addr() >> 24) as u8)) as f64 >= threshold {
                    *at = Some(i + 1);
                }
            }
        }
    }
    let delays: Vec<f64> = opt_at
        .iter()
        .map(|d| (d.unwrap_or(inputs.requests.len()) - WINDOW) as f64)
        .collect();
    median(&delays)
}

pub fn run(scenarios: &[FloodInputs], seed: u64, budget: Budget) -> Outcome {
    let mut out = Outcome::default();
    let mut plain = Timings::default();
    let mut totals = Totals {
        scenarios: vec![None; scenarios.len()],
        ..Totals::default()
    };
    // A traced run spends half its time untraced and half traced, both on
    // the first scenario, so the two halves time the same work.
    let (scenarios, plain_seconds) = if budget.trace {
        (&scenarios[..1], budget.seconds / 2.0)
    } else {
        (scenarios, budget.seconds)
    };
    let mut next = 0;
    repeat(plain_seconds, scenarios.len(), || {
        let j = next % scenarios.len();
        next += 1;
        episode::<false>(
            &scenarios[j],
            j,
            seed,
            &mut plain,
            &mut totals,
            &mut out.checks,
        );
    });
    let inputs = &scenarios[0];
    let (method, tau) = method();
    out.note(format!(
        "{} at τ = {tau:.5}, {} episodes",
        method.name(),
        plain.episodes
    ));
    out.set("state_bytes", totals.state_bytes as f64, "bytes");
    let mut staleness = totals.staleness.clone();
    staleness.sort_by(f64::total_cmp);
    let (p, stale_tail) = tail_percentile(&staleness, 99.0).unwrap_or((50.0, 0.0));
    out.note(format!(
        "staleness p50 {:.0} / p{p} {stale_tail:.0} requests over {} polls",
        percentile(&staleness, 50.0),
        staleness.len()
    ));

    if !budget.trace {
        out.set("ingest_mpps", plain.mpps(FLOOD_SLICE), "Mpkt/s");
        out.set("setup_s", plain.setup_s(), "s");
        set_query_latency(&mut out, &plain.query_ns());
        let delays: Vec<f64> = totals
            .detected()
            .flat_map(|d| d.delays.iter().copied())
            .collect();
        out.set("detect_delay_pkts", median(&delays), "pkts");
        let attack: u64 = totals.detected().map(|d| d.attack).sum();
        let missed: u64 = totals.detected().map(|d| d.missed).sum();
        out.set(
            "undetected_flood_frac",
            missed as f64 / attack.max(1) as f64,
            "fraction",
        );
        let mut rmse = Rmse::new();
        let opt_delays: Vec<f64> = scenarios
            .iter()
            .map(|s| oracle(s, seed, &mut rmse))
            .collect();
        out.set("on_arrival_rmse", rmse.value(), "pkts");
        out.note(format!(
            "{} of {} scenarios timed; on-arrival /8 RMSE {:?} over {} probes; OPT median detection delay {} requests",
            totals.detected().count(),
            scenarios.len(),
            rmse.value(),
            rmse.count(),
            median(&opt_delays)
        ));
        out.note(format!(
            "{} slice positions of {FLOOD_SLICE} requests",
            plain.slice_positions()
        ));
        return out;
    }

    let mut traced_t = Timings::default();
    let mut traced_totals = Totals {
        scenarios: vec![None; scenarios.len()],
        ..Totals::default()
    };
    trace::start(SPAN_CAP);
    repeat(budget.seconds / 2.0, 1, || {
        episode::<true>(
            inputs,
            0,
            seed,
            &mut traced_t,
            &mut traced_totals,
            &mut out.checks,
        );
    });
    let layers = Layers::new(trace::finish(), traced_t.items);

    // Isolated stages over the workload's own requests and the samples
    // one measurement point reports from them.
    let packets = inputs.requests.len();
    let hier = SrcHierarchy;
    let mut point: MeasurementPoint<u32> = MeasurementPoint::new(
        0,
        method,
        BUDGET,
        WireFormat::tcp_src(),
        WINDOW / PROXIES,
        seed,
    );
    let mut samples = Vec::new();
    let point_ns = isolated(packets, || {
        for r in &inputs.requests {
            if let Some(report) = point.process(black_box(r.src)) {
                if let ReportPayload::Samples(s) = report.payload {
                    samples.extend(s);
                }
            }
        }
    });
    let prefix_ns = isolated(packets, || {
        for r in &inputs.requests {
            for level in 0..hier.h() {
                black_box(hier.prefix_at(black_box(r.src), level));
            }
        }
    });
    let hash_ns = isolated(packets, || {
        for &s in &samples {
            for level in 0..hier.h() {
                black_box(fasthash::hash_one(&hier.prefix_at(s, level)));
            }
        }
    });
    let mut table: CompactMap<Prefix1D, ()> = CompactMap::with_capacity(COUNTERS);
    let mut live = system(seed);
    for (i, r) in inputs.requests.iter().enumerate() {
        if let (_, Some(report)) = live.proxies[i % PROXIES].handle(http(i, r)) {
            live.controller.receive(&report);
        }
    }
    for key in live.controller.as_hmemento().as_memento().tracked_keys() {
        table.insert(key, ());
    }
    let probe_ns = isolated(packets, || {
        for (i, &s) in samples.iter().enumerate() {
            black_box(
                table
                    .probe(&hier.prefix_at(black_box(s), i % hier.h()))
                    .is_ok(),
            );
        }
    });

    let requests = traced_totals.requests.max(1) as f64;
    out.set("sketches.hash_ns", hash_ns, "ns");
    out.set("sketches.probe_ns", probe_ns, "ns");
    out.set(
        "sketches.probe_slots",
        table.probe_stats().mean_probe_len,
        "count",
    );
    out.set("hierarchy.prefix_ns", prefix_ns, "ns");
    out.set("netwide.point_ns", point_ns, "ns");
    out.set(
        "netwide.reports_per_kpkt",
        traced_totals.reports as f64 * 1e3 / requests,
        "count",
    );
    out.set(
        "netwide.bytes_per_pkt",
        traced_totals.bytes / requests,
        "bytes",
    );
    out.set(
        "core.hhh_receive_ns",
        layers.self_ns("core.hhh_receive"),
        "ns",
    );
    out.set("lb.handle_ns", layers.self_ns("lb.handle"), "ns");
    out.set(
        "lb.denied_frac",
        traced_totals.denied as f64 / requests,
        "fraction",
    );
    out.set("lb.mitigate_us", layers.mean_us("lb.mitigate"), "us");
    out.set("staleness_p99_pkts", stale_tail, "pkts");
    out.set("query_ns", layers.self_ns("query"), "ns");
    out.set("detect_ns", layers.self_ns("detect"), "ns");
    out.set("loop_ns", layers.self_ns("chunk"), "ns");
    out.set(
        "alloc.lb.handle_per_kpkt",
        layers.allocs_per_kpkt("lb.handle"),
        "count",
    );
    out.set(
        "alloc.core.hhh_receive_per_kpkt",
        layers.allocs_per_kpkt("core.hhh_receive"),
        "count",
    );
    out.set(
        "alloc.query_per_kpkt",
        layers.allocs_per_kpkt("query"),
        "count",
    );
    // The query's time is kept out of the ingest slices, so it is no stage.
    let stages = [
        "lb.handle",
        "core.hhh_receive",
        "detect",
        "lb.mitigate",
        "chunk",
    ]
    .iter()
    .map(|s| layers.self_ns(s))
    .sum();
    set_process_metrics(&mut out, &plain, &traced_t, FLOOD_SLICE, stages);
    out
}
