//! The repository benchmark: three seeded workloads through the public APIs
//! of `memento-core`, `memento-shard`, `memento-netwide` and `memento-lb`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hh-bare --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output is one JSON object
//! holding every end-to-end metric; with `--trace 1` it holds every
//! per-layer metric from a traced run. The line before it records the host
//! and run facts. See `perfbench/README.md` for the workloads, the metrics
//! and which layer metric should move which end-to-end metric.

mod alloc;
mod bare;
mod engine;
mod flood;
mod hh;
mod inputs;
mod run;
mod stats;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use run::{Budget, Outcome};

#[global_allocator]
static COUNTING: alloc::Counting = alloc::Counting;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["hh-bare", "hh-engine", "hhh-flood"];

/// End-to-end metrics with their units: printed by every untraced run.
const END_TO_END: [(&str, &str); 8] = [
    ("ingest_mpps", "Mpkt/s"),
    ("query_p50_us", "us"),
    ("query_tail_us", "us"),
    ("detect_delay_pkts", "pkts"),
    ("undetected_flood_frac", "fraction"),
    ("on_arrival_rmse", "pkts"),
    ("state_bytes", "bytes"),
    ("setup_s", "s"),
];

/// Per-layer metrics with their units: printed by every traced run, zero
/// on a workload that bypasses the layer.
const PER_LAYER: [(&str, &str); 38] = [
    ("sketches.hash_ns", "ns"),
    ("sketches.probe_ns", "ns"),
    ("sketches.probe_slots", "count"),
    ("sketches.summary_ns", "ns"),
    ("core.update_ns", "ns"),
    ("core.full_updates_per_kpkt", "count"),
    ("core.overflows", "count"),
    ("core.skip_ns", "ns"),
    ("core.time_ns", "ns"),
    ("core.time_clears", "count"),
    ("core.time_clamps", "count"),
    ("core.freeze_ns", "ns"),
    ("core.patch_entries", "count"),
    ("core.hhh_receive_ns", "ns"),
    ("shard.ingest_call_ns", "ns"),
    ("shard.caller_busy_share", "fraction"),
    ("shard.epochs_per_mpkt", "count"),
    ("shard.publish_interval_pkts", "pkts"),
    ("hierarchy.prefix_ns", "ns"),
    ("netwide.point_ns", "ns"),
    ("netwide.reports_per_kpkt", "count"),
    ("netwide.bytes_per_pkt", "bytes"),
    ("lb.handle_ns", "ns"),
    ("lb.denied_frac", "fraction"),
    ("lb.mitigate_us", "us"),
    ("staleness_p99_pkts", "pkts"),
    ("query_ns", "ns"),
    ("detect_ns", "ns"),
    ("loop_ns", "ns"),
    ("e2e_ns", "ns"),
    ("residual_ns", "ns"),
    ("trace_overhead_frac", "fraction"),
    ("alloc_per_kpkt", "count"),
    ("alloc.core.update_per_kpkt", "count"),
    ("alloc.core.time_per_kpkt", "count"),
    ("alloc.shard.ingest_call_per_kpkt", "count"),
    ("alloc.lb.handle_per_kpkt", "count"),
    ("alloc.query_per_kpkt", "count"),
];

/// The whole process must end within this, hang or not.
const HARD_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name:?}; expected one of {WORKLOADS:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be within 1..=60".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(args: &Args) -> Outcome {
    let budget = Budget {
        seconds: args.seconds as f64,
        trace: args.trace,
    };
    match args.workload {
        "hh-bare" => bare::run(&inputs::hh_traces(args.seed, false), args.seed, budget),
        "hh-engine" => engine::run(&inputs::hh_traces(args.seed, true), args.seed, budget),
        _ => flood::run(&inputs::flood_scenarios(args.seed), args.seed, budget),
    }
}

/// Host and run facts recorded with every result.
fn facts(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"seed\": {}, \"commit\": {}, \"seconds\": {}, \
         \"workload\": {}, \"trace\": {}}}",
        json_string(&cpu),
        args.seed,
        json_string(&commit()),
        args.seconds,
        json_string(args.workload),
        args.trace as u8
    )
}

/// The checked-out commit, read from `.git` when the benchmark runs inside
/// a git checkout, else `unknown`.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: every metric of the run's list, in list order.
fn result_line(outcome: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).map_or(0.0, |m| m.0);
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.failed == 0,
        outcome.checks.attempted.max(1),
        outcome.checks.failed,
        metrics.join(", ")
    )
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <1..60> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", facts(&args));

    // The workload runs on its own thread so that a panic or a hang becomes
    // a failed row instead of a missing one.
    let args_trace = args.trace;
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| run_workload(&args)));
        let _ = tx.send(outcome);
    });
    let outcome = match rx.recv_timeout(HARD_LIMIT.saturating_sub(started.elapsed())) {
        Ok(Ok(mut outcome)) => {
            let _ = worker.join();
            if !args_trace {
                for (name, _) in END_TO_END {
                    outcome
                        .checks
                        .check(outcome.metrics.contains_key(name), || {
                            format!("metric {name} missing")
                        });
                }
            }
            outcome
        }
        Ok(Err(_)) => {
            let _ = worker.join();
            failed("the workload panicked")
        }
        Err(_) => {
            // A hung workload thread cannot be joined; the process exit
            // below ends it.
            println!("{}", result_line(&failed("the workload hung"), names));
            std::process::exit(0);
        }
    };
    for line in &outcome.notes {
        eprintln!("perfbench: {line}");
    }
    for message in &outcome.checks.messages {
        eprintln!("perfbench: check failed: {message}");
    }
    eprintln!(
        "perfbench: {} checks, {} failed (failed_frac {})",
        outcome.checks.attempted,
        outcome.checks.failed,
        outcome.checks.failed as f64 / outcome.checks.attempted.max(1) as f64
    );
    for (name, unit) in names {
        if let Some((value, _)) = outcome.metrics.get(name) {
            eprintln!("perfbench: {:<34} {value:>16.4} {unit}", name);
        }
    }
    println!("{}", result_line(&outcome, names));
}

fn failed(why: &str) -> Outcome {
    let mut outcome = Outcome::default();
    outcome.checks.check(false, || why.to_string());
    outcome
}

#[cfg(test)]
mod tests {
    use memento_bench::gate::Json;

    use super::{END_TO_END, PER_LAYER, WORKLOADS};

    fn entries(json: &Json, key: &str, field: &str) -> Vec<String> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("list present")
            .iter()
            .map(|m| {
                m.get(field)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
            .expect("BENCHMARK.json parses");
        assert_eq!(entries(&json, "workloads", "name"), WORKLOADS);
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<&str> = list.iter().map(|m| m.0).collect();
            let units: Vec<&str> = list.iter().map(|m| m.1).collect();
            assert_eq!(entries(&json, key, "name"), names, "{key} names");
            assert_eq!(entries(&json, key, "unit"), units, "{key} units");
        }
    }
}
