//! Low-noise interleaved A/B of `CompactMap::probe` against its byte-loop
//! oracle `probe_reference`.
//!
//! The criterion `hot_path` rows swing ±30% between invocations on a
//! small shared box — more than the gap they are meant to resolve. This
//! harness interleaves the two scans round-robin (so machine-state drift
//! hits both equally), times whole passes with a monotonic clock, and
//! reports the per-scan minimum and median. Like the `hot_path` scan rows,
//! each probe accumulates the returned slot index (no entry touch — see
//! the note on the scan rows there), and a stream-weighted probe-length
//! histogram attributes the timing.
//!
//! Every run probes the same trace against two tables of the same size:
//!
//! * **operating load** — the trace's first 4,096 distinct flows in a
//!   `with_capacity(4096)` table (~1/2 load, the stream-summary index's
//!   regime: most probes are hits that end at the home slot);
//! * **full load** — the same table filled to `capacity()` (7/8 load, the
//!   peak the doubling overflow table and exact window reach) with keys
//!   that are not in the trace, so the trace's probes are misses that walk
//!   whole clusters to their first empty slot.
//!
//! Usage: `cargo run --release --bin probe_ab [passes]` (default 60).

use std::collections::HashSet;
use std::time::Instant;

use memento_bench::make_trace;
use memento_sketches::fasthash::hash_one;
use memento_sketches::CompactMap;
use memento_traces::TracePreset;

/// Monitored population (matches `hot_path`'s `MONITORED`).
const MONITORED: usize = 4_096;

/// Probe stream length (matches `hot_path`'s `OPS`).
const OPS: usize = 100_000;

fn main() {
    let passes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);

    let keys: Vec<u64> = make_trace(&TracePreset::datacenter(), OPS, 2018)
        .iter()
        .map(|p| p.flow())
        .collect();
    let in_trace: HashSet<u64> = keys.iter().copied().collect();

    let mut operating: CompactMap<u64, u32> = CompactMap::with_capacity(MONITORED);
    let mut seen = HashSet::new();
    for &key in &keys {
        if operating.len() == MONITORED {
            break;
        }
        if seen.insert(key) {
            operating.insert(key, 0);
        }
    }

    let mut full: CompactMap<u64, u32> = CompactMap::with_capacity(MONITORED);
    let mut filler = (0u64..)
        .map(|i| hash_one(&i))
        .filter(|k| !in_trace.contains(k));
    while full.len() < full.capacity() {
        full.insert(filler.next().expect("endless filler"), 0);
    }

    for (name, map) in [("operating load", &operating), ("full load", &full)] {
        println!("{name}: {} keys in {} slots", map.len(), slots(map));
        measure(map, &keys, passes);
    }
}

/// Slot count of `map`, recovered from its 7/8 load cap.
fn slots(map: &CompactMap<u64, u32>) -> usize {
    let slots = map.capacity() * 8 / 7;
    assert!(slots.is_power_of_two(), "unexpected table geometry");
    slots
}

/// Times `passes` interleaved rounds of both scans over `keys` and prints
/// the probe-length histogram and each scan's min / median pass time.
fn measure(map: &CompactMap<u64, u32>, keys: &[u64], passes: usize) {
    let mut times: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut acc = 0u64;
    for _ in 0..passes {
        for (scan, bucket) in times.iter_mut().enumerate() {
            let start = Instant::now();
            for &key in keys {
                let probed = match scan {
                    0 => map.probe_reference(&key),
                    _ => map.probe(&key),
                };
                match probed {
                    Ok(slot) => acc += slot as u64,
                    Err(_) => acc += 1,
                }
            }
            bucket.push(start.elapsed().as_nanos() as u64);
        }
    }

    // Stream-weighted probe-length histogram: how many slots each probe
    // actually walks (hits end at the key, misses at the first empty). The
    // home slot is the hash's low bits, as in `CompactMap::decompose`.
    let slots = slots(map);
    let mut hist = [0u64; 10];
    let mut hits = 0u64;
    for &key in keys {
        let slot = match map.probe(&key) {
            Ok(slot) => {
                hits += 1;
                slot
            }
            Err((slot, _)) => slot,
        };
        let home = hash_one(&key) as usize & (slots - 1);
        let len = (slot + slots - home) % slots + 1;
        hist[len.min(9)] += 1;
    }
    println!(
        "  probe length histogram (1..=8 slots, 9 = longer): {:?}, {hits} hits of {}",
        &hist[1..],
        keys.len()
    );

    for (name, bucket) in ["probe_reference", "probe"].iter().zip(times.iter_mut()) {
        bucket.sort_unstable();
        let min = bucket[0];
        let med = bucket[bucket.len() / 2];
        println!(
            "  {name:>15}: min {:.1} us  median {:.1} us  ({} passes)",
            min as f64 / 1_000.0,
            med as f64 / 1_000.0,
            bucket.len()
        );
    }
    eprintln!("  (checksum {acc})");
}
