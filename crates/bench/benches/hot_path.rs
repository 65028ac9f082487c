//! The cache-resident hot path, isolated and end-to-end.
//!
//! PR 5 replaced std's SipHash maps on every per-packet structure (the
//! stream-summary key index, Memento's overflow table `B`) with the
//! workspace's fast-hash `CompactMap` and split the stream-summary slots
//! into hot/cold arrays. This bench measures both layers:
//!
//! * **map microbenches** — the Full-update access pattern (lookup-mostly
//!   with occasional insert/remove churn) on `std::collections::HashMap`
//!   vs [`CompactMap`], same keys, same sequence: the isolated cost of
//!   SipHash + bucket indirection vs one fingerprint probe;
//! * **end-to-end WCSS / Memento mpps** — `update_batch` over the perf
//!   gate's datacenter trace at τ = 1 (every packet a Full update, the
//!   worst case the ISSUE-5 gate bar is set on) and τ = 1/4;
//! * **space_saving_add** — the Full update's dominant component alone,
//!   comparable with `substrate_ops`' historical numbers.
//!
//! Two pairs of rows isolate the probe and the churn it has to survive:
//!
//! * **map_probe_compact_map_byte_scan** vs
//!   **map_probe_compact_map_probe_scan** — the same probe workload
//!   through the byte-at-a-time oracle `probe_reference` and through the
//!   hot-path `probe` (home slot peeled, then one rolled byte loop), on
//!   the identical table and keys;
//! * **delete-heavy churn** (`churn = 4`) — every fourth op a removal, so
//!   backward-shift deletion and the subsequent re-probes of the
//!   displaced clusters dominate.
//!
//! Recorded before/after numbers live in `crates/bench/EXPERIMENTS.md`.

use std::collections::HashMap;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use memento_bench::make_trace;
use memento_core::{Memento, Wcss};
use memento_sketches::{CompactMap, SpaceSaving};
use memento_traces::{Packet, TracePreset};

/// Trace length for the map and substrate microbenches.
const OPS: usize = 100_000;

/// Packet-burst size for the end-to-end rows (the perf gate's unit).
const CHUNK: usize = 4_096;

/// Number of monitored keys in the probe microbench (the gate's counter
/// budget: the stream-summary index holds at most this many).
const MONITORED: usize = 4_096;

/// The first `MONITORED` distinct flows of the trace — the population the
/// probe microbench holds monitored, as the stream summary would.
fn monitored_population(keys: &[u64]) -> Vec<u64> {
    let mut seen = std::collections::HashSet::new();
    let mut population = Vec::with_capacity(MONITORED);
    for &key in keys {
        if seen.insert(key) {
            population.push(key);
            if population.len() == MONITORED {
                break;
            }
        }
    }
    population
}

/// The stream-summary-index access pattern: a fixed monitored population,
/// every packet one probe — hit → increment through `get_mut`, miss →
/// fall through (the summary's eviction path). Lookup-dominated, zero
/// structural churn: exactly what a Full update pays per packet.
fn map_probe_std(population: &[u64], keys: &[u64]) -> u64 {
    let mut map: HashMap<u64, u32> = HashMap::with_capacity(MONITORED);
    for &key in population {
        map.insert(key, 0);
    }
    let mut misses = 0u64;
    for &key in keys {
        match map.get_mut(&key) {
            Some(v) => *v += 1,
            None => misses += 1,
        }
    }
    misses
}

fn map_probe_compact(population: &[u64], keys: &[u64]) -> u64 {
    let mut map: CompactMap<u64, u32> = CompactMap::with_capacity(MONITORED);
    for &key in population {
        map.insert(key, 0);
    }
    let mut misses = 0u64;
    for &key in keys {
        match map.get_mut(&key) {
            Some(v) => *v += 1,
            None => misses += 1,
        }
    }
    misses
}

/// The probe workload through the retired byte-at-a-time scan
/// (`probe_reference`), kept `#[doc(hidden)]` exactly so this row can
/// price the scan rewrites in isolation: same table, same keys — only
/// the fingerprint scan differs from the `probe_scan` row below. Both
/// scan rows accumulate the returned *slot index* rather than touching
/// the entry, so they price the scan alone, not how well the caller's
/// value load fuses into it; the `map_probe_compact_map` row above prices
/// the real probe-plus-touch access path.
fn map_probe_compact_byte_scan(population: &[u64], keys: &[u64]) -> u64 {
    let mut map: CompactMap<u64, u32> = CompactMap::with_capacity(MONITORED);
    for &key in population {
        map.insert(key, 0);
    }
    let mut acc = 0u64;
    for &key in keys {
        match map.probe_reference(&key) {
            Ok(slot) => acc += slot as u64,
            Err(_) => acc += 1,
        }
    }
    acc
}

/// The identical workload through the hot-path `probe` (home slot peeled,
/// then a rolled byte loop), priced against the byte loop above.
fn map_probe_compact_probe_scan(population: &[u64], keys: &[u64]) -> u64 {
    let mut map: CompactMap<u64, u32> = CompactMap::with_capacity(MONITORED);
    for &key in population {
        map.insert(key, 0);
    }
    let mut acc = 0u64;
    for &key in keys {
        match map.probe(&key) {
            Ok(slot) => acc += slot as u64,
            Err(_) => acc += 1,
        }
    }
    acc
}

/// The overflow-table access pattern: increment a counter per key; every
/// `churn`-th op removes the key instead (the insert/retire cycle `B`
/// lives under — this is what backward-shift deletion has to survive).
fn map_churn_std(keys: &[u64], churn: usize) -> u64 {
    let mut map: HashMap<u64, u32> = HashMap::new();
    let mut acc = 0u64;
    for (i, &key) in keys.iter().enumerate() {
        if i % churn == 0 {
            if let Some(v) = map.remove(&key) {
                acc += v as u64;
            }
        } else {
            *map.entry(key).or_insert(0) += 1;
        }
        if let Some(v) = map.get(&key) {
            acc += *v as u64;
        }
    }
    acc
}

fn map_churn_compact(keys: &[u64], churn: usize) -> u64 {
    let mut map: CompactMap<u64, u32> = CompactMap::new();
    let mut acc = 0u64;
    for (i, &key) in keys.iter().enumerate() {
        if i % churn == 0 {
            if let Some(v) = map.remove(&key) {
                acc += v as u64;
            }
        } else {
            *map.get_or_insert_with(key, || 0) += 1;
        }
        if let Some(v) = map.get(&key) {
            acc += *v as u64;
        }
    }
    acc
}

fn bench_hot_path(c: &mut Criterion) {
    let keys: Vec<u64> = make_trace(&TracePreset::datacenter(), OPS, 2018)
        .iter()
        .map(Packet::flow)
        .collect();

    let mut group = c.benchmark_group("hot_path");
    group.throughput(Throughput::Elements(OPS as u64));
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    // -- isolated map layer -------------------------------------------------
    let population = monitored_population(&keys);
    group.bench_function("map_probe_std_hashmap", |b| {
        b.iter(|| map_probe_std(&population, &keys))
    });
    group.bench_function("map_probe_compact_map", |b| {
        b.iter(|| map_probe_compact(&population, &keys))
    });
    group.bench_function("map_probe_compact_map_byte_scan", |b| {
        b.iter(|| map_probe_compact_byte_scan(&population, &keys))
    });
    group.bench_function("map_probe_compact_map_probe_scan", |b| {
        b.iter(|| map_probe_compact_probe_scan(&population, &keys))
    });
    group.bench_function("map_churn_std_hashmap", |b| {
        b.iter(|| map_churn_std(&keys, 16))
    });
    group.bench_function("map_churn_compact_map", |b| {
        b.iter(|| map_churn_compact(&keys, 16))
    });
    group.bench_function("map_churn_std_hashmap_delete_heavy", |b| {
        b.iter(|| map_churn_std(&keys, 4))
    });
    group.bench_function("map_churn_compact_map_delete_heavy", |b| {
        b.iter(|| map_churn_compact(&keys, 4))
    });

    // -- the Full update's dominant component -------------------------------
    group.bench_function("space_saving_add_4096", |b| {
        b.iter(|| {
            let mut ss = SpaceSaving::new(4_096);
            for &key in &keys {
                ss.add(key);
            }
            ss.monitored()
        })
    });

    // -- end-to-end estimators over the gate trace --------------------------
    group.bench_function("wcss_update_batch_tau_1", |b| {
        b.iter(|| {
            let mut wcss: Wcss<u64> = Wcss::new(4_096, 50_000);
            for part in keys.chunks(CHUNK) {
                wcss.as_memento_mut().update_batch(part);
            }
            wcss.processed()
        })
    });
    group.bench_function("memento_update_batch_tau_0.25", |b| {
        b.iter(|| {
            let mut memento: Memento<u64> = Memento::new(4_096, 50_000, 0.25, 2018);
            for part in keys.chunks(CHUNK) {
                memento.update_batch(part);
            }
            memento.processed()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_hot_path);
criterion_main!(benches);
