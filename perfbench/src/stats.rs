//! Order statistics used by every workload: the tail percentile rule, the
//! slice-median throughput, and quartile spreads.

/// The percentiles [`tail_percentile`] may pick, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The 1-based nearest rank of percentile `p` (in percent) among `n`
/// samples. The product is rounded to 1e-9 first, so that p99.9 of 10 000
/// samples is rank 9990 and not 9991.
fn rank(n: usize, p: f64) -> usize {
    let exact = (p / 100.0) * n as f64;
    ((exact * 1e9).round() / 1e9)
        .ceil()
        .clamp(1.0, n.max(1) as f64) as usize
}

/// Nearest-rank percentile `p` (in percent) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile of [`TAIL_LADDER`] at or below `cap` that has at
/// least ten samples beyond it, with its value; `None` when even the
/// median lacks ten samples beyond it.
pub fn tail_percentile(sorted: &[f64], cap: f64) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| beyond(sorted.len(), p) >= 10)
        .map(|p| (p, percentile(sorted, p)))
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Throughput of a replay in million items per second, from the time of
/// each of its fixed-size slices in nanoseconds.
pub fn replay_rate(items_per_slice: usize, slice_nanos: &[u64]) -> f64 {
    let total: u64 = slice_nanos.iter().sum();
    (slice_nanos.len() * items_per_slice) as f64 * 1e3 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_picks_the_highest_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(&v, 100.0), Some((99.0, 990.0)));
        // 999 samples: p99 leaves 9 beyond, so p95 (49 beyond) is picked.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 100.0).map(|t| t.0), Some(95.0));
        // 10 000 samples reach p99.9, unless capped at p99.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 100.0).map(|t| t.0), Some(99.9));
        assert_eq!(tail_percentile(&v, 99.0).map(|t| t.0), Some(99.0));
        // Fewer than 20 samples: not even the median qualifies.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 100.0), None);
    }

    #[test]
    fn slice_arithmetic() {
        // 1000 items per slice in 1, 2 and 5 µs: 3000 items in 8 µs.
        assert_eq!(replay_rate(1000, &[1_000, 2_000, 5_000]), 375.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
