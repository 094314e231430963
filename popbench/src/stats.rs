//! Order statistics for the reported metrics.

/// Fewest samples that must lie strictly beyond a reported p99.
pub const MIN_BEYOND_P99: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// How many of `n` samples lie beyond the nearest-rank p99.
pub fn beyond_p99(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, 99.0)
    }
}

/// Median of integer nanosecond durations, in the given unit scale
/// (`1e3` for µs, `1e6` for ms); 0 when there are none.
pub fn median_ns(durations: &[u64], per_unit: f64) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    let v: Vec<f64> = durations.iter().map(|&d| d as f64 / per_unit).collect();
    median(&v)
}

/// Percentile `p` of nanosecond durations in the given unit; 0 when none.
pub fn percentile_ns(durations: &[u64], p: f64, per_unit: f64) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    let v: Vec<f64> = durations.iter().map(|&d| d as f64 / per_unit).collect();
    percentile(&v, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(median(&v), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(beyond_p99(1000), 10);
        assert_eq!(beyond_p99(999), 9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
