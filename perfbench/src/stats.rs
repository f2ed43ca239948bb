//! Order statistics and aggregation rules shared by every workload.

/// Samples that must lie beyond a reported percentile: a tail percentile
/// resting on fewer samples is reported as unknown, never estimated.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p < 100) of latency samples, where
/// `None` marks a request that missed every latency limit (rejected,
/// failed or timed out) and therefore sorts above every measured sample.
///
/// Returns `None` unless at least [`MIN_TAIL_SAMPLES`] samples lie beyond
/// the percentile's rank (so p95 needs 200 samples), or when the rank
/// lands on a missed request.
pub fn percentile(samples: &[Option<f64>], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = rank(n, p);
    if rank == 0 || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut v: Vec<f64> = samples.iter().map(|s| s.unwrap_or(f64::INFINITY)).collect();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1]).filter(|x| x.is_finite())
}

/// 1-based nearest rank of percentile `p` among `n` samples, clamped to
/// `n`. The epsilon keeps decimal percentiles such as 99.9 from rounding
/// up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-6).ceil().max(0.0) as usize).min(n)
}

/// The highest of the usual reporting percentiles that `n` samples
/// support under the [`MIN_TAIL_SAMPLES`] rule.
pub fn highest_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| rank(n, p) > 0 && n - rank(n, p) >= MIN_TAIL_SAMPLES)
}

/// Geometric mean of strictly positive values, so that each design weighs
/// equally whatever its size; `None` when empty or any value is not
/// positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(n: usize) -> Vec<Option<f64>> {
        (1..=n).map(|i| Some(i as f64)).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(percentile(&measured(199), 95.0), None);
        // Rank 190 of 200 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&measured(200), 95.0), Some(190.0));
        assert_eq!(percentile(&measured(1000), 95.0), Some(950.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(percentile(&measured(19), 50.0), None);
        assert_eq!(percentile(&measured(20), 50.0), Some(10.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(199), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn missed_requests_sort_above_every_measurement() {
        let mut s = measured(200);
        // Ten misses fill the tail: p95 still lands on a measurement.
        for x in s.iter_mut().take(10) {
            *x = None;
        }
        assert_eq!(percentile(&s, 95.0), Some(200.0));
        // Eleven misses push p95 onto a miss: no latency meets the limit.
        s[10] = None;
        assert_eq!(percentile(&s, 95.0), None);
        assert!(percentile(&s, 50.0).is_some());
    }

    #[test]
    fn geomean_weighs_designs_equally() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        // Scaling one design scales the mean by its root, whatever its size.
        let a = geomean(&[2.0, 8.0, 4.0]).unwrap();
        let b = geomean(&[2.0, 8.0, 8.0]).unwrap();
        assert!((b / a - 2f64.powf(1.0 / 3.0)).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }
}
