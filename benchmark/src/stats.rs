//! Exact order statistics over raw samples — no buckets, so a 1 %
//! shift in a median reads as 1 %.

/// A percentile is refused unless at least this many samples lie beyond
/// it: with fewer, the value is set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `sorted`: the sample
/// at rank `ceil(p * n)`. `None` when fewer than [`MIN_BEYOND`] samples
/// lie above that rank.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    // The epsilon keeps a product such as 0.99 * 1000 that lands a hair
    // above an integer from being rounded up a whole rank.
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    if rank == 0 || sorted.len() < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Nanosecond samples → the `p`-quantile in milliseconds.
pub fn percentile_ms(sorted_ns: &[u64], p: f64) -> Option<f64> {
    percentile(sorted_ns, p).map(|ns| ns as f64 / 1e6)
}

/// Median of a small set of measurements (set-up times, rung medians).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` does (the exclusive
/// method) — the rule the benchmark contract judges spread by.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..=3) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_order_statistics() {
        // 1..=2000: the p-quantile by nearest rank is ceil(p * 2000).
        let samples: Vec<u64> = (1..=2000).collect();
        assert_eq!(percentile(&samples, 0.5), Some(1000));
        assert_eq!(percentile(&samples, 0.9), Some(1800));
        assert_eq!(percentile(&samples, 0.99), Some(1980));
        // Not interpolated and not bucketed: a skewed tail comes back
        // as the sample itself.
        let mut skewed: Vec<u64> = vec![7; 985];
        skewed.extend([1_000_003; 15]);
        assert_eq!(percentile(&skewed, 0.5), Some(7));
        assert_eq!(percentile(&skewed, 0.99), Some(1_000_003));
    }

    #[test]
    fn a_percentile_without_ten_samples_beyond_it_is_refused() {
        let samples: Vec<u64> = (1..=1000).collect();
        // rank ceil(0.99 * 1000) = 990 leaves exactly 10 beyond.
        assert_eq!(percentile(&samples, 0.99), Some(990));
        assert_eq!(percentile(&samples[..999], 0.99), None);
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(percentile(&samples[..20], 0.5), Some(10));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
