//! The harness's own arithmetic: exact percentiles and the
//! median-of-segments that makes a timing robust to a stalled box.

/// Exact nearest-rank percentile of an ascending slice: the smallest
/// value with at least `q` of the samples at or below it. 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, taking the lower of the two middle values of an even
/// count.
pub fn lower_median(values: &[f64]) -> f64 {
    nth_sorted(values, |n| (n - 1) / 2)
}

/// The first quartile of a timing across the segments of a run. Whatever
/// else the box is doing only ever makes a segment slower, so the noise is
/// one-sided, and on this box it comes in bursts of seconds that can cover
/// half a run: the quarter of the segments on the quiet side is what the
/// program does when it is left alone.
pub fn quiet_low(values: &[f64]) -> f64 {
    nth_sorted(values, |n| (n - 1) / 4)
}

/// The third quartile: `quiet_low` for rates, whose noise points down.
pub fn quiet_high(values: &[f64]) -> f64 {
    nth_sorted(values, |n| n - 1 - (n - 1) / 4)
}

fn nth_sorted(values: &[f64], index: impl Fn(usize) -> usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[index(v.len())]
}

/// The highest of p99, p99.9, p99.99 that still has at least ten samples
/// beyond it (p50 when even p99 has not).
pub fn highest_supported_quantile(samples: usize) -> f64 {
    [0.9999, 0.999, 0.99]
        .into_iter()
        .find(|q| samples as f64 * (1.0 - q) >= 10.0)
        .unwrap_or(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.51), 3);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn segment_statistics_take_the_stated_side() {
        assert_eq!(lower_median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(lower_median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(lower_median(&[]), 0.0);
        let segments: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quiet_low(&segments), 3.0);
        assert_eq!(quiet_high(&segments), 7.0);
        assert_eq!(quiet_low(&[2.0]), 2.0);
        assert_eq!(quiet_high(&[2.0]), 2.0);
        // Half the run under a noisy neighbour moves neither.
        let noisy = [1.0, 1.1, 0.9, 1.0, 1.05, 7.0, 9.0, 8.0];
        assert_eq!(quiet_low(&noisy), 1.0);
        let rates = [100.0, 98.0, 101.0, 99.0, 40.0, 30.0, 35.0, 100.0];
        assert_eq!(quiet_high(&rates), 100.0);
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_quantile(999), 0.5);
        assert_eq!(highest_supported_quantile(1_000), 0.99);
        assert_eq!(highest_supported_quantile(10_000), 0.999);
        assert_eq!(highest_supported_quantile(1_000_000), 0.9999);
    }
}
