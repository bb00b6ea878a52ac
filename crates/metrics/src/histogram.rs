//! Log-bucketed histogram with quantile estimation.
//!
//! The recorder follows the HDR-histogram idea: values are bucketed by
//! (exponent, mantissa-slice) so relative error is bounded (< 1/32 here)
//! while insertion stays O(1): four relaxed atomic read-modify-writes
//! (bucket, sum, max, min). The sample count is not stored; a snapshot
//! sums the buckets. This is the structure behind every latency figure in
//! the paper reproduction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of linear sub-buckets per power of two. 32 sub-buckets bound the
/// relative quantile error at ~3%, plenty for P99 comparisons.
const SUB_BUCKETS: usize = 32;
const SUB_BUCKET_BITS: u32 = 5;
/// 2^44 µs ≈ 200 days; anything above saturates into the last bucket.
const MAX_EXPONENT: usize = 44;
const BUCKET_COUNT: usize = (MAX_EXPONENT + 1) * SUB_BUCKETS;

/// A concurrent, log-bucketed histogram of `u64` samples (microseconds by
/// convention).
///
/// Cloning shares the recorder. Recording is wait-free; snapshots are a
/// consistent-enough read of all buckets (individual bucket reads are
/// atomic; cross-bucket skew during concurrent recording is acceptable for
/// telemetry).
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<Inner>,
}

struct Inner {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        let buckets = (0..BUCKET_COUNT)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Histogram {
            inner: Arc::new(Inner {
                buckets,
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// Bucket index for a value: 5 mantissa bits below the leading bit.
    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            // Values 0..32 map to exponent-0 linear buckets exactly.
            return value as usize;
        }
        let exponent = 63 - value.leading_zeros(); // >= SUB_BUCKET_BITS
        let shift = exponent - SUB_BUCKET_BITS;
        let mantissa = ((value >> shift) & (SUB_BUCKETS as u64 - 1)) as usize;
        let exp_slot = (exponent - SUB_BUCKET_BITS + 1) as usize;
        let slot = exp_slot.min(MAX_EXPONENT);
        slot * SUB_BUCKETS + mantissa
    }

    /// Representative (upper-edge) value for a bucket index, used when
    /// reading quantiles back out.
    fn value_of(index: usize) -> u64 {
        let slot = index / SUB_BUCKETS;
        let mantissa = (index % SUB_BUCKETS) as u64;
        if slot == 0 {
            return mantissa;
        }
        let exponent = slot as u32 + SUB_BUCKET_BITS - 1;
        let base = 1u64 << exponent;
        let step = 1u64 << (exponent - SUB_BUCKET_BITS);
        base + mantissa * step + (step - 1)
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        let idx = Self::index_of(value);
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
        self.inner.max.fetch_max(value, Ordering::Relaxed);
        self.inner.min.fetch_min(value, Ordering::Relaxed);
    }

    /// Take an immutable snapshot for quantile queries and reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.inner.sum.load(Ordering::Relaxed),
            max: self.inner.max.load(Ordering::Relaxed),
            min: self.inner.min.load(Ordering::Relaxed),
        }
    }

    /// Clear all samples (used between experiment phases).
    pub fn reset(&self) {
        for b in self.inner.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.inner.sum.store(0, Ordering::Relaxed);
        self.inner.max.store(0, Ordering::Relaxed);
        self.inner.min.store(u64::MAX, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Histogram`], supporting quantile queries.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
    min: u64,
}

impl HistogramSnapshot {
    /// Number of samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact maximum recorded value (not bucket-rounded).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded value (not bucket-rounded).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Value at quantile `q` in [0, 1]. Returns 0 for an empty snapshot.
    ///
    /// The result is the upper edge of the bucket containing the q-th
    /// sample, clamped to the exact observed max, so `quantile(1.0) == max`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::value_of(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile — the tail-latency bound the paper reports everywhere.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.min(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 32);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 31);
        assert_eq!(s.quantile(0.0), 0);
        // The 16th sample (rank ceil(0.5*32)=16) is value 15.
        assert_eq!(s.p50(), 15);
    }

    #[test]
    fn quantiles_bounded_relative_error() {
        let h = Histogram::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut vals: Vec<u64> = (0..50_000)
            .map(|_| rng.random_range(1..2_000_000))
            .collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        let s = h.snapshot();
        for &q in &[0.5, 0.9, 0.95, 0.99, 0.999] {
            let exact = vals[((q * vals.len() as f64).ceil() as usize - 1).min(vals.len() - 1)];
            let est = s.quantile(q);
            let rel = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(rel < 0.05, "q={q}: est={est} exact={exact} rel={rel}");
        }
    }

    #[test]
    fn max_and_min_are_exact() {
        let h = Histogram::new();
        h.record(12_345);
        h.record(999_999);
        h.record(17);
        let s = h.snapshot();
        assert_eq!(s.max(), 999_999);
        assert_eq!(s.min(), 17);
        assert_eq!(s.quantile(1.0), 999_999);
    }

    #[test]
    fn mean_matches_sum_over_count() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.sum(), 100);
        assert!((s.mean() - 25.0).abs() < f64::EPSILON);
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record(1000);
        h.reset();
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p99(), 0);
    }

    #[test]
    fn huge_values_saturate_without_panic() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.max(), u64::MAX);
    }

    #[test]
    fn concurrent_recording_counts_all_samples() {
        let h = Histogram::new();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..25_000u64 {
                        h.record(i * (t + 1));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 100_000);
    }

    #[test]
    fn index_value_roundtrip_is_monotone() {
        let mut last = 0usize;
        for v in (0..1_000_000u64).step_by(997) {
            let idx = Histogram::index_of(v);
            assert!(idx >= last || idx == last, "index must be non-decreasing");
            assert!(
                Histogram::value_of(idx) >= v,
                "bucket upper edge covers value"
            );
            last = idx;
        }
    }
}
