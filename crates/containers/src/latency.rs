//! Latency profiles: the measured batch-size→latency curves of Figure 3.
//!
//! The paper observes "a stable linear relationship between batch size and
//! latency across several of the modeling frameworks" (§4.3.1) — the basis
//! for both the AIMD and quantile-regression batching strategies. A
//! [`LatencyProfile`] is that linear model plus multiplicative noise.

use rand::prelude::*;
use std::time::{Duration, Instant};

/// A linear batch-latency model: `latency(b) = base + per_item · b`,
/// times `(1 ± jitter)`.
#[derive(Clone, Debug)]
pub struct LatencyProfile {
    /// Fixed per-batch cost (RPC dispatch, interpreter overhead, ...).
    pub base: Duration,
    /// Marginal cost per input in the batch.
    pub per_item: Duration,
    /// Multiplicative noise fraction; 0.05 = ±5% uniform.
    pub jitter_frac: f64,
}

impl LatencyProfile {
    /// A profile with no noise.
    pub fn deterministic(base: Duration, per_item: Duration) -> Self {
        LatencyProfile {
            base,
            per_item,
            jitter_frac: 0.0,
        }
    }

    /// A profile with ±`jitter_frac` uniform noise.
    pub fn with_jitter(mut self, jitter_frac: f64) -> Self {
        self.jitter_frac = jitter_frac;
        self
    }

    /// Expected latency for a batch of `n` (no noise).
    fn expected(&self, n: usize) -> Duration {
        self.base + self.per_item.mul_f64(n as f64)
    }

    /// Sampled latency for a batch of `n`.
    pub(crate) fn sample(&self, n: usize, rng: &mut StdRng) -> Duration {
        let mean = self.expected(n);
        if self.jitter_frac <= 0.0 {
            return mean;
        }
        let factor = 1.0 + self.jitter_frac * (rng.random::<f64>() * 2.0 - 1.0);
        mean.mul_f64(factor.max(0.0))
    }
}

/// Sleep for `target` with sub-millisecond accuracy.
///
/// OS sleeps are only accurate to ~100µs; latency profiles in the tens of
/// microseconds (the linear SVM) need better. Sleep coarse, then spin the
/// remainder. Must be called from a blocking context (container worker
/// threads), never from the async reactor.
pub(crate) fn precise_sleep(target: Duration) {
    let start = Instant::now();
    const SPIN_WINDOW: Duration = Duration::from_micros(200);
    if target > SPIN_WINDOW {
        std::thread::sleep(target - SPIN_WINDOW);
    }
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_is_linear() {
        let p = LatencyProfile::deterministic(Duration::from_millis(1), Duration::from_micros(20));
        assert_eq!(p.expected(0), Duration::from_millis(1));
        assert_eq!(p.expected(100), Duration::from_millis(3));
    }

    #[test]
    fn sample_without_jitter_is_expected() {
        let p = LatencyProfile::deterministic(Duration::from_millis(2), Duration::from_micros(10));
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(p.sample(50, &mut rng), p.expected(50));
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let p = LatencyProfile::deterministic(Duration::from_millis(10), Duration::ZERO)
            .with_jitter(0.1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let s = p.sample(1, &mut rng);
            assert!(s >= Duration::from_millis(9) && s <= Duration::from_millis(11));
        }
    }

    #[test]
    fn precise_sleep_hits_target() {
        for target_us in [100u64, 500, 2_000] {
            let target = Duration::from_micros(target_us);
            let start = Instant::now();
            precise_sleep(target);
            let actual = start.elapsed();
            assert!(actual >= target, "slept {actual:?} < target {target:?}");
            // Allow generous upper slack on a shared machine.
            assert!(
                actual < target + Duration::from_millis(5),
                "slept {actual:?}, way past {target:?}"
            );
        }
    }
}
