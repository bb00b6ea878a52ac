//! Online quantile-regression batch-size controller (§4.3.1).
//!
//! The paper's measurements showed batch latency is nearly linear in batch
//! size, so it "explored the use of quantile regression to estimate the
//! 99th-percentile latency as a function of batch size and set the maximum
//! batch size accordingly". This controller keeps a sliding window of
//! `(batch, latency)` observations and periodically refits
//!
//! ```text
//! P99latency(b) ≈ α + β · b
//! ```
//!
//! as ordinary least squares inflated by the 99th percentile of window
//! residuals (an upper regression line), then proposes
//! `max_batch = (SLO − α) / β`. Growth is limited to 2× the largest batch
//! actually observed, so the controller explores upward instead of
//! trusting wild extrapolation.

use super::BatchController;
use std::collections::VecDeque;
use std::time::Duration;

/// Observations kept in the sliding window.
const WINDOW: usize = 512;
/// Refit every this many observations.
const REFIT_EVERY: u64 = 16;

/// Windowed P99-latency regression controller.
#[derive(Clone, Debug)]
pub struct QuantileController {
    slo_us: f64,
    cap: usize,
    window: VecDeque<(f64, f64)>, // (batch, latency µs)
    observations: u64,
    /// Current intercept (µs) of the P99 line.
    alpha: f64,
    /// Current slope (µs/item) of the P99 line.
    beta: f64,
    current_max: usize,
}

impl QuantileController {
    /// Create a controller targeting `slo` with max batch `cap`.
    pub fn new(slo: Duration, cap: usize) -> Self {
        let slo_us = slo.as_micros() as f64;
        QuantileController {
            slo_us,
            cap: cap.max(1),
            window: VecDeque::with_capacity(WINDOW),
            observations: 0,
            alpha: 0.0,
            // Conservative initial model: the whole budget fits 4 items.
            beta: slo_us / 4.0,
            current_max: 4,
        }
    }

    fn refit(&mut self) {
        let n = self.window.len();
        if n < 4 {
            return;
        }
        // Ordinary least squares over the window.
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0f64, 0.0, 0.0, 0.0);
        for &(x, y) in &self.window {
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        let nf = n as f64;
        let denom = nf * sxx - sx * sx;
        let (a, b) = if denom.abs() < 1e-9 {
            // All batches the same size: flat line through the mean.
            (sy / nf, 0.0)
        } else {
            let b = (nf * sxy - sx * sy) / denom;
            let a = (sy - b * sx) / nf;
            (a, b)
        };
        // Inflate to the 99th percentile of residuals: an upper line that
        // ~99% of observations sit below.
        let mut residuals: Vec<f64> = self.window.iter().map(|&(x, y)| y - (a + b * x)).collect();
        residuals.sort_by(|p, q| p.partial_cmp(q).unwrap_or(std::cmp::Ordering::Equal));
        let idx = ((0.99 * (n as f64 - 1.0)).round() as usize).min(n - 1);
        let p99_resid = residuals[idx].max(0.0);

        self.alpha = (a + p99_resid).max(0.0);
        self.beta = b.max(1e-3); // latency can't improve with batch size
        let target = (self.slo_us - self.alpha) / self.beta;

        // Explore upward gradually: at most 2× the largest observed batch.
        let max_seen = self.window.iter().map(|&(x, _)| x).fold(1.0f64, f64::max);
        let limited = target.min(max_seen * 2.0).max(1.0);
        self.current_max = (limited.floor() as usize).clamp(1, self.cap);
    }
}

impl BatchController for QuantileController {
    fn max_batch(&self) -> usize {
        self.current_max
    }

    fn record(&mut self, batch_size: usize, latency: Duration) {
        if self.window.len() == WINDOW {
            self.window.pop_front();
        }
        self.window
            .push_back((batch_size as f64, latency.as_micros() as f64));
        self.observations += 1;
        if self.observations.is_multiple_of(REFIT_EVERY) {
            self.refit();
        }
    }

    fn name(&self) -> &'static str {
        "quantile"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The controller's current model estimate `(α µs, β µs/item)`.
    fn estimate(c: &QuantileController) -> (f64, f64) {
        (c.alpha, c.beta)
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn starts_conservative() {
        let c = QuantileController::new(ms(20), 4096);
        let b = c.max_batch();
        assert!((1..=64).contains(&b), "initial batch {b} should be small");
    }

    #[test]
    fn converges_to_linear_container_knee() {
        // Container: latency = 1ms + 20µs/item. SLO 20ms → knee at
        // (20000-1000)/20 = 950.
        let mut c = QuantileController::new(ms(20), 4096);
        for _ in 0..2_000 {
            let b = c.max_batch();
            let lat = Duration::from_micros(1_000 + 20 * b as u64);
            c.record(b, lat);
        }
        let b = c.max_batch();
        assert!(
            (800..=1000).contains(&b),
            "converged batch {b}, expected ≈950 (est {:?})",
            estimate(&c)
        );
    }

    #[test]
    fn estimate_tracks_true_slope() {
        let mut c = QuantileController::new(ms(20), 4096);
        for _ in 0..2_000 {
            let b = c.max_batch();
            let lat = Duration::from_micros(2_000 + 50 * b as u64);
            c.record(b, lat);
        }
        let (_, slope) = estimate(&c);
        assert!(
            (40.0..=60.0).contains(&slope),
            "learned slope {slope} µs/item, true 50"
        );
    }

    #[test]
    fn expensive_models_get_tiny_batches() {
        // Kernel-SVM-like: 3.3ms/item. SLO 20ms → knee ≈ 5.
        let mut c = QuantileController::new(ms(20), 4096);
        for _ in 0..2_000 {
            let b = c.max_batch();
            let lat = Duration::from_micros(800 + 3_300 * b as u64);
            c.record(b, lat);
        }
        let b = c.max_batch();
        assert!((2..=10).contains(&b), "batch {b}, expected ≈5");
    }

    #[test]
    fn respects_cap() {
        let mut c = QuantileController::new(ms(20), 128);
        for _ in 0..2_000 {
            let b = c.max_batch();
            c.record(b, Duration::from_micros(100 + b as u64));
        }
        assert_eq!(c.max_batch(), 128);
    }

    #[test]
    fn growth_is_limited_to_double_observed() {
        let mut c = QuantileController::new(ms(1000), 4096); // huge SLO
                                                             // Even with a generous SLO, one refit can at most double the
                                                             // explored batch size.
        for _ in 0..REFIT_EVERY {
            c.record(4, Duration::from_micros(100));
        }
        assert!(
            c.max_batch() <= 8,
            "after one refit at batch 4, limit is ≤8, got {}",
            c.max_batch()
        );
    }

    #[test]
    fn p99_line_sits_above_the_median() {
        // Latency = 5ms + 10µs/item, with 1-in-50 batches spiking 3×. The
        // fitted line should absorb the spikes into α.
        let mut c = QuantileController::new(ms(40), 4096);
        for i in 0..5_000u64 {
            let b = c.max_batch();
            let base = 5_000 + 10 * b as u64;
            let lat = if i.is_multiple_of(50) { base * 3 } else { base };
            c.record(b, Duration::from_micros(lat));
        }
        let b = c.max_batch();
        let pred = c.alpha + c.beta * b as f64;
        let median = 5_000.0 + 10.0 * b as f64;
        assert!(
            pred > median * 1.5,
            "P99 estimate {pred:.0}µs should sit well above the median {median:.0}µs"
        );
        // And the proposed batch keeps even spiky batches near the SLO:
        // 3×(5ms + 10µs·b) ≤ ~40ms → b ≲ 830.
        assert!(b <= 900, "batch {b} ignores the spikes");
    }

    #[test]
    fn adapts_downward_when_container_slows() {
        let mut c = QuantileController::new(ms(20), 4096);
        for _ in 0..1_000 {
            let b = c.max_batch();
            c.record(b, Duration::from_micros(500 + 15 * b as u64));
        }
        let fast = c.max_batch();
        // Container slows 4× (e.g. contention).
        for _ in 0..1_000 {
            let b = c.max_batch();
            c.record(b, Duration::from_micros(500 + 60 * b as u64));
        }
        let slow = c.max_batch();
        assert!(
            slow < fast / 2,
            "limit should shrink when the container slows: {fast} -> {slow}"
        );
    }
}
