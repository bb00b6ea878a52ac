//! The AIMD batch-size controller (§4.3.1).
//!
//! Additively increase the maximum batch size while batches complete
//! inside the latency objective; on a violation, back off
//! multiplicatively — but only by 10%, far gentler than TCP's halving,
//! because "the optimal batch size does not fluctuate substantially".

use super::BatchController;
use std::time::Duration;

/// Additive-increase / multiplicative-decrease controller.
#[derive(Clone, Debug)]
pub struct AimdController {
    slo: Duration,
    step: f64,
    backoff: f64,
    cap: usize,
    current: f64,
}

impl AimdController {
    /// Create a controller targeting `slo`. `step` is the additive
    /// increment, `backoff` the multiplicative factor on violation
    /// (paper default 0.9), `cap` a hard upper bound.
    pub fn new(slo: Duration, step: f64, backoff: f64, cap: usize) -> Self {
        assert!(step > 0.0, "step must be positive");
        assert!(
            (0.0..1.0).contains(&backoff),
            "backoff must be in (0, 1), got {backoff}"
        );
        AimdController {
            slo,
            step,
            backoff,
            cap: cap.max(1),
            current: 1.0,
        }
    }

    /// The paper's default parameters (+2 / ×0.9).
    pub(crate) fn with_defaults(slo: Duration) -> Self {
        Self::new(slo, 2.0, 0.9, 4096)
    }
}

impl BatchController for AimdController {
    fn max_batch(&self) -> usize {
        (self.current.floor() as usize).clamp(1, self.cap)
    }

    fn record(&mut self, batch_size: usize, latency: Duration) {
        if latency > self.slo {
            // Violation: multiplicative decrease.
            self.current = (self.current * self.backoff).max(1.0);
        } else if batch_size >= self.max_batch() {
            // The batch actually probed the current limit and met the SLO:
            // additive increase. (Under-full batches teach us nothing about
            // the limit.)
            self.current = (self.current + self.step).min(self.cap as f64);
        }
    }

    fn name(&self) -> &'static str {
        "aimd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn grows_additively_while_meeting_slo() {
        let mut c = AimdController::new(ms(20), 2.0, 0.9, 4096);
        assert_eq!(c.max_batch(), 1);
        c.record(1, ms(1));
        assert_eq!(c.max_batch(), 3);
        c.record(3, ms(2));
        assert_eq!(c.max_batch(), 5);
    }

    #[test]
    fn backs_off_multiplicatively_on_violation() {
        let mut c = AimdController::new(ms(20), 2.0, 0.9, 4096);
        for _ in 0..50 {
            let b = c.max_batch();
            c.record(b, ms(1));
        }
        let before = c.max_batch();
        c.record(before, ms(25)); // violation
        let after = c.max_batch();
        assert!(
            (after as f64) <= (before as f64) * 0.9 + 1.0,
            "expected ~10% backoff: {before} -> {after}"
        );
        assert!(after >= 1);
    }

    #[test]
    fn underfull_batches_do_not_grow_the_limit() {
        let mut c = AimdController::new(ms(20), 2.0, 0.9, 4096);
        c.record(1, ms(1)); // probes limit (1) -> grows to 3
        let grown = c.max_batch();
        c.record(1, ms(1)); // under-full now -> no growth
        assert_eq!(c.max_batch(), grown);
    }

    #[test]
    fn converges_near_the_latency_knee() {
        // Simulated container: latency = 1ms + 20µs/item. SLO 20ms.
        // Optimal batch = (20ms - 1ms) / 20µs = 950.
        let slo = ms(20);
        let mut c = AimdController::new(slo, 2.0, 0.9, 4096);
        let latency_of = |b: usize| Duration::from_micros(1_000 + 20 * b as u64);
        for _ in 0..2_000 {
            let b = c.max_batch();
            c.record(b, latency_of(b));
        }
        let b = c.max_batch();
        assert!(
            (800..=1000).contains(&b),
            "converged batch {b}, expected ≈950"
        );
        // And it oscillates within a stable band thereafter.
        let mut min_b = usize::MAX;
        let mut max_b = 0;
        for _ in 0..500 {
            let b = c.max_batch();
            c.record(b, latency_of(b));
            min_b = min_b.min(b);
            max_b = max_b.max(b);
        }
        assert!(
            max_b - min_b < 200,
            "post-convergence band too wide: {min_b}..{max_b}"
        );
    }

    #[test]
    fn never_exceeds_cap_or_drops_below_one() {
        let mut c = AimdController::new(ms(20), 100.0, 0.5, 64);
        for _ in 0..100 {
            let b = c.max_batch();
            c.record(b, ms(1));
        }
        assert_eq!(c.max_batch(), 64);
        for _ in 0..100 {
            let b = c.max_batch();
            c.record(b, ms(100));
        }
        assert_eq!(c.max_batch(), 1);
    }

    #[test]
    #[should_panic(expected = "backoff must be in")]
    fn invalid_backoff_panics() {
        AimdController::new(ms(20), 1.0, 1.5, 10);
    }

    #[test]
    fn recovers_after_transient_slowdown() {
        // A garbage-collection-pause-style event: latency spikes for a few
        // batches, then recovers; the controller should climb back.
        let slo = ms(20);
        let mut c = AimdController::new(slo, 2.0, 0.9, 4096);
        let fast = |b: usize| Duration::from_micros(1_000 + 15 * b as u64);
        for _ in 0..1_500 {
            let b = c.max_batch();
            c.record(b, fast(b));
        }
        let steady = c.max_batch();
        for _ in 0..10 {
            let b = c.max_batch();
            c.record(b, ms(40)); // pause
        }
        let dipped = c.max_batch();
        assert!(dipped < steady);
        for _ in 0..1_500 {
            let b = c.max_batch();
            c.record(b, fast(b));
        }
        let recovered = c.max_batch();
        assert!(
            recovered as f64 >= steady as f64 * 0.9,
            "recovered {recovered} vs steady {steady}"
        );
    }
}
