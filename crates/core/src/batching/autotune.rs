//! The autotuning batch controller: a learned ceiling over AIMD.
//!
//! Where [`AimdController`] *probes* for the
//! latency knee (§4.3.1), this controller *computes* it from the
//! replica's online [`LatencyModel`]: the ceiling is
//! continuously re-derived as `b_max = largest b with α + β·b ≤
//! SLO − headroom`. A slow replica in a heterogeneous fleet therefore
//! gets its own, smaller ceiling instead of the fleet-wide knob — the
//! §4.4.1 gap this closes.
//!
//! Until the model is established (no prior, not enough batch-size
//! spread), the embedded AIMD controller governs, so cold start behaves
//! exactly like the paper's default.

use super::{AimdController, BatchController, LatencyModel};
use std::sync::Arc;
use std::time::Duration;

/// Fraction of the SLO reserved as headroom by default: the ceiling
/// targets `0.9 × SLO` so queueing and RPC jitter don't turn every
/// full batch into a violation.
pub(crate) const DEFAULT_HEADROOM: f64 = 0.1;

/// Model-driven batch ceiling with AIMD cold-start fallback.
pub(crate) struct AutotuneController {
    aimd: AimdController,
    model: Arc<LatencyModel>,
    /// `SLO − headroom`: the budget the curve is inverted against.
    budget: Duration,
    cap: usize,
}

impl AutotuneController {
    /// Create a controller targeting `slo` with `headroom` (a fraction
    /// of the SLO, clamped to `[0, 0.9]`) held back, reading — not
    /// owning — the replica's shared latency model.
    pub(crate) fn new(slo: Duration, headroom: f64, model: Arc<LatencyModel>, cap: usize) -> Self {
        let headroom = if headroom.is_finite() {
            headroom.clamp(0.0, 0.9)
        } else {
            DEFAULT_HEADROOM
        };
        let budget = slo.mul_f64(1.0 - headroom);
        AutotuneController {
            aimd: AimdController::with_defaults(slo),
            model,
            budget,
            cap: cap.max(1),
        }
    }

    /// The learned ceiling, if the model is established.
    pub(crate) fn learned_max_batch(&self) -> Option<usize> {
        self.model
            .max_batch_for(self.budget)
            .map(|b| b.clamp(1, self.cap))
    }
}

impl BatchController for AutotuneController {
    fn max_batch(&self) -> usize {
        match self.learned_max_batch() {
            Some(b) => b,
            None => self.aimd.max_batch().min(self.cap),
        }
    }

    fn record(&mut self, batch_size: usize, latency: Duration) {
        // The queue feeds the shared model once per batch; here we only
        // keep the AIMD fallback warm so losing the model (e.g. a long
        // idle period followed by drift) degrades gracefully.
        self.aimd.record(batch_size, latency);
    }

    fn name(&self) -> &'static str {
        "autotune"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::LatencyPrior;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn falls_back_to_aimd_until_established() {
        let model = Arc::new(LatencyModel::new());
        let mut c = AutotuneController::new(Duration::from_millis(20), 0.1, model, 4096);
        assert_eq!(c.max_batch(), 1); // AIMD cold start
        c.record(1, us(100));
        assert!(c.max_batch() > 1, "AIMD growth governs before the model");
    }

    #[test]
    fn learned_ceiling_replaces_aimd_once_established() {
        let model = Arc::new(LatencyModel::new());
        let c = AutotuneController::new(Duration::from_millis(20), 0.1, model.clone(), 4096);
        // Feed the shared model a 5ms/item curve, as the queue would.
        for round in 0..10 {
            for b in 1..=4usize {
                let _ = round;
                model.observe(b, us(100 + 5_000 * b as u64));
            }
        }
        // budget = 18ms → b_max ≈ (18000 − α)/5000 ≈ 3.
        let b = c.max_batch();
        assert!((2..=4).contains(&b), "learned ceiling {b}, expected ≈3");
    }

    #[test]
    fn prior_warm_start_skips_the_probe_phase() {
        let prior = LatencyPrior {
            alpha_us: 1_000.0,
            beta_us: 20.0,
        };
        let model = Arc::new(LatencyModel::with_prior(prior));
        let c = AutotuneController::new(Duration::from_millis(20), 0.1, model, 4096);
        // (18000 − 1000) / 20 = 850 — immediately, no AIMD climb.
        let b = c.max_batch();
        assert!((800..=900).contains(&b), "warm-started ceiling {b}");
    }

    #[test]
    fn ceiling_respects_the_cap_and_the_floor() {
        let fast = Arc::new(LatencyModel::with_prior(LatencyPrior {
            alpha_us: 0.0,
            beta_us: 1.0,
        }));
        let c = AutotuneController::new(Duration::from_millis(20), 0.1, fast, 64);
        assert_eq!(c.max_batch(), 64);

        let slow = Arc::new(LatencyModel::with_prior(LatencyPrior {
            alpha_us: 100_000.0,
            beta_us: 1_000.0,
        }));
        let c = AutotuneController::new(Duration::from_millis(20), 0.1, slow, 64);
        assert_eq!(c.max_batch(), 1);
    }
}
