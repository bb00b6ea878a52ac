//! Online per-replica latency model (§4.4.1).
//!
//! Clipper sizes batches from an offline-profiled latency curve; we fit
//! the same linear curve `latency(b) ≈ α + β·b` **online and
//! per-replica**, from the `(batch_size, service_time)` observations the
//! queue already produces for every dispatched batch. The fit is
//! a streaming least-squares over exponentially-forgotten moments, so a
//! replica that slows down (thermal throttling, a noisy neighbor, a
//! bigger model version) re-learns its curve within a few dozen batches.
//!
//! It is the replica's only service-time estimate; every consumer keys
//! off the same curve:
//!
//! - [`AutotuneController`](super::AutotuneController) inverts it against
//!   the SLO (`b_max` = largest `b` with `α + β·b ≤ SLO − headroom`),
//!   continuously re-deriving the per-replica batch ceiling;
//! - the queue applies it to its occupancy
//!   ([`ReplicaQueue::estimated_ns`](super::ReplicaQueue::estimated_ns)):
//!   `α + β·(occupancy + 1)` is the power-of-two-choices score and the
//!   SLO-admission estimate — whether a new query can still meet its
//!   deadline anywhere, shedding with an honest 429 up front when it
//!   cannot (Clockwork's "predictably fail fast") — and `α + β·occupancy`
//!   the autoscaler's backlog signal;
//! - hedged dispatch scales `α + β·b` into the straggler threshold.
//!
//! The model can be warm-started from a [`LatencyPrior`]: the curve a
//! fleet member learned in its previous life, harvested when it expired
//! and handed back when the same container re-registers, so it starts
//! from its own ceiling instead of probing from 1. Every other replica
//! starts cold.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Minimum observations before a fitted slope may replace the prior.
const MIN_FIT_SAMPLES: u64 = 8;
/// Minimum batch-size variance required to trust a fitted slope: with no
/// spread in `b` the slope is unidentifiable and we keep the prior (or
/// stay unestablished).
const MIN_BATCH_VARIANCE: f64 = 0.25;
/// Exponential forgetting factor per observation (≈ the last ~25 batches
/// dominate the fit).
const GAMMA: f64 = 0.08;

/// A warm-start prior for the latency curve: `latency(b) ≈ α + β·b`,
/// both in microseconds. Its one source is a fleet member's own
/// `config/replica/{name}` record: the curve harvested from the member's
/// queue when it expired (its persisted `tune`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencyPrior {
    /// Fixed per-batch overhead (intercept), microseconds.
    pub alpha_us: f64,
    /// Marginal cost per batched item (slope), microseconds.
    pub beta_us: f64,
}

/// Exponentially-forgotten first/second moments of `(b, latency)`.
#[derive(Clone, Copy, Debug, Default)]
struct Fit {
    /// Total EWMA weight (bias correction: divide moments by this).
    w: f64,
    m_b: f64,
    m_l: f64,
    m_bb: f64,
    m_bl: f64,
    samples: u64,
}

impl Fit {
    fn observe(&mut self, b: f64, l: f64) {
        let g = GAMMA;
        self.w = (1.0 - g) * self.w + g;
        self.m_b = (1.0 - g) * self.m_b + g * b;
        self.m_l = (1.0 - g) * self.m_l + g * l;
        self.m_bb = (1.0 - g) * self.m_bb + g * b * b;
        self.m_bl = (1.0 - g) * self.m_bl + g * b * l;
        self.samples += 1;
    }

    fn mean_b(&self) -> f64 {
        self.m_b / self.w
    }

    fn mean_l(&self) -> f64 {
        self.m_l / self.w
    }

    fn variance_b(&self) -> f64 {
        let mb = self.mean_b();
        (self.m_bb / self.w - mb * mb).max(0.0)
    }

    /// Fitted slope, if the batch-size spread makes it identifiable.
    fn slope(&self) -> Option<f64> {
        let var = self.variance_b();
        if self.samples < MIN_FIT_SAMPLES || var < MIN_BATCH_VARIANCE {
            return None;
        }
        let cov = self.m_bl / self.w - self.mean_b() * self.mean_l();
        Some((cov / var).max(0.0))
    }
}

/// Online `α + β·b` latency model for one replica.
///
/// `observe` is called once per dispatched batch (cheap: one short
/// mutex-guarded moment update). The published `α`/`β` live in atomics
/// so the admission hot path reads them lock-free.
#[derive(Debug)]
pub struct LatencyModel {
    fit: Mutex<Fit>,
    prior: Option<LatencyPrior>,
    /// Published intercept, nanoseconds. `u64::MAX` = not established.
    alpha_ns: AtomicU64,
    /// Published slope, nanoseconds per item.
    beta_ns: AtomicU64,
}

const UNSET: u64 = u64::MAX;

impl Default for LatencyModel {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyModel {
    /// A cold model: unestablished until enough observations arrive.
    pub(crate) fn new() -> Self {
        LatencyModel {
            fit: Mutex::new(Fit::default()),
            prior: None,
            alpha_ns: AtomicU64::new(UNSET),
            beta_ns: AtomicU64::new(0),
        }
    }

    /// Warm-start from a prior curve: established immediately, and
    /// the prior slope holds until live observations have enough
    /// batch-size spread to re-fit it.
    pub(crate) fn with_prior(prior: LatencyPrior) -> Self {
        let m = Self::new();
        let alpha = (prior.alpha_us.max(0.0) * 1_000.0) as u64;
        let beta = (prior.beta_us.max(0.0) * 1_000.0) as u64;
        m.alpha_ns.store(alpha, Ordering::Relaxed);
        m.beta_ns.store(beta, Ordering::Relaxed);
        LatencyModel {
            prior: Some(prior),
            ..m
        }
    }

    /// Record one completed batch: `batch` items served in `latency`.
    pub fn observe(&self, batch: usize, latency: Duration) {
        let b = batch.max(1) as f64;
        let l = latency.as_secs_f64() * 1e9;
        let mut fit = self.fit.lock();
        fit.observe(b, l);
        // Publish: fitted slope when identifiable, else the prior's; the
        // intercept always re-calibrates along the current slope so pure
        // level shifts (replica slowdown at a constant batch size) are
        // still tracked.
        let beta = match fit.slope() {
            Some(s) => Some(s),
            None => self.prior.map(|p| p.beta_us.max(0.0) * 1_000.0),
        };
        if let Some(beta) = beta {
            let alpha = (fit.mean_l() - beta * fit.mean_b()).max(0.0);
            self.alpha_ns.store(alpha as u64, Ordering::Relaxed);
            self.beta_ns.store(beta as u64, Ordering::Relaxed);
        }
    }

    /// Whether the model has a usable curve (prior or identifiable fit).
    pub fn is_established(&self) -> bool {
        self.alpha_ns.load(Ordering::Relaxed) != UNSET
    }

    /// Current intercept in microseconds (0 if unestablished).
    pub(crate) fn alpha_us(&self) -> f64 {
        let a = self.alpha_ns.load(Ordering::Relaxed);
        if a == UNSET {
            0.0
        } else {
            a as f64 / 1_000.0
        }
    }

    /// Current slope in microseconds per item.
    pub(crate) fn beta_us(&self) -> f64 {
        self.beta_ns.load(Ordering::Relaxed) as f64 / 1_000.0
    }

    /// Predicted service time for a batch of `b`, if established.
    pub(crate) fn predict_ns(&self, b: usize) -> Option<u64> {
        let alpha = self.alpha_ns.load(Ordering::Relaxed);
        if alpha == UNSET {
            return None;
        }
        let beta = self.beta_ns.load(Ordering::Relaxed);
        Some(alpha.saturating_add(beta.saturating_mul(b as u64)))
    }

    /// Invert the curve against a latency budget: the largest `b` with
    /// `α + β·b ≤ budget`. `None` when the model is unestablished or the
    /// curve is flat (β = 0 — nothing to invert; the caller's cap rules).
    pub(crate) fn max_batch_for(&self, budget: Duration) -> Option<usize> {
        let alpha = self.alpha_ns.load(Ordering::Relaxed);
        if alpha == UNSET {
            return None;
        }
        let beta = self.beta_ns.load(Ordering::Relaxed);
        if beta == 0 {
            return None;
        }
        let budget = budget.as_nanos().min(u64::MAX as u128) as u64;
        Some((budget.saturating_sub(alpha) / beta).max(1) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn cold_model_is_unestablished() {
        let m = LatencyModel::new();
        assert!(!m.is_established());
        assert_eq!(m.predict_ns(4), None);
        assert_eq!(m.max_batch_for(Duration::from_millis(20)), None);
    }

    #[test]
    fn fit_recovers_a_linear_curve() {
        // latency = 1000µs + 20µs·b, batches sweeping 1..=32.
        let m = LatencyModel::new();
        for round in 0..20 {
            for b in 1..=32usize {
                let _ = round;
                m.observe(b, us(1_000 + 20 * b as u64));
            }
        }
        assert!(m.is_established());
        assert!(
            (m.beta_us() - 20.0).abs() < 4.0,
            "beta {} expected ≈20",
            m.beta_us()
        );
        assert!(
            (m.alpha_us() - 1_000.0).abs() < 150.0,
            "alpha {} expected ≈1000",
            m.alpha_us()
        );
        // b_max for a 20ms SLO ≈ (20000 − 1000)/20 = 950.
        let b_max = m.max_batch_for(Duration::from_millis(20)).unwrap();
        assert!((800..=1100).contains(&b_max), "b_max {b_max}");
    }

    #[test]
    fn constant_batch_size_keeps_slope_unidentifiable() {
        let m = LatencyModel::new();
        for _ in 0..100 {
            m.observe(4, us(5_000));
        }
        // No spread in b and no prior: the slope is unknowable, so the
        // model must not publish a curve it cannot have learned.
        assert!(!m.is_established());
    }

    #[test]
    fn prior_establishes_immediately_and_intercept_recalibrates() {
        let prior = LatencyPrior {
            alpha_us: 500.0,
            beta_us: 100.0,
        };
        let m = LatencyModel::with_prior(prior);
        assert!(m.is_established());
        assert_eq!(m.predict_ns(1), Some(600_000));

        // The replica is actually 4× slower than the prior at b=4, with
        // no batch-size spread: the slope stays at the prior's 100µs but
        // the intercept shifts up to absorb the level change.
        for _ in 0..60 {
            m.observe(4, us(3_600));
        }
        let predicted = m.predict_ns(4).unwrap();
        assert!(
            (3_000_000..=4_200_000).contains(&predicted),
            "predicted {predicted}ns for b=4, observed 3600µs"
        );
    }

    #[test]
    fn fitted_slope_overrides_the_prior_once_identifiable() {
        let prior = LatencyPrior {
            alpha_us: 0.0,
            beta_us: 1_000.0, // pessimistic prior: 1ms/item
        };
        let m = LatencyModel::with_prior(prior);
        // Real curve: 100µs + 50µs·b.
        for round in 0..10 {
            for b in 1..=16usize {
                let _ = round;
                m.observe(b, us(100 + 50 * b as u64));
            }
        }
        assert!(
            (m.beta_us() - 50.0).abs() < 15.0,
            "beta {} should have re-fit to ≈50",
            m.beta_us()
        );
    }

    #[test]
    fn tracks_a_slowdown() {
        let m = LatencyModel::new();
        for round in 0..10 {
            for b in 1..=8usize {
                let _ = round;
                m.observe(b, us(100 + 10 * b as u64));
            }
        }
        let fast = m.predict_ns(8).unwrap();
        // The replica degrades 10×; the forgetting factor re-learns.
        for round in 0..20 {
            for b in 1..=8usize {
                let _ = round;
                m.observe(b, us(1_000 + 100 * b as u64));
            }
        }
        let slow = m.predict_ns(8).unwrap();
        assert!(slow > fast * 4, "slow {slow} vs fast {fast}");
    }

    #[test]
    fn max_batch_never_returns_zero() {
        let prior = LatencyPrior {
            alpha_us: 50_000.0, // intercept alone blows a 20ms budget
            beta_us: 1_000.0,
        };
        let m = LatencyModel::with_prior(prior);
        assert_eq!(m.max_batch_for(Duration::from_millis(20)), Some(1));
    }
}
