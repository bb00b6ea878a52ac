//! Adaptive batching (§4.3).
//!
//! Each model-container replica gets its own batching queue and its own
//! controller that learns the largest batch size whose evaluation latency
//! stays inside the application's SLO:
//!
//! - [`AimdController`] — the paper's default: additive increase, gentle
//!   10% multiplicative backoff on SLO violation (§4.3.1);
//! - [`QuantileController`] — the alternative the paper evaluates: online
//!   quantile regression estimating P99 latency as a linear function of
//!   batch size (pinball-loss SGD), inverted against the SLO;
//! - `AutotuneController` — a ceiling re-derived from the replica's
//!   online latency model (§4.4.1), AIMD until the model is established;
//! - a fixed-size strategy for baselines (Figure 4's no-batching arm is
//!   `Fixed { size: 1 }`).
//!
//! Delayed batching (§4.3.2) is a queue-level knob
//! ([`QueueConfig::batch_wait_timeout`]): under moderate load a lane
//! briefly waits for more queries before sending an under-full batch, trading a bounded delay for amortized fixed costs — the Nagle's
//! algorithm analogy.
//!
//! Every replica queue answers the scheduler's two questions from one
//! source each. *How long will it take?* — its online [`LatencyModel`]
//! (`α + β·b`), the only service-time estimate: the autotune ceiling,
//! p2c scoring, SLO admission, the autoscaler's backlog and the hedge
//! delay all derive from it, and its error is itself a metric
//! (`queue/*/model_err_us`). *Is it healthy?* — its
//! [`breaker::CircuitBreaker`], fed batch outcomes and the fleet's
//! heartbeat-silent signal, read as one [`Health`]. The replica walk and
//! admission also skip a replica whose transport reports
//! `is_healthy() == false` (a closed or silent TCP connection), so a
//! replica's health has two sources: the breaker and its transport's
//! liveness flag.
//!
//! Time comes from one clock, the runtime's `tokio::time::Instant`: the
//! scheduler reads it once per routing decision and stamps the item's
//! `enqueued` and deadline with that `now`, and a lane reads it once per
//! sealed batch for the breaker's admission and the batch's dispatch
//! time.
//!
//! Failure recovery is layered on the same queues: the breaker stops
//! dispatch at a failing replica and probes it back in, retryable batch
//! failures redispatch still-within-budget queries onto a sibling
//! replica through the queue's scheduler hooks, and an opt-in hedging
//! knob ([`QueueConfig::hedge`]) races a straggling batch against a
//! second replica. `queue.rs` is the queue itself — intake, lifecycle, and the
//! lanes: [`QueueConfig::pipeline_depth`] identical tasks that each seal
//! a batch and then send and settle it themselves; what a lane does with
//! a sealed batch (transport call, hedge race, retry) lives in
//! `dispatch.rs`.

mod aimd;
mod autotune;
pub mod breaker;
mod dispatch;
mod latency_model;
mod quantile;
mod queue;

pub use aimd::AimdController;
use autotune::AutotuneController;
pub use breaker::{BatchOutcome, BreakerConfig, BreakerState, CircuitBreaker, Health};
pub use latency_model::{LatencyModel, LatencyPrior};
pub use quantile::QuantileController;
pub(crate) use queue::{
    spawn_replica_queue_with_hooks, QueueHooks, QueueItem, QueueMetrics, ReplySink,
};
pub use queue::{HedgeConfig, QueueConfig, ReplicaQueue};

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// A `Duration` field's persisted form: whole microseconds as an integer
/// (`#[serde(rename = "<name>_us", with = "micros")]`), so sub-millisecond
/// settings survive the round trip.
mod micros {
    use serde::{Deserialize, Error, Reader, Serialize, Writer};
    use std::time::Duration;

    pub(super) fn serialize(d: &Duration, w: &mut Writer) -> Result<(), Error> {
        (d.as_micros() as u64).serialize(w)
    }

    pub(super) fn deserialize(r: &mut Reader<'_>) -> Result<Duration, Error> {
        u64::deserialize(r).map(Duration::from_micros)
    }
}

/// Strategy configuration for a replica's batching controller. Its
/// serde form is the persisted one (`{"kind":"aimd",…}` inside a
/// [`QueueConfig`] record).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum BatchStrategy {
    /// Additive-increase / multiplicative-decrease (the default).
    Aimd {
        /// Additive step per successful full batch.
        step: f64,
        /// Multiplicative backoff factor on SLO violation (paper: 0.9).
        backoff: f64,
    },
    /// Online P99 quantile regression.
    QuantileRegression,
    /// Static maximum batch size (TensorFlow-Serving style); `size: 1`
    /// is the Figure-4 no-batching baseline.
    Fixed {
        /// The fixed batch size.
        size: usize,
    },
    /// Model-driven ceiling from the replica's online latency model
    /// (§4.4.1): `b_max = largest b with α + β·b ≤ SLO·(1 − headroom)`,
    /// with AIMD cold-start fallback until the model is established.
    Autotune {
        /// Fraction of the SLO held back as jitter headroom (e.g. 0.1).
        headroom: f64,
    },
}

impl Default for BatchStrategy {
    fn default() -> Self {
        BatchStrategy::Aimd {
            step: 2.0,
            backoff: 0.9,
        }
    }
}

impl BatchStrategy {
    /// Instantiate the controller for this strategy under `slo`. `model`
    /// is the replica's shared online latency model; only `Autotune`
    /// reads it, but every queue maintains one.
    pub(crate) fn build(
        &self,
        slo: Duration,
        cap: usize,
        model: &Arc<LatencyModel>,
    ) -> Box<dyn BatchController> {
        match *self {
            BatchStrategy::Aimd { step, backoff } => {
                Box::new(AimdController::new(slo, step, backoff, cap))
            }
            BatchStrategy::QuantileRegression => Box::new(QuantileController::new(slo, cap)),
            BatchStrategy::Fixed { size } => Box::new(FixedController(size.clamp(1, cap))),
            BatchStrategy::Autotune { headroom } => {
                Box::new(AutotuneController::new(slo, headroom, model.clone(), cap))
            }
        }
    }
}

/// A batching controller: proposes the current maximum batch size and
/// learns from observed `(batch, latency)` outcomes.
pub trait BatchController: Send {
    /// Current maximum batch size (≥ 1).
    fn max_batch(&self) -> usize;
    /// Record one completed batch evaluation.
    fn record(&mut self, batch_size: usize, latency: Duration);
    /// Controller name for metrics/reports.
    fn name(&self) -> &'static str;
}

/// Static controller used for `Fixed`.
struct FixedController(usize);

impl BatchController for FixedController {
    fn max_batch(&self) -> usize {
        self.0
    }
    fn record(&mut self, _batch_size: usize, _latency: Duration) {}
    fn name(&self) -> &'static str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Arc<LatencyModel> {
        Arc::new(LatencyModel::new())
    }

    #[test]
    fn strategy_builds_matching_controller() {
        let slo = Duration::from_millis(20);
        assert_eq!(
            BatchStrategy::default().build(slo, 4096, &model()).name(),
            "aimd"
        );
        assert_eq!(
            BatchStrategy::QuantileRegression
                .build(slo, 4096, &model())
                .name(),
            "quantile"
        );
        assert_eq!(
            BatchStrategy::Fixed { size: 64 }
                .build(slo, 4096, &model())
                .max_batch(),
            64
        );
        assert_eq!(
            BatchStrategy::Fixed { size: 1 }
                .build(slo, 4096, &model())
                .max_batch(),
            1
        );
        assert_eq!(
            BatchStrategy::Autotune { headroom: 0.1 }
                .build(slo, 4096, &model())
                .name(),
            "autotune"
        );
    }

    #[test]
    fn fixed_is_clamped_to_cap() {
        let c =
            BatchStrategy::Fixed { size: 10_000 }.build(Duration::from_millis(20), 256, &model());
        assert_eq!(c.max_batch(), 256);
    }

    #[test]
    fn fixed_ignores_feedback() {
        let mut c =
            BatchStrategy::Fixed { size: 8 }.build(Duration::from_millis(20), 4096, &model());
        c.record(8, Duration::from_secs(10));
        assert_eq!(c.max_batch(), 8);
    }
}
