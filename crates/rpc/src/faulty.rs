//! Fault-injection transport wrapper.
//!
//! Wraps any [`BatchTransport`] and injects the failure modes the paper's
//! robustness machinery must tolerate: added latency (stragglers, §5.2.2),
//! dropped requests, and hard failures. Randomness is seeded so experiments
//! are repeatable, in the spirit of smoltcp's `--drop-chance` /
//! `--corrupt-chance` example flags.

use crate::error::RpcError;
use crate::message::PredictReply;
use crate::transport::{BatchTransport, BoxFuture, Input};
use parking_lot::Mutex;
use rand::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Fault model for [`FaultyTransport`].
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Base added latency applied to every request.
    pub base_delay: Duration,
    /// Uniform jitter added on top of `base_delay` (0..jitter).
    pub jitter: Duration,
    /// Probability of a straggler event per request.
    pub straggler_prob: f64,
    /// Extra delay applied on straggler events.
    pub straggler_delay: Duration,
    /// Probability the request is dropped (never answered → `Injected`).
    pub drop_prob: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            base_delay: Duration::ZERO,
            jitter: Duration::ZERO,
            straggler_prob: 0.0,
            straggler_delay: Duration::ZERO,
            drop_prob: 0.0,
        }
    }
}

impl FaultConfig {
    /// A straggler profile: `prob` chance of an extra `delay`.
    pub fn stragglers(prob: f64, delay: Duration) -> Self {
        FaultConfig {
            straggler_prob: prob,
            straggler_delay: delay,
            ..Default::default()
        }
    }
}

/// A transport wrapper that injects latency and loss.
///
/// The fault model is hot-swappable: chaos harnesses flip a healthy
/// replica into a failing one *mid-run* with
/// [`set_config`](Self::set_config) / [`fail_hard`](Self::fail_hard) and
/// back, without re-attaching the replica.
pub struct FaultyTransport {
    inner: Arc<dyn BatchTransport>,
    cfg: Mutex<FaultConfig>,
    rng: Mutex<StdRng>,
}

impl FaultyTransport {
    /// Wrap `inner` with fault model `cfg`; `seed` makes runs repeatable.
    pub fn new(inner: Arc<dyn BatchTransport>, cfg: FaultConfig, seed: u64) -> Self {
        FaultyTransport {
            inner,
            cfg: Mutex::new(cfg),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// Replace the fault model. Applies to every request decided after
    /// the call; requests already in flight keep the outcome they drew.
    pub fn set_config(&self, cfg: FaultConfig) {
        *self.cfg.lock() = cfg;
    }

    /// Convenience chaos switch: `true` makes every request fail
    /// (`drop_prob = 1.0`), `false` restores a clean pass-through.
    pub fn fail_hard(&self, failing: bool) {
        self.set_config(FaultConfig {
            drop_prob: if failing { 1.0 } else { 0.0 },
            ..Default::default()
        });
    }
}

impl BatchTransport for FaultyTransport {
    fn predict_batch(&self, inputs: &[Input]) -> BoxFuture<Result<PredictReply, RpcError>> {
        // Decide the fault outcome up front (short locks; no awaits
        // inside). The config is read once per request so a concurrent
        // `set_config` never half-applies.
        let cfg = self.cfg.lock().clone();
        let (delay, dropped) = {
            let mut rng = self.rng.lock();
            let mut delay = cfg.base_delay;
            if cfg.jitter > Duration::ZERO {
                delay += cfg.jitter.mul_f64(rng.random::<f64>());
            }
            if cfg.straggler_prob > 0.0 && rng.random_bool(cfg.straggler_prob) {
                delay += cfg.straggler_delay;
            }
            let dropped = cfg.drop_prob > 0.0 && rng.random_bool(cfg.drop_prob);
            (delay, dropped)
        };
        let inner = self.inner.clone();
        let inputs = inputs.to_vec(); // Arc clones only
        Box::pin(async move {
            if delay > Duration::ZERO {
                tokio::time::sleep(delay).await;
            }
            if dropped {
                return Err(RpcError::Injected);
            }
            inner.predict_batch(&inputs).await
        })
    }

    fn id(&self) -> String {
        format!("faulty({})", self.inner.id())
    }

    fn is_healthy(&self) -> bool {
        self.inner.is_healthy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::WireOutput;
    use crate::transport::FnTransport;
    use std::sync::Arc;
    use std::time::Instant;

    fn one_input() -> Vec<Input> {
        vec![Arc::new(vec![0.0])]
    }

    fn ok_transport() -> Arc<dyn BatchTransport> {
        Arc::new(FnTransport::new("ok", |inputs: &[Input]| {
            Ok(PredictReply {
                outputs: vec![WireOutput::Class(1); inputs.len()],
                queue_us: 0,
                compute_us: 0,
            })
        }))
    }

    #[tokio::test]
    async fn no_faults_passes_through() {
        let t = FaultyTransport::new(ok_transport(), FaultConfig::default(), 1);
        let r = t.predict_batch(&one_input()).await.unwrap();
        assert_eq!(r.outputs.len(), 1);
        assert!(t.id().contains("ok"));
    }

    #[tokio::test]
    async fn drop_prob_one_always_drops() {
        let cfg = FaultConfig {
            drop_prob: 1.0,
            ..Default::default()
        };
        let t = FaultyTransport::new(ok_transport(), cfg, 1);
        let err = t.predict_batch(&one_input()).await.unwrap_err();
        assert!(matches!(err, RpcError::Injected));
    }

    #[tokio::test]
    async fn base_delay_is_applied() {
        let cfg = FaultConfig {
            base_delay: Duration::from_millis(25),
            ..Default::default()
        };
        let t = FaultyTransport::new(ok_transport(), cfg, 1);
        let start = Instant::now();
        t.predict_batch(&one_input()).await.unwrap();
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[tokio::test]
    async fn fault_config_is_hot_swappable_mid_run() {
        // A chaos harness flips a healthy replica into a black hole and
        // back without re-attaching it.
        let t = FaultyTransport::new(ok_transport(), FaultConfig::default(), 3);
        assert!(t.predict_batch(&one_input()).await.is_ok());
        t.fail_hard(true);
        for _ in 0..10 {
            let err = t.predict_batch(&one_input()).await.unwrap_err();
            assert!(matches!(err, RpcError::Injected));
        }
        t.fail_hard(false);
        assert!(t.predict_batch(&one_input()).await.is_ok());
        // Arbitrary models swap in too.
        t.set_config(FaultConfig {
            base_delay: Duration::from_millis(5),
            ..Default::default()
        });
        let start = Instant::now();
        t.predict_batch(&one_input()).await.unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[tokio::test]
    async fn straggler_rate_roughly_matches_probability() {
        let cfg = FaultConfig::stragglers(0.3, Duration::from_millis(8));
        let t = FaultyTransport::new(ok_transport(), cfg, 42);
        let mut stragglers = 0;
        for _ in 0..100 {
            let start = Instant::now();
            t.predict_batch(&one_input()).await.unwrap();
            if start.elapsed() >= Duration::from_millis(8) {
                stragglers += 1;
            }
        }
        assert!(
            (15..=45).contains(&stragglers),
            "expected ≈30 stragglers out of 100, got {stragglers}"
        );
    }
}
