//! Autoscaling: a control loop over signals the scheduler already
//! computes.
//!
//! Per evaluation period the loop samples the model's total backlog
//! (`Σ α + β·occupancy` by each busy replica's latency model) and the admission-shed
//! delta, then asks the pure [`evaluate`] function for a decision:
//!
//! - **Up** when the per-replica backlog crosses the scale-up threshold
//!   or admission started shedding — capacity is demonstrably short;
//! - **Down** after `scale_down_evals` consecutive quiet periods (low
//!   backlog, zero sheds) — sustained calm, not one lucky sample;
//! - **Hold** otherwise, and always inside `[min_replicas,
//!   max_replicas]`.
//!
//! Scale-up launches a *managed* replica through the configured
//! [`ReplicaLauncher`](super::ReplicaLauncher) capability; scale-down
//! reaps the newest managed one through the same zero-drop graceful
//! drain the health monitor uses. Unmanaged (self-registered) replicas
//! are never reaped.

use super::registry::{Fleet, FleetEvent};
use crate::api::ReplicaSpec;
use crate::types::ModelId;
use std::time::Duration;

/// Autoscaler policy for one model.
#[derive(Clone, Debug)]
pub struct AutoscaleConfig {
    /// The model whose fleet is managed.
    pub model: ModelId,
    /// Never reap below this many replicas.
    pub min_replicas: usize,
    /// Never launch above this many replicas.
    pub max_replicas: usize,
    /// Evaluation period.
    pub eval_interval: Duration,
    /// Per-replica backlog (ns of queued work) at or above which the
    /// loop scales up.
    pub scale_up_backlog_ns: u64,
    /// Per-replica backlog at or below which an evaluation counts as
    /// quiet.
    pub scale_down_backlog_ns: u64,
    /// Consecutive quiet evaluations before scaling down.
    pub scale_down_evals: u32,
    /// Launcher capability used for managed replicas.
    pub capability: String,
    /// Container-name prefix for managed replicas (`{prefix}-{seq}`).
    pub name_prefix: String,
}

/// One evaluation period's observed load signals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ScaleSignals {
    /// Live replica count.
    pub replicas: usize,
    /// Total backlog across replicas, ns of queued work.
    pub backlog_ns: u64,
    /// Admission sheds since the previous evaluation.
    pub admission_sheds_delta: u64,
}

/// What one evaluation decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AutoscaleDecision {
    /// Capacity matches load.
    Hold,
    /// Launch one replica.
    Up,
    /// Reap one managed replica.
    Down,
}

/// The pure scaling decision — separated from the control loop so the
/// policy is unit-testable without queues or clocks. `quiet_evals` is
/// the count of consecutive quiet evaluations *before* this one.
pub(crate) fn evaluate(
    cfg: &AutoscaleConfig,
    s: &ScaleSignals,
    quiet_evals: u32,
) -> AutoscaleDecision {
    if s.replicas < cfg.min_replicas {
        return AutoscaleDecision::Up;
    }
    if s.replicas < cfg.max_replicas
        && (per_replica_ns(s) >= cfg.scale_up_backlog_ns || s.admission_sheds_delta > 0)
    {
        return AutoscaleDecision::Up;
    }
    if is_quiet(cfg, s)
        && s.replicas > cfg.min_replicas
        && quiet_evals + 1 >= cfg.scale_down_evals.max(1)
    {
        return AutoscaleDecision::Down;
    }
    AutoscaleDecision::Hold
}

/// Backlog per replica, ns of queued work (zero replicas count as one).
fn per_replica_ns(s: &ScaleSignals) -> u64 {
    s.backlog_ns / s.replicas.max(1) as u64
}

/// The quiet rule: a period with low per-replica backlog and no sheds.
fn is_quiet(cfg: &AutoscaleConfig, s: &ScaleSignals) -> bool {
    per_replica_ns(s) <= cfg.scale_down_backlog_ns && s.admission_sheds_delta == 0
}

/// Mutable loop state carried between evaluations.
#[derive(Debug, Default)]
pub struct AutoscalerState {
    quiet_evals: u32,
    last_sheds: u64,
    launched: u64,
}

impl Fleet {
    /// Spawn the autoscaler control loop for `cfg.model`. The task runs
    /// until the runtime drops.
    pub fn spawn_autoscaler(&self, cfg: AutoscaleConfig) -> tokio::task::JoinHandle<()> {
        let fleet = self.clone();
        tokio::spawn(async move {
            let mut state = AutoscalerState::default();
            loop {
                tokio::time::sleep(cfg.eval_interval).await;
                fleet.autoscale_tick(&cfg, &mut state).await;
            }
        })
    }

    /// One evaluation: sample signals, decide, act. Public so tests and
    /// benches can step the loop deterministically.
    pub async fn autoscale_tick(
        &self,
        cfg: &AutoscaleConfig,
        state: &mut AutoscalerState,
    ) -> AutoscaleDecision {
        let sheds = self.inner.mal.admission_shed_count(&cfg.model);
        let signals = ScaleSignals {
            replicas: self.inner.mal.replica_count(&cfg.model),
            backlog_ns: self.inner.mal.backlog_ns(&cfg.model),
            admission_sheds_delta: sheds.saturating_sub(state.last_sheds),
        };
        state.last_sheds = sheds;
        let decision = evaluate(cfg, &signals, state.quiet_evals);
        state.quiet_evals = if is_quiet(cfg, &signals) {
            state.quiet_evals + 1
        } else {
            0
        };
        match decision {
            AutoscaleDecision::Hold => {}
            AutoscaleDecision::Up => {
                state.launched += 1;
                let name = format!("{}-{}", cfg.name_prefix, state.launched);
                let spec = ReplicaSpec {
                    container_name: name.clone(),
                    model_name: cfg.model.name.clone(),
                    model_version: cfg.model.version,
                    capabilities: vec![cfg.capability.clone()],
                };
                match self.register_inner(spec, true) {
                    Ok(_) => self.push_event(FleetEvent::ScaledUp { container: name }),
                    Err(_) => state.launched -= 1,
                }
                state.quiet_evals = 0;
            }
            AutoscaleDecision::Down => {
                if let Some(victim) = self.newest_managed(&cfg.model) {
                    if self.deregister(&victim).await.is_ok() {
                        self.push_event(FleetEvent::ScaledDown { container: victim });
                    }
                }
                state.quiet_evals = 0;
            }
        }
        decision
    }

    /// The most recently admitted managed, non-expired member of
    /// `model` — the scale-down victim (LIFO keeps the stable core of
    /// the fleet warm).
    fn newest_managed(&self, model: &ModelId) -> Option<String> {
        self.inner
            .members
            .lock()
            .iter()
            .filter(|(_, m)| m.managed && !m.expired && &m.model == model)
            .max_by_key(|(_, m)| m.joined_seq)
            .map(|(n, _)| n.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutoscaleConfig {
        AutoscaleConfig {
            model: ModelId::new("m", 1),
            min_replicas: 1,
            max_replicas: 4,
            eval_interval: Duration::from_millis(100),
            scale_up_backlog_ns: 10_000_000,
            scale_down_backlog_ns: 1_000_000,
            scale_down_evals: 3,
            capability: "local:test".into(),
            name_prefix: "auto".into(),
        }
    }

    fn sig(replicas: usize, backlog_ns: u64, sheds: u64) -> ScaleSignals {
        ScaleSignals {
            replicas,
            backlog_ns,
            admission_sheds_delta: sheds,
        }
    }

    #[test]
    fn below_minimum_always_scales_up() {
        assert_eq!(evaluate(&cfg(), &sig(0, 0, 0), 0), AutoscaleDecision::Up);
    }

    #[test]
    fn backlog_over_threshold_scales_up() {
        // 2 replicas, 30ms total backlog → 15ms each, over the 10ms bar.
        assert_eq!(
            evaluate(&cfg(), &sig(2, 30_000_000, 0), 0),
            AutoscaleDecision::Up
        );
    }

    #[test]
    fn admission_sheds_scale_up_even_with_low_backlog() {
        assert_eq!(evaluate(&cfg(), &sig(2, 0, 5), 0), AutoscaleDecision::Up);
    }

    #[test]
    fn at_max_holds_despite_load() {
        assert_eq!(
            evaluate(&cfg(), &sig(4, 400_000_000, 9), 0),
            AutoscaleDecision::Hold
        );
    }

    #[test]
    fn scale_down_needs_sustained_quiet() {
        let c = cfg();
        let s = sig(2, 0, 0);
        assert_eq!(evaluate(&c, &s, 0), AutoscaleDecision::Hold);
        assert_eq!(evaluate(&c, &s, 1), AutoscaleDecision::Hold);
        assert_eq!(evaluate(&c, &s, 2), AutoscaleDecision::Down);
    }

    #[test]
    fn scale_down_never_breaches_minimum() {
        assert_eq!(evaluate(&cfg(), &sig(1, 0, 0), 99), AutoscaleDecision::Hold);
    }

    #[test]
    fn moderate_backlog_holds() {
        // 5ms per replica: above the quiet bar, below the scale-up bar.
        assert_eq!(
            evaluate(&cfg(), &sig(2, 10_000_000, 0), 9),
            AutoscaleDecision::Hold
        );
    }
}
