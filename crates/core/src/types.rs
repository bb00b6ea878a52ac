//! Core domain types shared across both layers.

use crate::api::AppPatch;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A versioned model identity (`Predict(m, x)`'s `m`).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ModelId {
    /// Model name, e.g. `"mnist-linear-svm"`.
    pub name: String,
    /// Version; bumping it deploys a new model transparently (§2.2).
    pub version: u32,
}

impl ModelId {
    /// Construct a model id.
    pub fn new(name: &str, version: u32) -> Self {
        ModelId {
            name: name.to_string(),
            version,
        }
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:v{}", self.name, self.version)
    }
}

/// A query input: a shared feature vector. `Arc` because one input fans out
/// to many models, queues, batches, and cache keys without copying — the
/// alias lives in `clipper-rpc` so transports speak the same shared type.
pub use clipper_rpc::transport::Input;

/// A model (or ensemble) output. Re-exported wire type so containers,
/// cache, and policies speak the same language.
pub use clipper_rpc::message::WireOutput as Output;

/// Ground-truth feedback joined against earlier predictions (§5).
#[derive(Clone, Debug, PartialEq)]
pub struct Feedback {
    /// The true outcome for the input.
    pub truth: Output,
}

impl Feedback {
    /// Feedback with a class label.
    pub fn class(label: u32) -> Self {
        Feedback {
            truth: Output::Class(label),
        }
    }

    /// Feedback with a label sequence (speech transcription).
    pub fn labels(seq: Vec<u32>) -> Self {
        Feedback {
            truth: Output::Labels(seq),
        }
    }
}

/// Loss in `[0, 1]` between a prediction and the truth — the quantity the
/// bandit policies consume (§5.1): zero-one loss for labels/scores,
/// per-position error rate for sequences.
pub(crate) fn output_loss(pred: &Output, truth: &Output) -> f64 {
    match (pred, truth) {
        (Output::Labels(p), Output::Labels(t)) => {
            if p.is_empty() && t.is_empty() {
                return 0.0;
            }
            let len = p.len().max(t.len());
            let mismatch =
                p.iter().zip(t.iter()).filter(|(a, b)| a != b).count() + p.len().abs_diff(t.len());
            mismatch as f64 / len as f64
        }
        _ => {
            if pred.label() == truth.label() {
                0.0
            } else {
                1.0
            }
        }
    }
}

/// The final answer returned to an application.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Combined output.
    pub output: Output,
    /// Agreement-based confidence in `[0, 1]` (§5.2.1).
    pub confidence: f64,
    /// Models whose real predictions arrived by the deadline.
    pub models_used: usize,
    /// Models whose predictions were substituted (stragglers, §5.2.2).
    pub models_missing: usize,
    /// End-to-end latency of this prediction.
    pub latency: Duration,
}

impl Prediction {
    /// Whether an application with `threshold` confidence should fall back
    /// to its sensible default action (§5.2.1).
    pub fn is_confident(&self, threshold: f64) -> bool {
        self.confidence >= threshold
    }
}

/// Which selection policy an application uses.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub enum PolicyKind {
    /// Exp3 single-model bandit (§5.1); `eta` is the learning rate.
    Exp3 {
        /// Learning rate (the paper's η).
        eta: f64,
    },
    /// Exp4 ensemble bandit (§5.2).
    Exp4 {
        /// Learning rate (the paper's η).
        eta: f64,
    },
    /// Always query every model, combine by unweighted vote (no learning).
    MajorityVote,
    /// Always use one fixed model.
    Static {
        /// Index into the app's candidate model list.
        model_index: usize,
    },
}

impl Default for PolicyKind {
    fn default() -> Self {
        PolicyKind::Exp3 { eta: 0.1 }
    }
}

/// An application registration: candidate models, SLO, policy.
#[derive(Clone, Debug, PartialEq)]
pub struct AppConfig {
    /// Application name (routing key for predict/feedback).
    pub name: String,
    /// Candidate models the selection layer chooses among.
    pub candidate_models: Vec<ModelId>,
    /// Selection policy.
    pub policy: PolicyKind,
    /// Latency objective; also the straggler deadline.
    pub slo: Duration,
    /// Answer used when no model responds in time at all.
    pub default_output: Output,
    /// Seed for the policy's reproducible randomness.
    pub seed: u64,
}

impl AppConfig {
    /// An app with defaults: Exp3(η=0.1), 20 ms SLO, class-0 default.
    pub fn new(name: &str, candidate_models: Vec<ModelId>) -> Self {
        AppConfig {
            name: name.to_string(),
            candidate_models,
            policy: PolicyKind::default(),
            slo: Duration::from_millis(20),
            default_output: Output::Class(0),
            seed: 0,
        }
    }

    /// Set the selection policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Set the latency objective.
    pub fn with_slo(mut self, slo: Duration) -> Self {
        self.slo = slo;
        self
    }

    /// Set the default output.
    pub fn with_default_output(mut self, output: Output) -> Self {
        self.default_output = output;
        self
    }

    /// Set the policy seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Apply a live-update delta, returning the amended config.
    pub fn apply(mut self, patch: AppPatch) -> Self {
        if let Some(ms) = patch.slo_ms {
            self.slo = Duration::from_millis(ms);
        }
        if let Some(policy) = patch.policy {
            self.policy = policy;
        }
        if let Some(models) = patch.candidate_models {
            self.candidate_models = models;
        }
        if let Some(out) = patch.default_output {
            self.default_output = out.into();
        }
        if let Some(seed) = patch.seed {
            self.seed = seed;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_id_display() {
        assert_eq!(ModelId::new("svm", 2).to_string(), "svm:v2");
    }

    #[test]
    fn zero_one_loss_on_labels() {
        assert_eq!(output_loss(&Output::Class(1), &Output::Class(1)), 0.0);
        assert_eq!(output_loss(&Output::Class(1), &Output::Class(2)), 1.0);
        // Scores compare by argmax.
        assert_eq!(
            output_loss(&Output::Scores(vec![0.1, 0.9]), &Output::Class(1)),
            0.0
        );
    }

    #[test]
    fn sequence_loss_is_fractional() {
        let loss = output_loss(
            &Output::Labels(vec![1, 2, 3, 4]),
            &Output::Labels(vec![1, 2, 0, 0]),
        );
        assert!((loss - 0.5).abs() < 1e-9);
        assert_eq!(
            output_loss(&Output::Labels(vec![]), &Output::Labels(vec![])),
            0.0
        );
    }

    #[test]
    fn confidence_threshold_check() {
        let p = Prediction {
            output: Output::Class(1),
            confidence: 0.8,
            models_used: 4,
            models_missing: 1,
            latency: Duration::from_millis(5),
        };
        assert!(p.is_confident(0.8));
        assert!(!p.is_confident(0.9));
    }

    #[test]
    fn app_update_applies_only_set_fields() {
        let cfg = AppConfig::new("a", vec![ModelId::new("m", 1)])
            .with_slo(Duration::from_millis(10))
            .with_seed(3);
        let updated = cfg.clone().apply(AppPatch {
            slo_ms: Some(40),
            policy: Some(PolicyKind::MajorityVote),
            ..AppPatch::default()
        });
        assert_eq!(updated.slo, Duration::from_millis(40));
        assert_eq!(updated.policy, PolicyKind::MajorityVote);
        // Untouched fields survive.
        assert_eq!(updated.seed, 3);
        assert_eq!(updated.candidate_models, cfg.candidate_models);
        // The empty delta is the identity.
        let same = cfg.clone().apply(AppPatch::default());
        assert_eq!(same.slo, cfg.slo);
        assert_eq!(same.policy, cfg.policy);
    }

    #[test]
    fn app_config_builder_chain() {
        let cfg = AppConfig::new("a", vec![ModelId::new("m", 1)])
            .with_policy(PolicyKind::MajorityVote)
            .with_slo(Duration::from_millis(50))
            .with_default_output(Output::Class(9))
            .with_seed(7);
        assert_eq!(cfg.policy, PolicyKind::MajorityVote);
        assert_eq!(cfg.slo, Duration::from_millis(50));
        assert_eq!(cfg.default_output, Output::Class(9));
        assert_eq!(cfg.seed, 7);
    }
}
