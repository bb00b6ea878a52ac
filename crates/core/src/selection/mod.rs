//! The model selection layer (§5).
//!
//! Policies implement the four-function interface of the paper's
//! Listing 2 — `init`, `select`, `combine`, `observe` — over a shared,
//! serializable [`PolicyState`] so state can live per-context in an
//! external statestore (§5.3) and survive process restarts.
//!
//! Provided policies:
//! - [`Exp3Policy`] — single-model bandit, one evaluation per query (§5.1);
//! - [`Exp4Policy`] — ensemble weighting across all models (§5.2);
//! - `MajorityVotePolicy` — unweighted ensembles (no learning);
//! - `StaticPolicy` — a fixed model (the A/B-testing strawman).
//!
//! Randomized selection is *derived* (hash of seed, observation count, and
//! input), so `select` is a pure function of state — the property that
//! lets `observe` re-derive which arm a past query used when joining
//! delayed feedback.

mod manager;
mod policies;

pub use manager::SelectionStateManager;
pub(crate) use policies::build_policy;
pub use policies::{Exp3Policy, Exp4Policy};

use crate::types::{Feedback, Input, ModelId, Output};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Learned state of a selection policy (the Listing-2 type `S`).
///
/// One struct serves every built-in policy: `weights` are the Exp3/Exp4
/// weights (the majority vote and the static policy ignore them).
/// Serialized as JSON into the statestore for contextual selection; a
/// record carrying a field this struct no longer has (the per-model
/// `counts` of older builds) decodes with that field skipped.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct PolicyState {
    /// Model ordering (indices align with `weights`).
    pub models: Vec<ModelId>,
    /// Per-model weights.
    pub weights: Vec<f64>,
    /// Total feedback observations.
    pub total: u64,
    /// Seed for derived randomness.
    pub seed: u64,
}

impl PolicyState {
    /// Fresh state with uniform weights.
    pub fn uniform(models: &[ModelId], seed: u64) -> Self {
        PolicyState {
            models: models.to_vec(),
            weights: vec![1.0; models.len()],
            total: 0,
            seed,
        }
    }

    /// Selection probabilities proportional to weights.
    pub fn probabilities(&self) -> Vec<f64> {
        let sum: f64 = self.weights.iter().sum();
        if sum <= 0.0 || !sum.is_finite() {
            let n = self.weights.len().max(1);
            return vec![1.0 / n as f64; self.weights.len()];
        }
        self.weights.iter().map(|w| w / sum).collect()
    }

    /// Derived uniform in [0, 1): a pure function of (seed, total, input),
    /// so randomized selection is reproducible and re-derivable.
    pub(crate) fn derived_uniform(&self, input: &Input) -> f64 {
        let mut h = DefaultHasher::new();
        self.seed.hash(&mut h);
        self.total.hash(&mut h);
        input.len().hash(&mut h);
        for v in input.iter().take(16) {
            v.to_bits().hash(&mut h);
        }
        (h.finish() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Reconcile this state with an amended candidate-model set (app
    /// update or model-version rollout). Learned weights carry
    /// over by model *name* — a version bump keeps what the bandit learned
    /// about the model, which is the point of transparent rollouts
    /// (§2.2) — while genuinely new models start at the uniform weight.
    /// Returns whether anything changed.
    pub(crate) fn remap_models(&mut self, models: &[ModelId]) -> bool {
        if self.models == models {
            return false;
        }
        let mut weights = vec![1.0; models.len()];
        // Exact-id matches claim their old entries first, so a candidate
        // set that deliberately contains two versions of the same model
        // (A/B comparison) keeps each version's own learned state; only
        // then do leftover new entries inherit by name (version bump).
        let mut used = vec![false; self.models.len()];
        let mut matched = vec![false; models.len()];
        for (i, m) in models.iter().enumerate() {
            if let Some(j) = (0..self.models.len()).find(|&j| !used[j] && &self.models[j] == m) {
                weights[i] = self.weights[j];
                used[j] = true;
                matched[i] = true;
            }
        }
        for (i, m) in models.iter().enumerate() {
            if matched[i] {
                continue;
            }
            if let Some(j) =
                (0..self.models.len()).find(|&j| !used[j] && self.models[j].name == m.name)
            {
                weights[i] = self.weights[j];
                used[j] = true;
            }
        }
        self.models = models.to_vec();
        self.weights = weights;
        true
    }

    /// Guard against weight overflow/underflow: renormalize so weights sum
    /// to the model count (preserves probabilities exactly).
    pub(crate) fn renormalize(&mut self) {
        let sum: f64 = self.weights.iter().sum();
        let n = self.weights.len() as f64;
        if sum > 0.0 && sum.is_finite() {
            for w in self.weights.iter_mut() {
                *w *= n / sum;
                // Keep every arm revivable.
                *w = w.max(1e-12);
            }
        } else {
            for w in self.weights.iter_mut() {
                *w = 1.0;
            }
        }
    }
}

/// The model selection policy interface (the paper's Listing 2).
pub trait SelectionPolicy: Send + Sync {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// `S init()` — fresh state for a model set.
    fn init(&self, models: &[ModelId], seed: u64) -> PolicyState {
        PolicyState::uniform(models, seed)
    }

    /// `List<ModelId> select(S, X)` — which models to evaluate for this
    /// query.
    fn select(&self, state: &PolicyState, input: &Input) -> Vec<ModelId>;

    /// `(Y, confidence) combine(S, X, preds)` — final prediction plus an
    /// agreement-based confidence estimate.
    fn combine(
        &self,
        state: &PolicyState,
        input: &Input,
        preds: &HashMap<ModelId, Output>,
    ) -> (Output, f64);

    /// `S observe(S, X, feedback, preds)` — fold feedback into the state.
    fn observe(
        &self,
        state: &mut PolicyState,
        input: &Input,
        feedback: &Feedback,
        preds: &HashMap<ModelId, Output>,
    );
}

/// Weighted combination over present predictions: per-label weighted vote
/// (score vectors are averaged when shapes agree; label sequences vote per
/// position), a tie going to the smaller label. Returns `None` when
/// `preds` is empty.
pub fn weighted_combine(
    state: &PolicyState,
    preds: &HashMap<ModelId, Output>,
) -> Option<(Output, f64)> {
    let present: Vec<(usize, &Output)> = state
        .models
        .iter()
        .enumerate()
        .filter_map(|(i, m)| preds.get(m).map(|o| (i, o)))
        .collect();
    if present.is_empty() {
        return None;
    }
    let total_weight: f64 = present.iter().map(|(i, _)| state.weights[*i]).sum();
    if total_weight <= 0.0 {
        return None;
    }

    // Label sequences: per-position weighted vote.
    if present.iter().all(|(_, o)| matches!(o, Output::Labels(_))) {
        let max_len = present
            .iter()
            .map(|(_, o)| match o {
                Output::Labels(l) => l.len(),
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        let mut combined = Vec::with_capacity(max_len);
        let mut agreement_acc = 0.0f64;
        for pos in 0..max_len {
            let mut tally: HashMap<u32, f64> = HashMap::new();
            let mut pos_weight = 0.0;
            for (i, o) in &present {
                if let Output::Labels(l) = o {
                    if let Some(&lab) = l.get(pos) {
                        *tally.entry(lab).or_insert(0.0) += state.weights[*i];
                        pos_weight += state.weights[*i];
                    }
                }
            }
            let (winner, wwin) = heaviest(&tally)?;
            combined.push(winner);
            if pos_weight > 0.0 {
                agreement_acc += wwin / pos_weight;
            }
        }
        let confidence = if max_len == 0 {
            0.0
        } else {
            agreement_acc / max_len as f64
        };
        return Some((Output::Labels(combined), confidence));
    }

    // Scores: weighted average when all shapes agree.
    let all_scores_same_dim = {
        let dims: Vec<usize> = present
            .iter()
            .filter_map(|(_, o)| match o {
                Output::Scores(s) => Some(s.len()),
                _ => None,
            })
            .collect();
        dims.len() == present.len() && dims.windows(2).all(|w| w[0] == w[1])
    };
    if all_scores_same_dim {
        let dim = match present[0].1 {
            Output::Scores(s) => s.len(),
            _ => unreachable!(),
        };
        let mut acc = vec![0.0f64; dim];
        for (i, o) in &present {
            if let Output::Scores(s) = o {
                for (a, &v) in acc.iter_mut().zip(s.iter()) {
                    *a += state.weights[*i] * v as f64;
                }
            }
        }
        let mean: Vec<f32> = acc.iter().map(|&v| (v / total_weight) as f32).collect();
        let combined = Output::Scores(mean);
        let winner = combined.label();
        let agree: f64 = present
            .iter()
            .filter(|(_, o)| o.label() == winner)
            .map(|(i, _)| state.weights[*i])
            .sum();
        return Some((combined, agree / total_weight));
    }

    // General case: weighted vote over argmax labels.
    let mut tally: HashMap<u32, f64> = HashMap::new();
    for (i, o) in &present {
        *tally.entry(o.label()).or_insert(0.0) += state.weights[*i];
    }
    let (winner, wwin) = heaviest(&tally)?;
    Some((Output::Class(winner), wwin / total_weight))
}

/// The label with the most weight in `tally`, a tie going to the smaller
/// label: the winner never depends on the map's iteration order.
fn heaviest(tally: &HashMap<u32, f64>) -> Option<(u32, f64)> {
    tally.iter().map(|(&l, &w)| (l, w)).max_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.0.cmp(&a.0))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn models(n: usize) -> Vec<ModelId> {
        (0..n).map(|i| ModelId::new(&format!("m{i}"), 1)).collect()
    }

    #[test]
    fn an_even_vote_goes_to_the_smaller_label_every_time() {
        let ms = models(2);
        let state = PolicyState::uniform(&ms, 0);
        for _ in 0..64 {
            // A fresh map per call: a fresh iteration order for the tally.
            let classes: HashMap<ModelId, Output> = [
                (ms[0].clone(), Output::Class(7)),
                (ms[1].clone(), Output::Class(3)),
            ]
            .into();
            assert_eq!(
                weighted_combine(&state, &classes),
                Some((Output::Class(3), 0.5))
            );
            let sequences: HashMap<ModelId, Output> = [
                (ms[0].clone(), Output::Labels(vec![7, 1])),
                (ms[1].clone(), Output::Labels(vec![3, 2])),
            ]
            .into();
            assert_eq!(
                weighted_combine(&state, &sequences),
                Some((Output::Labels(vec![3, 1]), 0.5))
            );
        }
    }

    #[test]
    fn uniform_state_has_equal_probabilities() {
        let s = PolicyState::uniform(&models(4), 0);
        let p = s.probabilities();
        assert_eq!(p.len(), 4);
        assert!(p.iter().all(|&x| (x - 0.25).abs() < 1e-12));
    }

    #[test]
    fn derived_uniform_is_deterministic_and_varies() {
        let s = PolicyState::uniform(&models(2), 7);
        let x1: Input = Arc::new(vec![1.0, 2.0]);
        let x2: Input = Arc::new(vec![3.0, 4.0]);
        assert_eq!(s.derived_uniform(&x1), s.derived_uniform(&x1));
        assert_ne!(s.derived_uniform(&x1), s.derived_uniform(&x2));
        let u = s.derived_uniform(&x1);
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn derived_uniform_changes_with_observations() {
        let mut s = PolicyState::uniform(&models(2), 7);
        let x: Input = Arc::new(vec![1.0]);
        let before = s.derived_uniform(&x);
        s.total += 1;
        assert_ne!(before, s.derived_uniform(&x));
    }

    #[test]
    fn remap_models_carries_learned_weights_across_versions() {
        let old = vec![ModelId::new("a", 1), ModelId::new("b", 1)];
        let mut s = PolicyState::uniform(&old, 5);
        s.weights = vec![4.0, 0.5];
        s.total = 12;
        // Roll "a" to v2 and introduce a brand-new model "c".
        let new = vec![ModelId::new("a", 2), ModelId::new("c", 1)];
        assert!(s.remap_models(&new));
        assert_eq!(s.models, new);
        assert_eq!(s.weights, vec![4.0, 1.0], "a keeps its weight, c is fresh");
        assert_eq!(s.total, 12, "observation history is not rewritten");
        // Identical set: no-op.
        assert!(!s.remap_models(&new));
    }

    #[test]
    fn remap_models_keeps_per_version_state_in_ab_sets() {
        // An app comparing two versions of one model must not have their
        // learned weights collapsed onto the first name match.
        let old = vec![ModelId::new("m", 1), ModelId::new("m", 2)];
        let mut s = PolicyState::uniform(&old, 1);
        s.weights = vec![3.0, 7.0];
        let new = vec![ModelId::new("m", 2), ModelId::new("m", 1)];
        assert!(s.remap_models(&new));
        assert_eq!(s.weights, vec![7.0, 3.0], "exact ids keep their state");
    }

    #[test]
    fn renormalize_preserves_ratios() {
        let mut s = PolicyState::uniform(&models(2), 0);
        s.weights = vec![2e-300, 6e-300];
        s.renormalize();
        let ratio = s.weights[1] / s.weights[0];
        assert!((ratio - 3.0).abs() < 1e-6);
        assert!((s.weights.iter().sum::<f64>() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn renormalize_recovers_from_nan() {
        let mut s = PolicyState::uniform(&models(2), 0);
        s.weights = vec![f64::NAN, 1.0];
        s.renormalize();
        assert!(s.weights.iter().all(|w| w.is_finite()));
    }

    #[test]
    fn weighted_combine_label_vote() {
        let s = {
            let mut s = PolicyState::uniform(&models(3), 0);
            s.weights = vec![1.0, 1.0, 3.0];
            s
        };
        let mut preds = HashMap::new();
        preds.insert(s.models[0].clone(), Output::Class(1));
        preds.insert(s.models[1].clone(), Output::Class(1));
        preds.insert(s.models[2].clone(), Output::Class(2));
        let (out, conf) = weighted_combine(&s, &preds).unwrap();
        assert_eq!(out, Output::Class(2), "weight 3 beats 1+1");
        assert!((conf - 0.6).abs() < 1e-9);
    }

    #[test]
    fn weighted_combine_scores_average() {
        let s = PolicyState::uniform(&models(2), 0);
        let mut preds = HashMap::new();
        preds.insert(s.models[0].clone(), Output::Scores(vec![0.8, 0.2]));
        preds.insert(s.models[1].clone(), Output::Scores(vec![0.4, 0.6]));
        let (out, conf) = weighted_combine(&s, &preds).unwrap();
        match out {
            Output::Scores(v) => {
                assert!((v[0] - 0.6).abs() < 1e-6);
                assert!((v[1] - 0.4).abs() < 1e-6);
            }
            other => panic!("expected scores, got {other:?}"),
        }
        // Models disagree on argmax: one of two agrees with the winner.
        assert!((conf - 0.5).abs() < 1e-9);
    }

    #[test]
    fn weighted_combine_sequences_vote_per_position() {
        let s = PolicyState::uniform(&models(3), 0);
        let mut preds = HashMap::new();
        preds.insert(s.models[0].clone(), Output::Labels(vec![1, 2, 3]));
        preds.insert(s.models[1].clone(), Output::Labels(vec![1, 2, 9]));
        preds.insert(s.models[2].clone(), Output::Labels(vec![1, 5, 3]));
        let (out, conf) = weighted_combine(&s, &preds).unwrap();
        assert_eq!(out, Output::Labels(vec![1, 2, 3]));
        // Position agreement: 3/3, 2/3, 2/3 → mean 7/9.
        assert!((conf - 7.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_combine_empty_is_none() {
        let s = PolicyState::uniform(&models(2), 0);
        assert!(weighted_combine(&s, &HashMap::new()).is_none());
    }
}
