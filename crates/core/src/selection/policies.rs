//! The built-in selection policies.

use super::{weighted_combine, PolicyState, SelectionPolicy};
use crate::types::{output_loss, Feedback, Input, ModelId, Output, PolicyKind};
use std::collections::HashMap;

/// Instantiate the policy for an app's [`PolicyKind`].
pub(crate) fn build_policy(kind: &PolicyKind) -> Box<dyn SelectionPolicy> {
    match *kind {
        PolicyKind::Exp3 { eta } => Box::new(Exp3Policy::new(eta)),
        PolicyKind::Exp4 { eta } => Box::new(Exp4Policy::new(eta)),
        PolicyKind::MajorityVote => Box::new(MajorityVotePolicy),
        PolicyKind::Static { model_index } => Box::new(StaticPolicy::new(model_index)),
    }
}

/// Sample an index from `probs` using a uniform draw `u ∈ [0,1)`.
fn sample_from(probs: &[f64], u: f64) -> usize {
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    probs.len().saturating_sub(1)
}

/// Exp3: the single-model selection policy (§5.1).
///
/// Maintains a weight per model; selects model `i` with probability
/// `pᵢ = (1−γ)·wᵢ/Σw + γ/K`; on feedback updates the selected weight with
/// the importance-weighted exponential rule `wᵢ ← wᵢ·exp(−η·L/pᵢ)`.
///
/// The paper's §5.1 sketch omits the γ-uniform exploration term, but the
/// underlying algorithm it cites (Auer et al. \[6\]) requires it — and so
/// does the Figure-8 behavior: without γ a model whose weight collapsed
/// during a failure would never be re-explored after it heals.
pub struct Exp3Policy {
    eta: f64,
}

/// Exp3's exploration fraction γ.
const GAMMA: f64 = 0.1;

impl Exp3Policy {
    /// Create with learning rate `eta` (the paper's η).
    pub fn new(eta: f64) -> Self {
        assert!(eta > 0.0, "eta must be positive");
        Exp3Policy { eta }
    }

    /// Selection probabilities with γ-uniform mixing.
    fn mixed_probabilities(&self, state: &PolicyState) -> Vec<f64> {
        let k = state.models.len().max(1) as f64;
        state
            .probabilities()
            .into_iter()
            .map(|p| (1.0 - GAMMA) * p + GAMMA / k)
            .collect()
    }

    fn chosen_index(&self, state: &PolicyState, input: &Input) -> usize {
        sample_from(
            &self.mixed_probabilities(state),
            state.derived_uniform(input),
        )
    }
}

impl SelectionPolicy for Exp3Policy {
    fn name(&self) -> &'static str {
        "exp3"
    }

    fn select(&self, state: &PolicyState, input: &Input) -> Vec<ModelId> {
        vec![state.models[self.chosen_index(state, input)].clone()]
    }

    fn combine(
        &self,
        state: &PolicyState,
        input: &Input,
        preds: &HashMap<ModelId, Output>,
    ) -> (Output, f64) {
        let chosen = &state.models[self.chosen_index(state, input)];
        if let Some(out) = preds.get(chosen) {
            return (out.clone(), 1.0);
        }
        // The chosen model's prediction is missing (straggler): fall back
        // to whatever arrived, with zero confidence.
        match weighted_combine(state, preds) {
            Some((out, _)) => (out, 0.0),
            None => (Output::Class(0), 0.0),
        }
    }

    fn observe(
        &self,
        state: &mut PolicyState,
        input: &Input,
        feedback: &Feedback,
        preds: &HashMap<ModelId, Output>,
    ) {
        // Re-derive which arm this query used (select is a pure function
        // of the state at prediction time; feedback that arrives after
        // later observations is an approximation the bandit tolerates).
        let idx = self.chosen_index(state, input);
        let chosen = state.models[idx].clone();
        if let Some(pred) = preds.get(&chosen) {
            let loss = output_loss(pred, &feedback.truth);
            let p = self.mixed_probabilities(state)[idx].max(1e-6);
            state.weights[idx] *= (-self.eta * loss / p).exp();
            state.total += 1;
            state.renormalize();
        }
    }
}

/// Exp4: the ensemble selection policy (§5.2).
///
/// Evaluates every model, combines by weighted vote, and decays each
/// model's weight by its own loss: `wᵢ ← wᵢ·exp(−η·Lᵢ)`. Confidence is the
/// weighted fraction of the ensemble agreeing with the final answer
/// (§5.2.1).
pub struct Exp4Policy {
    eta: f64,
}

impl Exp4Policy {
    /// Create with learning rate `eta`.
    pub fn new(eta: f64) -> Self {
        assert!(eta > 0.0, "eta must be positive");
        Exp4Policy { eta }
    }
}

impl SelectionPolicy for Exp4Policy {
    fn name(&self) -> &'static str {
        "exp4"
    }

    fn select(&self, state: &PolicyState, _input: &Input) -> Vec<ModelId> {
        state.models.clone()
    }

    fn combine(
        &self,
        state: &PolicyState,
        _input: &Input,
        preds: &HashMap<ModelId, Output>,
    ) -> (Output, f64) {
        weighted_combine(state, preds).unwrap_or((Output::Class(0), 0.0))
    }

    fn observe(
        &self,
        state: &mut PolicyState,
        _input: &Input,
        feedback: &Feedback,
        preds: &HashMap<ModelId, Output>,
    ) {
        for (i, model) in state.models.clone().iter().enumerate() {
            if let Some(pred) = preds.get(model) {
                let loss = output_loss(pred, &feedback.truth);
                state.weights[i] *= (-self.eta * loss).exp();
            }
        }
        state.total += 1;
        state.renormalize();
    }
}

/// Unweighted ensemble voting (no learning) — the static-ensemble baseline
/// in Figures 7 and 9.
pub(crate) struct MajorityVotePolicy;

impl SelectionPolicy for MajorityVotePolicy {
    fn name(&self) -> &'static str {
        "majority-vote"
    }

    fn select(&self, state: &PolicyState, _input: &Input) -> Vec<ModelId> {
        state.models.clone()
    }

    fn combine(
        &self,
        state: &PolicyState,
        _input: &Input,
        preds: &HashMap<ModelId, Output>,
    ) -> (Output, f64) {
        // Equal weights regardless of learned state.
        let uniform = PolicyState::uniform(&state.models, state.seed);
        weighted_combine(&uniform, preds).unwrap_or((Output::Class(0), 0.0))
    }

    fn observe(
        &self,
        state: &mut PolicyState,
        _input: &Input,
        _feedback: &Feedback,
        _preds: &HashMap<ModelId, Output>,
    ) {
        state.total += 1;
    }
}

/// A single fixed model — what static deployment (offline evaluation /
/// A/B testing) would pick.
pub(crate) struct StaticPolicy {
    model_index: usize,
}

impl StaticPolicy {
    /// Always use the model at `model_index` in the app's candidate list.
    pub(crate) fn new(model_index: usize) -> Self {
        StaticPolicy { model_index }
    }
}

impl SelectionPolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        "static"
    }

    fn select(&self, state: &PolicyState, _input: &Input) -> Vec<ModelId> {
        let idx = self.model_index.min(state.models.len().saturating_sub(1));
        vec![state.models[idx].clone()]
    }

    fn combine(
        &self,
        state: &PolicyState,
        _input: &Input,
        preds: &HashMap<ModelId, Output>,
    ) -> (Output, f64) {
        let idx = self.model_index.min(state.models.len().saturating_sub(1));
        match preds.get(&state.models[idx]) {
            Some(out) => (out.clone(), 1.0),
            None => (Output::Class(0), 0.0),
        }
    }

    fn observe(
        &self,
        state: &mut PolicyState,
        _input: &Input,
        _feedback: &Feedback,
        _preds: &HashMap<ModelId, Output>,
    ) {
        state.total += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn models(n: usize) -> Vec<ModelId> {
        (0..n).map(|i| ModelId::new(&format!("m{i}"), 1)).collect()
    }

    fn input(seed: u64) -> Input {
        Arc::new(vec![seed as f32, (seed * 31) as f32])
    }

    /// Drive a policy with feedback where `good_model` is always right and
    /// everyone else always wrong. Returns the fraction of the last
    /// `window` selections that pick the good model.
    fn converges_to(policy: &dyn SelectionPolicy, n_models: usize, good: usize) -> f64 {
        let ms = models(n_models);
        let mut state = policy.init(&ms, 42);
        let rounds = 600;
        let window = 200;
        let mut hits = 0;
        for r in 0..rounds {
            let x = input(r);
            let selected = policy.select(&state, &x);
            // Build predictions for the selected models: the good model
            // answers 1 (the truth), others answer 0.
            let mut preds = HashMap::new();
            for m in &selected {
                let idx = ms.iter().position(|mm| mm == m).unwrap();
                let out = if idx == good {
                    Output::Class(1)
                } else {
                    Output::Class(0)
                };
                preds.insert(m.clone(), out);
            }
            if r >= rounds - window {
                let (out, _) = policy.combine(&state, &x, &preds);
                if out == Output::Class(1) {
                    hits += 1;
                }
            }
            policy.observe(&mut state, &x, &Feedback::class(1), &preds);
        }
        hits as f64 / window as f64
    }

    #[test]
    fn exp3_converges_to_the_best_model() {
        let acc = converges_to(&Exp3Policy::new(0.3), 5, 3);
        assert!(acc > 0.8, "exp3 late accuracy {acc}");
    }

    #[test]
    fn exp4_converges_to_the_best_model() {
        let acc = converges_to(&Exp4Policy::new(0.3), 5, 2);
        assert!(acc > 0.9, "exp4 late accuracy {acc}");
    }

    #[test]
    fn exp3_selects_exactly_one_model() {
        let p = Exp3Policy::new(0.1);
        let s = p.init(&models(4), 0);
        assert_eq!(p.select(&s, &input(1)).len(), 1);
    }

    #[test]
    fn exp4_selects_every_model() {
        let p = Exp4Policy::new(0.1);
        let s = p.init(&models(4), 0);
        assert_eq!(p.select(&s, &input(1)).len(), 4);
    }

    #[test]
    fn exp4_confidence_reflects_agreement() {
        let p = Exp4Policy::new(0.1);
        let s = p.init(&models(4), 0);
        let mut preds = HashMap::new();
        for (i, m) in s.models.iter().enumerate() {
            preds.insert(m.clone(), Output::Class(if i < 3 { 7 } else { 8 }));
        }
        let (out, conf) = p.combine(&s, &input(1), &preds);
        assert_eq!(out, Output::Class(7));
        assert!((conf - 0.75).abs() < 1e-9);
    }

    #[test]
    fn exp3_weight_drops_after_bad_feedback() {
        let p = Exp3Policy::new(0.5);
        let ms = models(2);
        let mut s = p.init(&ms, 1);
        // Find an input whose derived choice is model 0.
        let mut x = input(0);
        for i in 0.. {
            x = input(i);
            if p.select(&s, &x)[0] == ms[0] {
                break;
            }
        }
        let mut preds = HashMap::new();
        preds.insert(ms[0].clone(), Output::Class(0));
        let w_before = s.probabilities()[0];
        p.observe(&mut s, &x, &Feedback::class(1), &preds); // wrong answer
        let w_after = s.probabilities()[0];
        assert!(
            w_after < w_before,
            "mispredicting arm must lose probability: {w_before} -> {w_after}"
        );
    }

    #[test]
    fn static_policy_ignores_feedback() {
        let p = StaticPolicy::new(1);
        let ms = models(3);
        let mut s = p.init(&ms, 0);
        let x = input(3);
        assert_eq!(p.select(&s, &x), vec![ms[1].clone()]);
        let mut preds = HashMap::new();
        preds.insert(ms[1].clone(), Output::Class(5));
        p.observe(&mut s, &x, &Feedback::class(9), &preds);
        assert_eq!(p.select(&s, &x), vec![ms[1].clone()]);
        let (out, conf) = p.combine(&s, &x, &preds);
        assert_eq!(out, Output::Class(5));
        assert_eq!(conf, 1.0);
    }

    #[test]
    fn static_policy_clamps_out_of_range_index() {
        let p = StaticPolicy::new(99);
        let s = p.init(&models(2), 0);
        assert_eq!(p.select(&s, &input(1))[0], s.models[1]);
    }

    #[test]
    fn majority_vote_ignores_learned_weights() {
        let p = MajorityVotePolicy;
        let ms = models(3);
        let mut s = p.init(&ms, 0);
        s.weights = vec![100.0, 1.0, 1.0]; // would dominate a weighted vote
        let mut preds = HashMap::new();
        preds.insert(ms[0].clone(), Output::Class(1));
        preds.insert(ms[1].clone(), Output::Class(2));
        preds.insert(ms[2].clone(), Output::Class(2));
        let (out, conf) = p.combine(&s, &input(1), &preds);
        assert_eq!(out, Output::Class(2), "majority, not weight, wins");
        assert!((conf - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn build_policy_maps_kinds() {
        assert_eq!(build_policy(&PolicyKind::Exp3 { eta: 0.1 }).name(), "exp3");
        assert_eq!(build_policy(&PolicyKind::Exp4 { eta: 0.1 }).name(), "exp4");
        assert_eq!(
            build_policy(&PolicyKind::MajorityVote).name(),
            "majority-vote"
        );
        assert_eq!(
            build_policy(&PolicyKind::Static { model_index: 0 }).name(),
            "static"
        );
    }

    #[test]
    fn exp4_recovers_when_degraded_model_heals() {
        // Miniature Figure 8: model 1 is best, degrades, recovers.
        let p = Exp4Policy::new(0.4);
        let ms = models(2);
        let mut s = p.init(&ms, 3);
        let phase = |s: &mut PolicyState, rounds: u64, m1_good: bool, start: u64| {
            for r in 0..rounds {
                let x = input(start + r);
                let truth_label = (r % 2) as u32;
                let mut preds = HashMap::new();
                // Model 0 always answers 0: right 50% of the time.
                preds.insert(ms[0].clone(), Output::Class(0));
                // Model 1 answers the truth when healthy (100%), and the
                // opposite when degraded (0%).
                let m1_answer = if m1_good {
                    truth_label
                } else {
                    1 - truth_label
                };
                preds.insert(ms[1].clone(), Output::Class(m1_answer));
                p.observe(s, &x, &Feedback::class(truth_label), &preds);
            }
        };
        phase(&mut s, 200, true, 0);
        let w_good = s.probabilities()[1];
        phase(&mut s, 200, false, 1_000);
        let w_degraded = s.probabilities()[1];
        phase(&mut s, 400, true, 2_000);
        let w_recovered = s.probabilities()[1];
        assert!(w_good > 0.6, "initially dominant: {w_good}");
        assert!(w_degraded < w_good, "degradation sheds weight");
        assert!(w_recovered > w_degraded, "recovery regains weight");
    }
}
