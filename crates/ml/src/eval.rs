//! Loss functions and evaluation helpers.
//!
//! The selection layer consumes losses in `[0, 1]` (the Exp3/Exp4 contract
//! from §5.1): zero-one loss for classification, phoneme error rate for
//! speech.

use crate::datasets::Example;
use crate::models::{Label, Model};

/// Fraction of examples a model classifies correctly.
pub fn accuracy<M: Model + ?Sized>(model: &M, examples: &[Example]) -> f64 {
    if examples.is_empty() {
        return 0.0;
    }
    let correct = examples
        .iter()
        .filter(|e| model.predict(&e.x) == e.y)
        .count();
    correct as f64 / examples.len() as f64
}

/// Error rate between two label sequences of equal length (per-position
/// mismatches / length) — the speech "fraction of the transcription wrong"
/// loss from §5.1. Sequences of different lengths count the length gap as
/// errors.
pub fn sequence_error_rate(truth: &[Label], pred: &[Label]) -> f64 {
    if truth.is_empty() && pred.is_empty() {
        return 0.0;
    }
    let len = truth.len().max(pred.len());
    let mismatches = truth
        .iter()
        .zip(pred.iter())
        .filter(|(t, p)| t != p)
        .count()
        + truth.len().abs_diff(pred.len());
    mismatches as f64 / len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::NoOpModel;

    #[test]
    fn accuracy_of_noop_on_class_zero() {
        let m = NoOpModel::new(2);
        let examples = vec![
            Example { x: vec![0.0], y: 0 },
            Example { x: vec![0.0], y: 1 },
            Example { x: vec![0.0], y: 0 },
        ];
        assert!((accuracy(&m, &examples) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(accuracy(&m, &[]), 0.0);
    }

    #[test]
    fn sequence_error_rate_basics() {
        assert_eq!(sequence_error_rate(&[1, 2, 3], &[1, 2, 3]), 0.0);
        assert_eq!(sequence_error_rate(&[1, 2, 3], &[1, 0, 3]), 1.0 / 3.0);
        assert_eq!(sequence_error_rate(&[], &[]), 0.0);
        // Length mismatch counts missing positions as errors.
        assert_eq!(sequence_error_rate(&[1, 2], &[1, 2, 3, 4]), 0.5);
    }
}
