//! Brute-force k-nearest-neighbors classifier.
//!
//! Like the kernel SVM, inference cost scales with the training set —
//! useful as a second "expensive" container profile in experiments.

use super::{Label, Model};
use crate::datasets::Dataset;
use crate::linalg::sq_dist;

/// Hyperparameters for [`Knn::train`].
#[derive(Clone, Debug)]
pub struct KnnConfig {
    /// Number of neighbors that vote.
    pub k: usize,
    /// Cap on stored reference examples (first N of the train split).
    pub max_references: usize,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig {
            k: 5,
            max_references: 2_000,
        }
    }
}

/// k-NN over a stored reference set; scores are neighbor-vote fractions
/// weighted by inverse distance.
pub struct Knn {
    name: String,
    num_classes: usize,
    k: usize,
    refs: Vec<(Vec<f32>, Label)>,
}

impl Knn {
    /// "Training" = storing (up to `max_references`) examples.
    pub fn train(dataset: &Dataset, cfg: &KnnConfig, _seed: u64) -> Self {
        let refs = dataset
            .train
            .iter()
            .take(cfg.max_references)
            .map(|e| (e.x.clone(), e.y))
            .collect();
        Knn {
            name: "knn".into(),
            num_classes: dataset.num_classes(),
            k: cfg.k.max(1),
            refs,
        }
    }
}

impl Model for Knn {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_classes(&self) -> usize {
        self.num_classes
    }
    fn scores(&self, x: &[f32]) -> Vec<f32> {
        // Partial selection of the k nearest by linear scan.
        let mut nearest: Vec<(f32, Label)> = Vec::with_capacity(self.k + 1);
        for (rx, ry) in &self.refs {
            let d = sq_dist(rx, x);
            if nearest.len() < self.k {
                nearest.push((d, *ry));
                nearest.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            } else if let Some(last) = nearest.last() {
                if d < last.0 {
                    nearest.pop();
                    nearest.push((d, *ry));
                    nearest.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                }
            }
        }
        let mut s = vec![0.0f32; self.num_classes];
        for (d, y) in nearest {
            s[y as usize] += 1.0 / (1.0 + d);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetSpec;
    use crate::eval::accuracy;

    #[test]
    fn knn_learns() {
        let ds = DatasetSpec::speech_like()
            .with_train_size(390)
            .with_test_size(100)
            .with_difficulty(0.3)
            .generate(77);
        let m = Knn::train(&ds, &KnnConfig::default(), 0);
        let acc = accuracy(&m, &ds.test);
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    fn reference_budget_enforced() {
        let ds = DatasetSpec::speech_like()
            .with_train_size(100)
            .with_test_size(10)
            .generate(77);
        let m = Knn::train(
            &ds,
            &KnnConfig {
                k: 3,
                max_references: 40,
            },
            0,
        );
        assert_eq!(m.refs.len(), 40);
    }

    #[test]
    fn k_of_one_matches_nearest_reference_label() {
        let ds = DatasetSpec::speech_like()
            .with_train_size(50)
            .with_test_size(1)
            .generate(77);
        let m = Knn::train(
            &ds,
            &KnnConfig {
                k: 1,
                max_references: 50,
            },
            0,
        );
        // Query an exact training point: its own label must win.
        let e = &ds.train[7];
        assert_eq!(m.predict(&e.x), e.y);
    }
}
