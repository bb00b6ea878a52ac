//! Linear models: multinomial logistic regression and one-vs-rest linear SVM.
//!
//! Both predict with one dense dot product per class — the "fast" end of
//! Figure 3's latency spectrum. Training is plain SGD; determinism comes
//! from the caller-provided seed.

use super::Model;
use crate::datasets::Dataset;
use crate::linalg::{axpy, dot, softmax};
use rand::prelude::*;

/// Rocchio-style warm start shared by both linear models: initialize each
/// one-vs-rest separator at the nearest-centroid discriminant
/// (w = 2·m̂_c, b = -‖m̂_c‖²), rescaled so initial |scores| are O(1). In
/// the high-dimensional low-sample regime this is close to the Bayes
/// direction, and SGD then refines margins/calibration instead of having
/// to find the direction from scratch.
fn rocchio_init(dataset: &Dataset, k: usize, d: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
    let mut weights = vec![vec![0.0f32; d]; k];
    let mut bias = vec![0.0f32; k];
    let mut counts = vec![0usize; k];
    for ex in &dataset.train {
        counts[ex.y as usize] += 1;
        for (w, &x) in weights[ex.y as usize].iter_mut().zip(ex.x.iter()) {
            *w += x;
        }
    }
    for c in 0..k {
        let n = counts[c].max(1) as f32;
        for w in weights[c].iter_mut() {
            *w = 2.0 * *w / n;
        }
        bias[c] = -weights[c].iter().map(|w| w * w).sum::<f32>() / 4.0;
    }
    let mut score_sum = 0.0f32;
    let mut score_n = 0usize;
    for ex in dataset.train.iter().take(50) {
        for c in 0..k {
            score_sum += (dot(&weights[c], &ex.x) + bias[c]).abs();
            score_n += 1;
        }
    }
    if score_sum > 0.0 {
        let beta = score_n as f32 / score_sum;
        for c in 0..k {
            for w in weights[c].iter_mut() {
                *w *= beta;
            }
            bias[c] *= beta;
        }
    }
    (weights, bias)
}

/// Hyperparameters for [`LogisticRegression::train`].
#[derive(Clone, Debug)]
pub struct LogisticRegressionConfig {
    /// SGD epochs over the training set.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// L2 regularization strength.
    pub l2: f32,
}

impl Default for LogisticRegressionConfig {
    fn default() -> Self {
        LogisticRegressionConfig {
            epochs: 5,
            lr: 0.5,
            l2: 1e-4,
        }
    }
}

/// Multinomial (softmax) logistic regression.
pub struct LogisticRegression {
    name: String,
    /// Row-major weights: `num_classes` rows of `num_features`.
    weights: Vec<Vec<f32>>,
    bias: Vec<f32>,
}

impl LogisticRegression {
    /// Train with softmax cross-entropy SGD on the dataset's train split,
    /// warm-started from the Rocchio centroid discriminant (the same init
    /// [`LinearSvm::train`] uses) so SGD refines calibration instead of
    /// finding the class directions from scratch.
    pub fn train(dataset: &Dataset, cfg: &LogisticRegressionConfig, seed: u64) -> Self {
        let k = dataset.num_classes();
        let d = dataset.num_features();
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut weights, mut bias) = rocchio_init(dataset, k, d);

        let mut order: Vec<usize> = (0..dataset.train.len()).collect();
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let ex = &dataset.train[i];
                let mut scores: Vec<f32> = weights
                    .iter()
                    .zip(bias.iter())
                    .map(|(w, &b)| dot(w, &ex.x) + b)
                    .collect();
                softmax(&mut scores);
                for (c, w) in weights.iter_mut().enumerate() {
                    let target = if c as u32 == ex.y { 1.0 } else { 0.0 };
                    let g = scores[c] - target; // dCE/dlogit
                    if g != 0.0 {
                        axpy(-cfg.lr * g, &ex.x, w);
                    }
                    if cfg.l2 > 0.0 {
                        for v in w.iter_mut() {
                            *v *= 1.0 - cfg.lr * cfg.l2;
                        }
                    }
                    bias[c] -= cfg.lr * g;
                }
            }
        }
        LogisticRegression {
            name: "logistic-regression".into(),
            weights,
            bias,
        }
    }
}

impl Model for LogisticRegression {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_classes(&self) -> usize {
        self.weights.len()
    }
    fn scores(&self, x: &[f32]) -> Vec<f32> {
        let mut s: Vec<f32> = self
            .weights
            .iter()
            .zip(self.bias.iter())
            .map(|(w, &b)| dot(w, x) + b)
            .collect();
        softmax(&mut s);
        s
    }
}

/// Hyperparameters for [`LinearSvm::train`].
#[derive(Clone, Debug)]
pub struct LinearSvmConfig {
    /// SGD epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// L2 regularization strength (SVM margin term).
    pub l2: f32,
}

impl Default for LinearSvmConfig {
    fn default() -> Self {
        LinearSvmConfig {
            epochs: 5,
            lr: 0.03,
            l2: 1e-4,
        }
    }
}

/// One-vs-rest linear SVM trained with hinge-loss SGD (Pegasos-style).
///
/// Inference is identical in shape to logistic regression (k dot products)
/// but scores are raw margins, not probabilities.
pub struct LinearSvm {
    weights: Vec<Vec<f32>>,
    bias: Vec<f32>,
}

impl LinearSvm {
    /// Train one binary hinge-loss separator per class, warm-started from
    /// the Rocchio centroid discriminant (`rocchio_init`).
    pub fn train(dataset: &Dataset, cfg: &LinearSvmConfig, seed: u64) -> Self {
        let k = dataset.num_classes();
        let d = dataset.num_features();
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut weights, mut bias) = rocchio_init(dataset, k, d);

        let mut order: Vec<usize> = (0..dataset.train.len()).collect();
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let ex = &dataset.train[i];
                for (c, w) in weights.iter_mut().enumerate() {
                    let y = if c as u32 == ex.y { 1.0f32 } else { -1.0 };
                    let margin = y * (dot(w, &ex.x) + bias[c]);
                    if cfg.l2 > 0.0 {
                        for v in w.iter_mut() {
                            *v *= 1.0 - cfg.lr * cfg.l2;
                        }
                    }
                    if margin < 1.0 {
                        axpy(cfg.lr * y, &ex.x, w);
                        bias[c] += cfg.lr * y;
                    }
                }
            }
        }
        LinearSvm { weights, bias }
    }
}

impl Model for LinearSvm {
    fn name(&self) -> &str {
        "linear-svm"
    }
    fn num_classes(&self) -> usize {
        self.weights.len()
    }
    fn scores(&self, x: &[f32]) -> Vec<f32> {
        self.weights
            .iter()
            .zip(self.bias.iter())
            .map(|(w, &b)| dot(w, x) + b)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetSpec;
    use crate::eval::accuracy;

    fn small_ds() -> Dataset {
        DatasetSpec::speech_like()
            .with_train_size(390)
            .with_test_size(195)
            .with_difficulty(0.35)
            .generate(21)
    }

    #[test]
    fn logistic_regression_learns() {
        let ds = small_ds();
        let m = LogisticRegression::train(&ds, &LogisticRegressionConfig::default(), 1);
        let acc = accuracy(&m, &ds.test);
        assert!(acc > 0.7, "accuracy {acc}");
        assert_eq!(m.num_classes(), 39);
    }

    #[test]
    fn logistic_scores_are_probabilities() {
        let ds = small_ds();
        let m = LogisticRegression::train(&ds, &LogisticRegressionConfig::default(), 1);
        let s = m.scores(&ds.test[0].x);
        assert_eq!(s.len(), 39);
        let sum: f32 = s.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn linear_svm_learns() {
        let ds = small_ds();
        let m = LinearSvm::train(&ds, &LinearSvmConfig::default(), 1);
        let acc = accuracy(&m, &ds.test);
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let ds = small_ds();
        let a = LinearSvm::train(&ds, &LinearSvmConfig::default(), 9);
        let b = LinearSvm::train(&ds, &LinearSvmConfig::default(), 9);
        assert_eq!(a.scores(&ds.test[0].x), b.scores(&ds.test[0].x));
    }

    /// Both warm-started linear models converge across the Table-1
    /// dataset shapes (MNIST-like 784×10, CIFAR-like 3072×10, speech-like
    /// 425×39), far above the 10% / 10% / 2.6% chance rates.
    #[test]
    fn warm_start_converges_on_table1_shapes() {
        let shapes = [
            ("mnist", DatasetSpec::mnist_like(), 40, 0.90),
            ("cifar", DatasetSpec::cifar_like(), 40, 0.60),
            ("speech", DatasetSpec::speech_like(), 12, 0.90),
        ];
        for (name, spec, per_class, threshold) in shapes {
            let classes = spec.num_classes;
            let ds = spec
                .with_train_size(classes * per_class)
                .with_test_size(classes * 10)
                .with_difficulty(0.25)
                .generate(7);
            let logreg = LogisticRegression::train(&ds, &LogisticRegressionConfig::default(), 1);
            let svm = LinearSvm::train(&ds, &LinearSvmConfig::default(), 1);
            let acc_lr = accuracy(&logreg, &ds.test);
            let acc_svm = accuracy(&svm, &ds.test);
            assert!(
                acc_lr > threshold,
                "{name}: warm-started logreg accuracy {acc_lr}"
            );
            assert!(
                acc_svm > threshold,
                "{name}: warm-started svm accuracy {acc_svm}"
            );
        }
    }
}
