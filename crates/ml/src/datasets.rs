//! Seeded synthetic datasets shaped after the paper's Table 1.
//!
//! Each dataset is a Gaussian mixture with **sparse class means**: every
//! class concentrates its signal on a small subset of dimensions (the way
//! digit pixels carry class information), with unit total energy. Examples
//! are mean plus isotropic noise whose per-dimension σ does *not* shrink
//! with dimensionality, so the `difficulty` knob is a direct
//! noise-to-margin ratio:
//!
//! - linear-model pairwise discriminability `z ≈ 1/difficulty`
//!   (difficulty 0.3 → ~99.9% pairwise, 0.5 → ~98%, 0.8 → ~80%);
//! - sparse means keep per-feature signal large enough that trees and
//!   forests learn real splits, as they do on image data.
//!
//! This tunability lets the selection-layer experiments (Figures 7–10)
//! build ensembles of models with *distinct, controllable* error rates.
//!
//! The full Table-1 corpora (70K MNIST images, 1.26M ImageNet images) are
//! impractical to regenerate per test run; specs default to scaled-down
//! sizes but carry the paper's full-size numbers for reporting
//! ([`DatasetSpec::paper_size`]).

use rand::prelude::*;
use rand_distr::Normal;

/// One labeled example: dense feature vector plus class label.
#[derive(Clone, Debug)]
pub struct Example {
    /// Dense feature vector.
    pub x: Vec<f32>,
    /// Class label in `0..num_classes`.
    pub y: u32,
}

/// Specification for a synthetic dataset generator.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Human-readable name ("mnist-like", ...).
    pub name: String,
    /// Feature dimensionality.
    pub num_features: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Number of training examples to generate.
    pub train_size: usize,
    /// Number of held-out test examples to generate.
    pub test_size: usize,
    /// Noise-to-margin ratio in (0, ∞): higher is harder. 0.3 is nearly
    /// separable, 0.5 gives Bayes error in the few-percent range, 0.8+
    /// produces the 10–40% error bands of the paper's benchmark models.
    pub difficulty: f32,
    /// The corpus size reported in the paper's Table 1 (for reporting only).
    pub paper_size: usize,
}

impl DatasetSpec {
    /// MNIST-shaped: 28×28 grayscale → 784 features, 10 classes.
    pub fn mnist_like() -> Self {
        DatasetSpec {
            name: "mnist-like".into(),
            num_features: 28 * 28,
            num_classes: 10,
            train_size: 2_000,
            test_size: 500,
            difficulty: 0.35,
            paper_size: 70_000,
        }
    }

    /// CIFAR-10-shaped: 32×32×3 → 3072 features, 10 classes.
    pub fn cifar_like() -> Self {
        DatasetSpec {
            name: "cifar-like".into(),
            num_features: 32 * 32 * 3,
            num_classes: 10,
            train_size: 1_500,
            test_size: 500,
            difficulty: 0.25,
            paper_size: 60_000,
        }
    }

    /// ImageNet-shaped: high-dimensional, many classes. The paper uses
    /// 299×299×3 inputs and 1000 classes; we keep 1000 classes but a
    /// 2048-dim feature space (the dimensionality of a conv-net's
    /// penultimate layer, which is what serving systems actually move).
    pub fn imagenet_like() -> Self {
        DatasetSpec {
            name: "imagenet-like".into(),
            num_features: 2_048,
            num_classes: 1_000,
            train_size: 4_000,
            test_size: 1_000,
            difficulty: 0.2,
            paper_size: 1_260_000,
        }
    }

    /// TIMIT-shaped frame classification: 39 phoneme classes over MFCC-like
    /// 39-dim frames (13 coefficients × 3 derivatives). The sequence-level
    /// speech workload lives in [`crate::speech`].
    pub fn speech_like() -> Self {
        DatasetSpec {
            name: "speech-like".into(),
            num_features: 39,
            num_classes: 39,
            train_size: 3_000,
            test_size: 800,
            difficulty: 0.35,
            paper_size: 6_300,
        }
    }

    /// Override the number of training examples.
    pub fn with_train_size(mut self, n: usize) -> Self {
        self.train_size = n;
        self
    }

    /// Override the number of test examples.
    pub fn with_test_size(mut self, n: usize) -> Self {
        self.test_size = n;
        self
    }

    /// Override the difficulty (noise-to-separation ratio).
    pub fn with_difficulty(mut self, d: f32) -> Self {
        self.difficulty = d;
        self
    }

    /// Generate the dataset deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        // Sparse unit-energy class means: each class activates a small set
        // of dimensions. Pairwise mean distance ≈ √2 (near-disjoint
        // supports), so per-dimension noise of 0.7·difficulty puts the
        // pairwise linear discriminability at z ≈ 1/difficulty.
        let noise_sigma = 0.7 * self.difficulty;
        let normal = Normal::new(0.0f32, 1.0f32).expect("unit normal");
        let k_active = (self.num_features / 8).clamp(8, 64).min(self.num_features);

        let mut means = Vec::with_capacity(self.num_classes);
        for _ in 0..self.num_classes {
            let mut m = vec![0.0f32; self.num_features];
            let mut dims: Vec<usize> = (0..self.num_features).collect();
            dims.shuffle(&mut rng);
            let amplitude = 1.0 / (k_active as f32).sqrt();
            for &dim in dims.iter().take(k_active) {
                let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
                m[dim] = sign * amplitude * (0.5 + normal.sample(&mut rng).abs());
            }
            // Renormalize to unit energy so difficulty stays calibrated.
            let norm = m.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
            for v in m.iter_mut() {
                *v /= norm;
            }
            means.push(m);
        }

        let noise = Normal::new(0.0f32, noise_sigma).expect("noise normal");
        let gen_split = |n: usize, rng: &mut StdRng| -> Vec<Example> {
            (0..n)
                .map(|i| {
                    let y = (i % self.num_classes) as u32;
                    let mean = &means[y as usize];
                    let x: Vec<f32> = mean.iter().map(|&m| m + noise.sample(rng)).collect();
                    Example { x, y }
                })
                .collect()
        };

        let mut train = gen_split(self.train_size, &mut rng);
        let test = gen_split(self.test_size, &mut rng);
        train.shuffle(&mut rng);

        Dataset {
            spec: self.clone(),
            class_means: means,
            train,
            test,
        }
    }
}

/// A generated dataset: train/test splits plus the generating mixture.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// The spec this dataset was generated from.
    pub spec: DatasetSpec,
    /// True class means (available to tests that need a Bayes-optimal
    /// reference; serving code never looks at these).
    pub class_means: Vec<Vec<f32>>,
    /// Training examples, shuffled.
    pub train: Vec<Example>,
    /// Held-out test examples.
    pub test: Vec<Example>,
}

impl Dataset {
    /// Feature dimensionality.
    pub fn num_features(&self) -> usize {
        self.spec.num_features
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.spec.num_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::mnist_like()
            .with_train_size(50)
            .with_test_size(10);
        let a = spec.generate(7);
        let b = spec.generate(7);
        assert_eq!(a.train.len(), 50);
        assert_eq!(a.test.len(), 10);
        assert_eq!(a.train[0].x, b.train[0].x);
        assert_eq!(a.test[3].y, b.test[3].y);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = DatasetSpec::mnist_like()
            .with_train_size(10)
            .with_test_size(5);
        let a = spec.generate(1);
        let b = spec.generate(2);
        assert_ne!(a.train[0].x, b.train[0].x);
    }

    #[test]
    fn shapes_match_table_1() {
        assert_eq!(DatasetSpec::mnist_like().num_features, 784);
        assert_eq!(DatasetSpec::mnist_like().num_classes, 10);
        assert_eq!(DatasetSpec::cifar_like().num_features, 3072);
        assert_eq!(DatasetSpec::imagenet_like().num_classes, 1000);
        assert_eq!(DatasetSpec::speech_like().num_classes, 39);
        assert_eq!(DatasetSpec::mnist_like().paper_size, 70_000);
    }

    #[test]
    fn labels_are_balanced_and_in_range() {
        let d = DatasetSpec::mnist_like()
            .with_train_size(100)
            .with_test_size(20)
            .generate(3);
        let mut counts = [0usize; 10];
        for e in &d.train {
            assert!((e.y as usize) < 10);
            counts[e.y as usize] += 1;
        }
        // 100 examples over 10 classes round-robin: exactly 10 each.
        assert!(counts.iter().all(|&c| c == 10));
    }

    #[test]
    fn nearest_mean_classifier_beats_chance() {
        // Sanity-check the generator: the Bayes-ish classifier (nearest
        // class mean) must do far better than 10% on an easy dataset.
        let d = DatasetSpec::mnist_like()
            .with_train_size(10)
            .with_test_size(200)
            .with_difficulty(0.35)
            .generate(11);
        let correct = d
            .test
            .iter()
            .filter(|e| {
                let pred = d
                    .class_means
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        crate::linalg::sq_dist(&e.x, a)
                            .partial_cmp(&crate::linalg::sq_dist(&e.x, b))
                            .unwrap()
                    })
                    .map(|(i, _)| i as u32)
                    .unwrap();
                pred == e.y
            })
            .count();
        assert!(
            correct as f64 / d.test.len() as f64 > 0.8,
            "nearest-mean accuracy {}/{}",
            correct,
            d.test.len()
        );
    }
}
