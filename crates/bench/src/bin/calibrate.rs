//! Calibration probes.
//!
//! Default mode times a representative model container across batch
//! sizes and least-squares fits the latency curve `latency(b) ≈ α + β·b`
//! (§4.4.1), printing it as JSON. The fit is a measurement of that
//! container, not a config input: each replica's online latency model
//! learns its own curve, and a returning fleet member warm-starts only
//! from the curve harvested from its own queue.
//!
//! `--accuracy` runs the original model-error-vs-difficulty probes used
//! to pick experiment constants; they are unrelated to latency.

use clipper_ml::datasets::DatasetSpec;
use clipper_ml::eval::{accuracy, top_k_accuracy};
use clipper_ml::models::*;
use std::time::Instant;

fn main() {
    if std::env::args().any(|a| a == "--accuracy") {
        accuracy_probes();
    } else {
        latency_calibration();
    }
}

/// Time `predict_batch` over a sweep of batch sizes and fit α + β·b.
fn latency_calibration() {
    // A representative container: an MLP over cifar-like features sits
    // in the middle of the model zoo cost-wise.
    let ds = DatasetSpec::cifar_like()
        .with_train_size(600)
        .with_test_size(512)
        .with_difficulty(0.18)
        .generate(17);
    let model = Mlp::train(
        &ds,
        &MlpConfig {
            hidden: vec![64],
            epochs: 3,
            lr: 0.08,
        },
        1,
    );

    let pool: Vec<&[f32]> = ds.test.iter().map(|e| e.x.as_slice()).collect();
    let sweep: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];
    const REPS: usize = 25;

    // Warm up caches/allocator so the b=1 point is not polluted.
    for _ in 0..3 {
        let _ = model.predict_batch(&pool[..64.min(pool.len())]);
    }

    println!("batch  mean_us");
    let mut points: Vec<(f64, f64)> = Vec::with_capacity(sweep.len());
    for &b in sweep {
        let batch: Vec<&[f32]> = (0..b).map(|i| pool[i % pool.len()]).collect();
        let start = Instant::now();
        for _ in 0..REPS {
            let labels = model.predict_batch(&batch);
            assert_eq!(labels.len(), b);
        }
        let mean_us = start.elapsed().as_secs_f64() * 1e6 / REPS as f64;
        println!("{b:>5}  {mean_us:>8.1}");
        points.push((b as f64, mean_us));
    }

    let (alpha_us, beta_us) = least_squares(&points);
    // Clamp to non-negative so a noisy intercept cannot report a
    // nonsense curve.
    let alpha_us = alpha_us.max(0.0);
    let beta_us = beta_us.max(0.0);
    println!("fitted: latency(b) ≈ {alpha_us:.1}µs + {beta_us:.2}µs·b");
    println!("{{\"alpha_us\": {alpha_us:.1}, \"beta_us\": {beta_us:.2}}}");
}

/// Ordinary least squares over (b, latency) points: (intercept, slope).
fn least_squares(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let mean_b = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_l = points.iter().map(|p| p.1).sum::<f64>() / n;
    let var: f64 = points.iter().map(|p| (p.0 - mean_b).powi(2)).sum();
    let cov: f64 = points.iter().map(|p| (p.0 - mean_b) * (p.1 - mean_l)).sum();
    let beta = if var > 0.0 { cov / var } else { 0.0 };
    (mean_l - beta * mean_b, beta)
}

fn accuracy_probes() {
    println!("cifar-like n=900 (fig7 zoo): err by difficulty");
    for difficulty in [0.12f32, 0.18, 0.25] {
        let ds = DatasetSpec::cifar_like()
            .with_train_size(900)
            .with_test_size(400)
            .with_difficulty(difficulty)
            .generate(11);
        let svm = LinearSvm::train(
            &ds,
            &LinearSvmConfig {
                epochs: 3,
                ..Default::default()
            },
            3,
        );
        let lr = LogisticRegression::train(
            &ds,
            &LogisticRegressionConfig {
                epochs: 3,
                ..Default::default()
            },
            2,
        );
        let mlp = Mlp::train(
            &ds,
            &MlpConfig {
                hidden: vec![48],
                epochs: 4,
                lr: 0.08,
            },
            1,
        );
        let rf = RandomForest::train(
            &ds,
            &RandomForestConfig {
                num_trees: 12,
                ..Default::default()
            },
            4,
        );
        let knn = Knn::train(
            &ds,
            &KnnConfig {
                k: 5,
                max_references: 1_000,
            },
            5,
        );
        println!(
            "  d={difficulty}: svm={:.3} lr={:.3} mlp={:.3} rf={:.3} knn={:.3}",
            1.0 - accuracy(&svm, &ds.test),
            1.0 - accuracy(&lr, &ds.test),
            1.0 - accuracy(&mlp, &ds.test),
            1.0 - accuracy(&rf, &ds.test),
            1.0 - accuracy(&knn, &ds.test),
        );
    }
    println!("imagenet-like 200 classes n=5000: logreg top-5 err");
    for difficulty in [0.12f32, 0.18, 0.25] {
        let mut spec = DatasetSpec::imagenet_like();
        spec.num_classes = 200;
        let ds = spec
            .with_train_size(5_000)
            .with_test_size(300)
            .with_difficulty(difficulty)
            .generate(13);
        let m = LogisticRegression::train(
            &ds,
            &LogisticRegressionConfig {
                epochs: 2,
                ..Default::default()
            },
            3,
        );
        println!(
            "  d={difficulty}: top5 err={:.3}",
            1.0 - top_k_accuracy(&m, &ds.test, 5)
        );
    }
    println!("mnist-like: linear svm err (fig8 staggering)");
    for difficulty in [0.2f32, 0.3] {
        for train in [30usize, 80, 200, 800, 1600] {
            let ds = DatasetSpec::mnist_like()
                .with_train_size(train)
                .with_test_size(400)
                .with_difficulty(difficulty)
                .generate(31);
            let m = LinearSvm::train(&ds, &LinearSvmConfig::default(), 3);
            println!(
                "  d={difficulty} n={train}: err={:.3}",
                1.0 - accuracy(&m, &ds.test)
            );
        }
    }
    println!("mnist-like single trees (fig9): err by difficulty");
    for difficulty in [0.2f32, 0.3] {
        let ds = DatasetSpec::mnist_like()
            .with_train_size(900)
            .with_test_size(400)
            .with_difficulty(difficulty)
            .generate(23);
        let tree = DecisionTree::train(
            &ds,
            &DecisionTreeConfig {
                max_depth: 8,
                feature_subsample: Some(48),
                ..Default::default()
            },
            3,
        );
        let rf = RandomForest::train(
            &ds,
            &RandomForestConfig {
                num_trees: 16,
                ..Default::default()
            },
            4,
        );
        println!(
            "  d={difficulty}: tree={:.3} rf16={:.3}",
            1.0 - accuracy(&tree, &ds.test),
            1.0 - accuracy(&rf, &ds.test)
        );
    }
}
