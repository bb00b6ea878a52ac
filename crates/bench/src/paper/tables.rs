//! Tables 1 and 2, and Figure 3's container latency profiles with the
//! `α + β·b` least-squares fit of each.

use super::{Paper, Shape};
use crate::harness::Op;
use crate::profile_container;
use clipper_containers::{table2_zoo, Fig3Model};
use clipper_metrics::Histogram;
use clipper_ml::datasets::DatasetSpec;
use clipper_ml::eval::accuracy;
use clipper_ml::models::{LogisticRegression, LogisticRegressionConfig, Mlp, MlpConfig, Model};
use serde::Serialize;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Table1Row {
    dataset: String,
    /// The paper's corpus size.
    paper_size: usize,
    train: usize,
    test: usize,
    features: usize,
    /// The paper's features per example, where it states a count.
    paper_features: Option<usize>,
    labels: usize,
    /// The paper's label count (none for the scaled 200-class variant).
    paper_labels: Option<usize>,
    /// A reference logistic regression's holdout accuracy: the generator
    /// produces learnable data.
    logreg_holdout_acc: f64,
}

/// Table 1's dimensions: every paper dataset's label count is the paper's.
fn table1_shapes(rows: &[Table1Row]) -> Vec<Shape> {
    let matching = rows
        .iter()
        .filter(|r| r.paper_labels == Some(r.labels))
        .count();
    vec![Shape::new(
        "table1.paper_label_counts_matched",
        "MNIST 10, CIFAR 10, ImageNet 1000, Speech 39 labels",
        matching as f64,
        Op::Equals,
        4.0,
    )]
}

pub(super) async fn table1(p: &mut Paper<'_>) {
    let mut scaled = DatasetSpec::imagenet_like();
    scaled.num_classes = 200;
    scaled.name = "imagenet-like (200c)".into();
    // (spec, paper features, paper labels): 28×28, 32×32×3, 299×299×3
    // pixels; speech is 5 s utterances, no fixed feature count.
    let specs = [
        (DatasetSpec::mnist_like(), Some(784), Some(10)),
        (DatasetSpec::cifar_like(), Some(3_072), Some(10)),
        (
            DatasetSpec::imagenet_like()
                .with_train_size(1_000)
                .with_test_size(300),
            Some(268_203),
            Some(1_000),
        ),
        (
            scaled.with_train_size(5_000).with_test_size(300),
            None,
            None,
        ),
        (DatasetSpec::speech_like(), None, Some(39)),
    ];
    let rows: Vec<Table1Row> = specs
        .into_iter()
        .map(|(spec, paper_features, paper_labels)| {
            // Smoke trains the reference model on a tenth of the data.
            let train = spec.train_size / if p.smoke { 10 } else { 1 };
            let spec = spec.with_train_size(train);
            let ds = spec.generate(42);
            let cfg = LogisticRegressionConfig {
                epochs: 2,
                ..Default::default()
            };
            let model = LogisticRegression::train(&ds, &cfg, 7);
            Table1Row {
                logreg_holdout_acc: accuracy(&model, &ds.test),
                dataset: spec.name,
                paper_size: spec.paper_size,
                train: spec.train_size,
                test: spec.test_size,
                features: spec.num_features,
                paper_features,
                labels: spec.num_classes,
                paper_labels,
            }
        })
        .collect();
    p.rows("table1", &rows);
    p.shapes(table1_shapes(&rows));
}

#[derive(Serialize)]
struct Table2Row {
    model: String,
    layers: String,
    paper_layers: &'static str,
    wave_size: usize,
    wave_time_ms: f64,
    peak_qps: f64,
}

/// Table 2's layers, in the zoo's order.
const TABLE2_PAPER_LAYERS: [&str; 5] = [
    "13 Conv. and 3 FC",
    "96 Conv. and 5 FC",
    "151 Conv. and 1 FC",
    "5 Conv. and 3 FC",
    "6 Conv, 1 FC, & 3 Incept.",
];

/// Table 2's dimensions: every zoo model's layers are the paper's.
fn table2_shapes(rows: &[Table2Row]) -> Vec<Shape> {
    let matching = rows.iter().filter(|r| r.layers == r.paper_layers).count();
    vec![Shape::new(
        "table2.paper_layers_matched",
        "VGG, GoogLeNet, ResNet, CaffeNet, Inception",
        matching as f64,
        Op::Equals,
        TABLE2_PAPER_LAYERS.len() as f64,
    )]
}

pub(super) async fn table2(p: &mut Paper<'_>) {
    let rows: Vec<Table2Row> = table2_zoo()
        .into_iter()
        .zip(TABLE2_PAPER_LAYERS)
        .map(|(spec, paper_layers)| Table2Row {
            peak_qps: spec.peak_throughput(),
            wave_time_ms: spec.wave_time.as_secs_f64() * 1e3,
            model: spec.name,
            layers: spec.layers,
            paper_layers,
            wave_size: spec.wave_size,
        })
        .collect();
    p.rows("table2", &rows);
    p.shapes(table2_shapes(&rows));
}

#[derive(Serialize)]
struct Fig3Point {
    container: &'static str,
    batch: usize,
    mean_us: f64,
    p99_us: u64,
}

#[derive(Serialize)]
struct Fig3Fit {
    container: &'static str,
    /// Least-squares `latency(b) ≈ α + β·b` over the measured points.
    alpha_us: f64,
    beta_us: f64,
    /// The profile's configured `α`, `β` (none for the measured MLP).
    profile_alpha_us: Option<f64>,
    profile_beta_us: Option<f64>,
    /// The largest swept batch whose p99 meets the 20 ms SLO.
    max_batch_under_slo: Option<usize>,
}

const LINEAR_SVM: &str = "Linear SVM (SKLearn)";
const KERNEL_SVM: &str = "Kernel SVM (SKLearn)";

/// Figure 3's spread: the linear SVM fits a far larger batch under the
/// SLO than the kernel SVM.
fn fig3_shapes(fits: &[Fig3Fit]) -> Vec<Shape> {
    let max_batch = |name| {
        fits.iter()
            .find(|f| f.container == name)
            .and_then(|f| f.max_batch_under_slo)
            .map_or(f64::NAN, |b| b as f64)
    };
    vec![Shape::new(
        "fig3.linear_over_kernel_svm_max_batch",
        "the linear SVM fits a 241x larger batch than the kernel SVM under a 20 ms SLO",
        max_batch(LINEAR_SVM) / max_batch(KERNEL_SVM),
        Op::AtLeast,
        100.0,
    )]
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

pub(super) async fn fig3(p: &mut Paper<'_>) {
    let slo = Duration::from_millis(20);
    let mut points = Vec::new();
    let mut fits = Vec::new();
    for model in Fig3Model::all() {
        let container = profile_container("fig3", model, 42);
        let batch_sizes: Vec<usize> = match model {
            Fig3Model::KernelSvmSklearn => (1..=7).collect(),
            _ => vec![1, 50, 100, 200, 400, 800, 1200, 1600],
        };
        let mut curve = Vec::new();
        let mut max_under_slo = None;
        for b in batch_sizes {
            let hist = Histogram::new();
            let samples = match b {
                _ if p.smoke => 3,
                800.. => 8,
                _ => 15,
            };
            let batch = clipper_rpc::as_inputs(vec![vec![0.0f32; 8]; b]);
            for _ in 0..samples {
                let t0 = Instant::now();
                container.evaluate_blocking(&batch);
                hist.record(t0.elapsed().as_micros() as u64);
            }
            let snap = hist.snapshot();
            if snap.p99() <= slo.as_micros() as u64 {
                max_under_slo = Some(b);
            }
            curve.push((b as f64, snap.mean()));
            points.push(Fig3Point {
                container: model.label(),
                batch: b,
                mean_us: snap.mean(),
                p99_us: snap.p99(),
            });
        }
        let (alpha_us, beta_us) = least_squares(&curve);
        let profile = clipper_containers::fig3_profile(model);
        fits.push(Fig3Fit {
            container: model.label(),
            alpha_us,
            beta_us,
            profile_alpha_us: Some(profile.base.as_secs_f64() * 1e6),
            profile_beta_us: Some(profile.per_item.as_secs_f64() * 1e6),
            max_batch_under_slo: max_under_slo,
        });
    }
    fits.push(mlp_fit(if p.smoke { 5 } else { 25 }));
    p.rows("fig3", &points);
    p.rows("fig3_fit", &fits);
    p.shapes(fig3_shapes(&fits));
}

/// A real model's curve: `predict_batch` of an MLP over CIFAR-shaped
/// features, which sits mid-zoo cost-wise, timed across batch sizes.
fn mlp_fit(reps: usize) -> Fig3Fit {
    let ds = DatasetSpec::cifar_like()
        .with_train_size(600)
        .with_test_size(512)
        .with_difficulty(0.18)
        .generate(17);
    let cfg = MlpConfig {
        hidden: vec![64],
        epochs: 3,
        lr: 0.08,
    };
    let model = Mlp::train(&ds, &cfg, 1);
    let pool: Vec<&[f32]> = ds.test.iter().map(|e| e.x.as_slice()).collect();
    // Warm caches and the allocator so the b=1 point is clean.
    for _ in 0..3 {
        model.predict_batch(&pool[..64]);
    }
    let points: Vec<(f64, f64)> = [1, 2, 4, 8, 16, 32, 64, 128, 256]
        .into_iter()
        .map(|b| {
            let batch: Vec<&[f32]> = (0..b).map(|i| pool[i % pool.len()]).collect();
            let start = Instant::now();
            for _ in 0..reps {
                assert_eq!(model.predict_batch(&batch).len(), b);
            }
            (b as f64, start.elapsed().as_secs_f64() * 1e6 / reps as f64)
        })
        .collect();
    let (alpha_us, beta_us) = least_squares(&points);
    Fig3Fit {
        container: "MLP (measured)",
        alpha_us: alpha_us.max(0.0),
        beta_us: beta_us.max(0.0),
        profile_alpha_us: None,
        profile_beta_us: None,
        max_batch_under_slo: None,
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::all_hold;
    use super::*;

    fn table1_row(labels: usize, paper_labels: Option<usize>) -> Table1Row {
        Table1Row {
            dataset: "d".into(),
            paper_size: 1,
            train: 1,
            test: 1,
            features: 1,
            paper_features: None,
            labels,
            paper_labels,
            logreg_holdout_acc: 0.5,
        }
    }

    #[test]
    fn table1_gate_needs_every_paper_label_count() {
        let mut rows: Vec<_> = [10, 10, 1_000, 39].map(|n| table1_row(n, Some(n))).into();
        rows.push(table1_row(200, None));
        assert!(all_hold(&table1_shapes(&rows)));
        rows[2].labels = 200;
        assert!(!all_hold(&table1_shapes(&rows)));
    }

    #[test]
    fn table2_gate_needs_every_paper_layer_string() {
        let mut rows: Vec<Table2Row> = TABLE2_PAPER_LAYERS
            .map(|l| Table2Row {
                model: "m".into(),
                layers: l.into(),
                paper_layers: l,
                wave_size: 1,
                wave_time_ms: 1.0,
                peak_qps: 1.0,
            })
            .into();
        assert!(all_hold(&table2_shapes(&rows)));
        rows[0].layers = "13 Conv".into();
        assert!(!all_hold(&table2_shapes(&rows)));
    }

    fn fit(container: &'static str, max_batch: Option<usize>) -> Fig3Fit {
        Fig3Fit {
            container,
            alpha_us: 0.0,
            beta_us: 0.0,
            profile_alpha_us: None,
            profile_beta_us: None,
            max_batch_under_slo: max_batch,
        }
    }

    #[test]
    fn fig3_gate_is_the_linear_over_kernel_batch_spread() {
        let pass = [fit(LINEAR_SVM, Some(1_200)), fit(KERNEL_SVM, Some(5))];
        assert!(all_hold(&fig3_shapes(&pass)));
        let fail = [fit(LINEAR_SVM, Some(50)), fit(KERNEL_SVM, Some(5))];
        assert!(!all_hold(&fig3_shapes(&fail)));
        let missing = [fit(LINEAR_SVM, Some(1_200)), fit(KERNEL_SVM, None)];
        assert!(!all_hold(&fig3_shapes(&missing)));
    }

    #[test]
    fn least_squares_recovers_a_line() {
        let (a, b) = least_squares(&[(1.0, 12.0), (2.0, 14.0), (4.0, 18.0)]);
        assert!((a - 10.0).abs() < 1e-9 && (b - 2.0).abs() < 1e-9);
    }
}
