//! Figure 7 — ensemble prediction accuracy with confidence splits.
//!
//! Five models with staggered accuracy (as the paper's Table-2 zoo has) on
//! the CIFAR-shaped (top-1 error) and ImageNet-shaped (top-5 error)
//! benchmarks. Reports:
//! - the single best model's error,
//! - the (uniform) linear ensemble's error,
//! - the error and population share of the "4-agree" and "5-agree"
//!   confidence buckets — the robust-prediction split of §5.2.1.
//!
//! The ImageNet benchmark is scaled to 200 classes so every class has
//! enough training examples on a laptop budget.
//!
//! The binary self-checks against expected-accuracy constants that fold
//! in the Rocchio centroid warm start (PR 1 applied it to `LinearSvm`,
//! PR 2 to `LogisticRegression`): cold-start linear models landed near
//! the paper's 0.0915 best-single CIFAR error, while the warm-started zoo
//! reaches ~0.057 — the constants below are tight enough that losing the
//! warm start fails the run.

use clipper_ml::datasets::{Dataset, DatasetSpec};
use clipper_ml::linalg::top_k;
use clipper_ml::models::{
    LinearSvm, LinearSvmConfig, LogisticRegression, LogisticRegressionConfig, Mlp, MlpConfig, Model,
};
use clipper_workload::Table;
use std::sync::Arc;

/// Five models of comparable quality (as the paper's zoo of strong conv
/// nets): three families at full data plus two re-seeded variants on 80%
/// subsamples — enough diversity for agreement to carry signal, without a
/// weak model dragging the uniform ensemble.
fn train_zoo(ds: &Dataset, with_mlp: bool) -> Vec<Arc<dyn Model>> {
    let mut sub_a = ds.clone();
    sub_a.train.rotate_left(ds.train.len() / 5);
    sub_a.train.truncate(ds.train.len() * 4 / 5);
    let mut sub_b = ds.clone();
    sub_b.train.rotate_left(2 * ds.train.len() / 5);
    sub_b.train.truncate(ds.train.len() * 4 / 5);
    // A small MLP is competitive on 10-class benchmarks but not at 200
    // classes; there the fifth member is another re-seeded linear model.
    let first: Arc<dyn Model> = if with_mlp {
        Arc::new(Mlp::train(
            ds,
            &MlpConfig {
                hidden: vec![48],
                epochs: 4,
                lr: 0.08,
            },
            1,
        ))
    } else {
        let mut sub_c = ds.clone();
        sub_c.train.rotate_left(3 * ds.train.len() / 5);
        sub_c.train.truncate(ds.train.len() * 4 / 5);
        Arc::new(LogisticRegression::train(
            &sub_c,
            &LogisticRegressionConfig {
                epochs: 3,
                ..Default::default()
            },
            6,
        ))
    };
    vec![
        first,
        Arc::new(LogisticRegression::train(
            ds,
            &LogisticRegressionConfig {
                epochs: 3,
                ..Default::default()
            },
            2,
        )),
        Arc::new(LinearSvm::train(
            ds,
            &LinearSvmConfig {
                epochs: 3,
                ..Default::default()
            },
            3,
        )),
        Arc::new(LogisticRegression::train(
            &sub_a,
            &LogisticRegressionConfig {
                epochs: 4,
                ..Default::default()
            },
            4,
        )),
        Arc::new(LogisticRegression::train(
            &sub_b,
            &LogisticRegressionConfig {
                epochs: 3,
                ..Default::default()
            },
            5,
        )),
    ]
}

/// Expected-accuracy ceilings (error rates) under the seeded datasets.
/// Measured post-warm-start: CIFAR best single 0.057 / ensemble 0.068 /
/// 5-agree 0.008; ImageNet best single 0.150 / ensemble 0.128. Margins
/// absorb float noise, not a regression to cold-start training (which
/// lands near 0.09+ on CIFAR best-single).
const MAX_CIFAR_BEST_SINGLE_ERR: f64 = 0.075;
const MAX_CIFAR_ENSEMBLE_ERR: f64 = 0.090;
const MAX_CIFAR_5AGREE_ERR: f64 = 0.030;
const MAX_IMAGENET_BEST_SINGLE_ERR: f64 = 0.180;
const MAX_IMAGENET_ENSEMBLE_ERR: f64 = 0.160;

/// The numbers a benchmark run is graded on.
struct BenchOutcome {
    best_err: f64,
    ens_err: f64,
    err5: f64,
}

/// Whether the true label is in the model's top-k.
fn is_correct(scores: &[f32], truth: u32, k: usize) -> bool {
    top_k(scores, k).contains(&(truth as usize))
}

fn run_benchmark(name: &str, ds: &Dataset, k: usize, table: &mut Table) -> BenchOutcome {
    let zoo = train_zoo(ds, k == 1);

    let mut model_errors = vec![0usize; zoo.len()];
    let mut bucket_total = vec![0usize; zoo.len() + 1];
    let mut bucket_wrong = vec![0usize; zoo.len() + 1];
    let mut ensemble_wrong = 0usize;

    for ex in &ds.test {
        let all_scores: Vec<Vec<f32>> = zoo.iter().map(|m| m.scores(&ex.x)).collect();
        for (mi, s) in all_scores.iter().enumerate() {
            if !is_correct(s, ex.y, k) {
                model_errors[mi] += 1;
            }
        }
        // Uniform linear ensemble: softmax-normalize every model's scores
        // (SVM margins and probabilities live on different scales), then
        // average the resulting distributions.
        let dim = all_scores[0].len();
        let mut mean = vec![0.0f32; dim];
        for s in &all_scores {
            let mut p = s.clone();
            // Softmax only non-probability scores (SVM margins); logreg and
            // MLP outputs are already distributions and a second softmax
            // would flatten them toward uniform.
            let sum: f32 = p.iter().sum();
            let looks_prob = (sum - 1.0).abs() < 1e-3 && p.iter().all(|v| (0.0..=1.0).contains(v));
            if !looks_prob {
                clipper_ml::linalg::softmax(&mut p);
            }
            for (a, &v) in mean.iter_mut().zip(p.iter()) {
                *a += v / zoo.len() as f32;
            }
        }
        let ens_label = clipper_ml::linalg::argmax(&mean) as u32;
        let ens_ok = is_correct(&mean, ex.y, k);
        if !ens_ok {
            ensemble_wrong += 1;
        }
        let agree = all_scores
            .iter()
            .filter(|s| clipper_ml::linalg::argmax(s) as u32 == ens_label)
            .count();
        bucket_total[agree] += 1;
        if !ens_ok {
            bucket_wrong[agree] += 1;
        }
    }

    let n = ds.test.len() as f64;
    let best_err = model_errors
        .iter()
        .map(|&e| e as f64 / n)
        .fold(f64::INFINITY, f64::min);
    let ens_err = ensemble_wrong as f64 / n;
    let agg = |levels: std::ops::RangeInclusive<usize>| -> (f64, f64) {
        let total: usize = levels.clone().map(|l| bucket_total[l]).sum();
        let wrong: usize = levels.map(|l| bucket_wrong[l]).sum();
        if total == 0 {
            (0.0, 0.0)
        } else {
            (wrong as f64 / total as f64, total as f64 / n)
        }
    };
    let (err4, share4) = agg(4..=4);
    let (err5, share5) = agg(5..=5);
    let (err_unsure, share_unsure) = agg(0..=3);

    let metric = if k == 1 { "top-1" } else { "top-5" };
    table.row(&[
        name.into(),
        metric.into(),
        format!("{:.3}", best_err),
        format!("{:.3}", ens_err),
        format!("{:.3} ({:.0}%)", err4, share4 * 100.0),
        format!("{:.3} ({:.0}%)", err5, share5 * 100.0),
        format!("{:.3} ({:.0}%)", err_unsure, share_unsure * 100.0),
    ]);
    BenchOutcome {
        best_err,
        ens_err,
        err5,
    }
}

/// Grade one measured error against its ceiling, accumulating failures.
fn check(failures: &mut Vec<String>, what: &str, measured: f64, ceiling: f64) {
    if measured > ceiling {
        failures.push(format!(
            "{what}: {measured:.3} exceeds expected {ceiling:.3}"
        ));
    } else {
        println!("check ok: {what} {measured:.3} <= {ceiling:.3}");
    }
}

fn main() {
    println!("== Figure 7: Ensemble Prediction Accuracy ==\n");
    let mut table = Table::new(&[
        "benchmark",
        "metric",
        "best single err",
        "ensemble err",
        "4-agree err (share)",
        "5-agree err (share)",
        "unsure err (share)",
    ]);

    let cifar = DatasetSpec::cifar_like()
        .with_train_size(900)
        .with_test_size(600)
        .with_difficulty(0.25)
        .generate(11);
    let cifar_out = run_benchmark("CIFAR-10-like", &cifar, 1, &mut table);

    let mut imagenet_spec = DatasetSpec::imagenet_like();
    imagenet_spec.num_classes = 200; // scaled; see module docs
    let imagenet = imagenet_spec
        .with_train_size(5_000)
        .with_test_size(500)
        .with_difficulty(0.24)
        .generate(13);
    let imagenet_out = run_benchmark("ImageNet-like (200c)", &imagenet, 5, &mut table);

    table.print();
    println!("\npaper reference (CIFAR top-1): single 0.0915, ensemble 0.0845, 4-agree 0.0610, 5-agree 0.0235, unsure 0.1807/0.1260");
    println!("paper reference (ImageNet top-5): single 0.0618, ensemble 0.0586, 4-agree 0.0469, 5-agree 0.0327, unsure 0.3182/0.1983");
    println!("shape: ensemble ≤ best single; error falls monotonically with agreement; the unsure bucket is much worse");

    // Self-check against the warm-start-adjusted expected accuracies.
    println!();
    let mut failures = Vec::new();
    check(
        &mut failures,
        "CIFAR best single err",
        cifar_out.best_err,
        MAX_CIFAR_BEST_SINGLE_ERR,
    );
    check(
        &mut failures,
        "CIFAR ensemble err",
        cifar_out.ens_err,
        MAX_CIFAR_ENSEMBLE_ERR,
    );
    check(
        &mut failures,
        "CIFAR 5-agree err",
        cifar_out.err5,
        MAX_CIFAR_5AGREE_ERR,
    );
    check(
        &mut failures,
        "ImageNet best single err",
        imagenet_out.best_err,
        MAX_IMAGENET_BEST_SINGLE_ERR,
    );
    check(
        &mut failures,
        "ImageNet ensemble err",
        imagenet_out.ens_err,
        MAX_IMAGENET_ENSEMBLE_ERR,
    );
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
