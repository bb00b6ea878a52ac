//! The selection layer's figures: ensemble accuracy (Figure 7), Exp3 /
//! Exp4 under model failure (Figure 8), contextual selection (Figure 10)
//! and the Exp3 learning-rate ablation.

use super::{max_of, Paper, Shape};
use crate::harness::Op;
use clipper_core::selection::SelectionPolicy;
use clipper_core::{Exp3Policy, Exp4Policy, Feedback, Input, ModelId, Output};
use clipper_ml::datasets::{Dataset, DatasetSpec};
use clipper_ml::linalg::{argmax, softmax, top_k};
use clipper_ml::models::{
    LinearSvm, LinearSvmConfig, LogisticRegression, LogisticRegressionConfig, Mlp, MlpConfig, Model,
};
use clipper_ml::speech::{DialectModel, SpeechCorpus, NUM_DIALECTS, NUM_SPEAKERS};
use rand::prelude::*;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Serialize)]
struct Fig7Row {
    benchmark: &'static str,
    /// `top-1` or `top-5` error.
    metric: &'static str,
    /// `ours` or `paper`.
    source: &'static str,
    best_single_err: f64,
    ensemble_err: f64,
    agree4_err: f64,
    agree4_share: Option<f64>,
    agree5_err: f64,
    agree5_share: Option<f64>,
    /// Error where at most three models agree with the ensemble.
    unsure_err: f64,
    unsure_share: Option<f64>,
}

/// The paper's Figure 7 (unsure: the complement of the 4-agree bucket).
const FIG7_PAPER: [(&str, &str, [f64; 5]); 2] = [
    (
        "CIFAR-10",
        "top-1",
        [0.0915, 0.0845, 0.0610, 0.0235, 0.1807],
    ),
    (
        "ImageNet",
        "top-5",
        [0.0618, 0.0586, 0.0469, 0.0327, 0.3182],
    ),
];

/// Figure 7's error ceilings on the warm-started zoo (measured CIFAR
/// best single 0.057, ensemble 0.068, 5-agree 0.008; ImageNet 0.150 /
/// 0.128): tight enough that cold-start training (CIFAR best single
/// near 0.09) fails. The paper's orderings — the ensemble no worse than
/// the best single model, error falling as agreement rises — are rows.
fn fig7_shapes(rows: &[Fig7Row]) -> Vec<Shape> {
    let ours = |benchmark: &str| {
        rows.iter()
            .find(|r| r.source == "ours" && r.benchmark == benchmark)
    };
    let err = |benchmark, f: fn(&Fig7Row) -> f64| ours(benchmark).map_or(f64::NAN, f);
    let ceiling = |name, paper, value, bound| Shape::new(name, paper, value, Op::AtMost, bound);
    let cifar = "CIFAR-10";
    let imagenet = "ImageNet";
    vec![
        ceiling(
            "fig7.cifar_best_single_err",
            "CIFAR-10 best single model top-1 error 0.0915",
            err(cifar, |r| r.best_single_err),
            0.075,
        ),
        ceiling(
            "fig7.cifar_ensemble_err",
            "CIFAR-10 ensemble top-1 error 0.0845",
            err(cifar, |r| r.ensemble_err),
            0.090,
        ),
        ceiling(
            "fig7.cifar_5agree_err",
            "CIFAR-10 5-agree top-1 error 0.0235",
            err(cifar, |r| r.agree5_err),
            0.030,
        ),
        ceiling(
            "fig7.imagenet_best_single_err",
            "ImageNet best single model top-5 error 0.0618",
            err(imagenet, |r| r.best_single_err),
            0.180,
        )
        .full_only(),
        ceiling(
            "fig7.imagenet_ensemble_err",
            "ImageNet ensemble top-5 error 0.0586",
            err(imagenet, |r| r.ensemble_err),
            0.160,
        )
        .full_only(),
        Shape::new(
            "fig7.ensemble_over_best_single_max",
            "the ensemble is no worse than the best single model on both benchmarks",
            max_of(
                [cifar, imagenet]
                    .into_iter()
                    .map(|b| err(b, |r| r.ensemble_err / r.best_single_err)),
            ),
            Op::AtMost,
            1.0,
        )
        .ungated(),
        Shape::new(
            "fig7.agree5_over_agree4_max",
            "error falls as more models agree",
            max_of(
                [cifar, imagenet]
                    .into_iter()
                    .map(|b| err(b, |r| r.agree5_err / r.agree4_err)),
            ),
            Op::AtMost,
            1.0,
        ),
    ]
}

/// Five models of comparable quality, as the paper's zoo of strong conv
/// nets: three families at full data plus two re-seeded variants on 80%
/// subsamples, diverse enough for agreement to carry signal. A small MLP
/// is competitive at 10 classes but not at 200; there the fifth member is
/// another re-seeded logistic regression.
fn train_zoo(ds: &Dataset, with_mlp: bool) -> Vec<Arc<dyn Model>> {
    let subsample = |fifths: usize| {
        let mut sub = ds.clone();
        sub.train.rotate_left(fifths * ds.train.len() / 5);
        sub.train.truncate(ds.train.len() * 4 / 5);
        sub
    };
    let logreg = |ds: &Dataset, epochs, seed| -> Arc<dyn Model> {
        let cfg = LogisticRegressionConfig {
            epochs,
            ..Default::default()
        };
        Arc::new(LogisticRegression::train(ds, &cfg, seed))
    };
    let first = if with_mlp {
        let cfg = MlpConfig {
            hidden: vec![48],
            epochs: 4,
            lr: 0.08,
        };
        Arc::new(Mlp::train(ds, &cfg, 1))
    } else {
        logreg(&subsample(3), 3, 6)
    };
    let svm = LinearSvmConfig {
        epochs: 3,
        ..Default::default()
    };
    vec![
        first,
        logreg(ds, 3, 2),
        Arc::new(LinearSvm::train(ds, &svm, 3)),
        logreg(&subsample(1), 4, 4),
        logreg(&subsample(2), 3, 5),
    ]
}

/// Score the zoo and its uniform ensemble on `ds`'s test set (top-`k`).
fn fig7_benchmark(benchmark: &'static str, ds: &Dataset, k: usize) -> Fig7Row {
    let zoo = train_zoo(ds, k == 1);
    let correct = |scores: &[f32], truth: u32| top_k(scores, k).contains(&(truth as usize));
    let mut model_errors = vec![0usize; zoo.len()];
    let mut bucket_total = vec![0usize; zoo.len() + 1];
    let mut bucket_wrong = vec![0usize; zoo.len() + 1];
    let mut ensemble_wrong = 0usize;
    for ex in &ds.test {
        let all_scores: Vec<Vec<f32>> = zoo.iter().map(|m| m.scores(&ex.x)).collect();
        for (errors, s) in model_errors.iter_mut().zip(&all_scores) {
            *errors += usize::from(!correct(s, ex.y));
        }
        // Uniform linear ensemble: softmax every non-probability score
        // vector (SVM margins), then average the distributions. Logistic
        // regression and MLP outputs already are distributions, and a
        // second softmax would flatten them.
        let mut mean = vec![0.0f32; all_scores[0].len()];
        for s in &all_scores {
            let mut p = s.clone();
            let sum: f32 = p.iter().sum();
            if (sum - 1.0).abs() >= 1e-3 || !p.iter().all(|v| (0.0..=1.0).contains(v)) {
                softmax(&mut p);
            }
            for (a, &v) in mean.iter_mut().zip(&p) {
                *a += v / zoo.len() as f32;
            }
        }
        let label = argmax(&mean);
        let wrong = !correct(&mean, ex.y);
        ensemble_wrong += usize::from(wrong);
        let agree = all_scores.iter().filter(|s| argmax(s) == label).count();
        bucket_total[agree] += 1;
        bucket_wrong[agree] += usize::from(wrong);
    }
    let n = ds.test.len() as f64;
    // (error, share) over the agreement levels in `levels`.
    let bucket = |levels: std::ops::RangeInclusive<usize>| {
        let total: usize = bucket_total[levels.clone()].iter().sum();
        let wrong: usize = bucket_wrong[levels].iter().sum();
        match total {
            0 => (0.0, Some(0.0)),
            _ => (wrong as f64 / total as f64, Some(total as f64 / n)),
        }
    };
    let (agree4_err, agree4_share) = bucket(4..=4);
    let (agree5_err, agree5_share) = bucket(5..=5);
    let (unsure_err, unsure_share) = bucket(0..=3);
    Fig7Row {
        benchmark,
        metric: if k == 1 { "top-1" } else { "top-5" },
        source: "ours",
        best_single_err: model_errors
            .iter()
            .map(|&e| e as f64 / n)
            .fold(f64::INFINITY, f64::min),
        ensemble_err: ensemble_wrong as f64 / n,
        agree4_err,
        agree4_share,
        agree5_err,
        agree5_share,
        unsure_err,
        unsure_share,
    }
}

pub(super) async fn fig7(p: &mut Paper<'_>) {
    let cifar = DatasetSpec::cifar_like()
        .with_train_size(900)
        .with_test_size(600)
        .with_difficulty(0.25)
        .generate(11);
    // ImageNet scaled to 200 classes, so every class has enough training
    // examples at this size; smoke trains on a fifth, too few for the
    // ImageNet ceilings.
    let mut imagenet = DatasetSpec::imagenet_like();
    imagenet.num_classes = 200;
    let imagenet = imagenet
        .with_train_size(if p.smoke { 1_000 } else { 5_000 })
        .with_test_size(500)
        .with_difficulty(0.24)
        .generate(13);
    let mut rows = vec![
        fig7_benchmark("CIFAR-10", &cifar, 1),
        fig7_benchmark("ImageNet", &imagenet, 5),
    ];
    for (benchmark, metric, [best, ensemble, agree4, agree5, unsure]) in FIG7_PAPER {
        rows.push(Fig7Row {
            benchmark,
            metric,
            source: "paper",
            best_single_err: best,
            ensemble_err: ensemble,
            agree4_err: agree4,
            agree4_share: None,
            agree5_err: agree5,
            agree5_share: None,
            unsure_err: unsure,
            unsure_share: None,
        });
    }
    p.rows("fig7", &rows);
    p.shapes(fig7_shapes(&rows));
}

#[derive(Serialize)]
struct Fig8Row {
    queries: usize,
    /// Each base model's cumulative error; model 5 is the best, and is
    /// degraded between 5K and 10K queries.
    models: Vec<f64>,
    exp3: f64,
    exp4: f64,
}

/// Figure 8's end state: both policies' cumulative error sits below
/// every static model choice.
fn fig8_shapes(rows: &[Fig8Row]) -> Vec<Shape> {
    let value = rows.last().map_or(f64::NAN, |r| {
        let best_static = r.models.iter().copied().fold(f64::INFINITY, f64::min);
        r.exp3.max(r.exp4) / best_static
    });
    vec![Shape::new(
        "fig8.policy_over_best_static_err",
        "final Exp3 and Exp4 error sits below every static model choice",
        value,
        Op::AtMost,
        1.0,
    )]
}

pub(super) async fn fig8(p: &mut Paper<'_>) {
    const TOTAL: usize = 20_000;
    const DEGRADED: std::ops::Range<usize> = 5_000..10_000;
    let ds = DatasetSpec::mnist_like()
        .with_train_size(1_600)
        .with_test_size(2_000)
        .with_difficulty(0.3)
        .generate(31);
    // Five linear SVMs of staggered accuracy (errors ≈ 0.65 / 0.45 /
    // 0.25 / 0.12 / 0.04): model 5 is the best.
    let models: Vec<LinearSvm> = [30usize, 60, 120, 300, 1_600]
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut sub = ds.clone();
            sub.train.truncate(n);
            LinearSvm::train(&sub, &LinearSvmConfig::default(), i as u64)
        })
        .collect();
    let ids: Vec<ModelId> = (1..=5)
        .map(|i| ModelId::new(&format!("model-{i}"), 1))
        .collect();
    let (exp3, exp4) = (Exp3Policy::new(0.5), Exp4Policy::new(0.3));
    let (mut s3, mut s4) = (exp3.init(&ids, 7), exp4.init(&ids, 7));
    let mut model_wrong = [0usize; 5];
    let (mut exp3_wrong, mut exp4_wrong) = (0usize, 0usize);
    let mut rows = Vec::new();
    for q in 0..TOTAL {
        let ex = &ds.test[q % ds.test.len()];
        let input: Input = Arc::new(ex.x.clone());
        // Model 5's answer is rotated off the truth while degraded.
        let mut preds: HashMap<ModelId, Output> = HashMap::new();
        for (i, m) in models.iter().enumerate() {
            let mut label = m.predict(&ex.x);
            if i == 4 && DEGRADED.contains(&q) {
                label = (label + 1) % ds.num_classes() as u32;
            }
            model_wrong[i] += usize::from(label != ex.y);
            preds.insert(ids[i].clone(), Output::Class(label));
        }
        // Both policies predict, then observe immediate feedback.
        exp3_wrong += usize::from(exp3.combine(&s3, &input, &preds).0.label() != ex.y);
        exp4_wrong += usize::from(exp4.combine(&s4, &input, &preds).0.label() != ex.y);
        let fb = Feedback::class(ex.y);
        exp3.observe(&mut s3, &input, &fb, &preds);
        exp4.observe(&mut s4, &input, &fb, &preds);
        if (q + 1).is_multiple_of(1_000) {
            let n = (q + 1) as f64;
            rows.push(Fig8Row {
                queries: q + 1,
                models: model_wrong.iter().map(|&w| w as f64 / n).collect(),
                exp3: exp3_wrong as f64 / n,
                exp4: exp4_wrong as f64 / n,
            });
        }
    }
    p.rows("fig8", &rows);
    p.rows(
        "fig8_exp4_weights",
        &[Fig8Weights {
            weights: s4.probabilities(),
        }],
    );
    p.shapes(fig8_shapes(&rows));
}

#[derive(Serialize)]
struct Fig8Weights {
    /// The final Exp4 weight of each model, in order.
    weights: Vec<f64>,
}

#[derive(Serialize)]
struct Fig10Row {
    feedback: usize,
    static_dialect: f64,
    no_dialect: f64,
    clipper_policy: f64,
}

/// Figure 10's end state: after the feedback rounds the per-user policy
/// is no worse than the dialect-oblivious model.
fn fig10_shapes(rows: &[Fig10Row]) -> Vec<Shape> {
    let value = rows
        .last()
        .map_or(f64::NAN, |r| r.clipper_policy / r.no_dialect);
    vec![Shape::new(
        "fig10.policy_over_no_dialect_err",
        "the selection policy converges below the dialect-oblivious model (~0.36) toward the dialect model (~0.29)",
        value,
        Op::AtMost,
        1.0,
    )]
}

pub(super) async fn fig10(p: &mut Paper<'_>) {
    const FEEDBACK_ROUNDS: usize = 9;
    const USERS: usize = 40;
    const FRAMES: usize = 30;
    let corpus = SpeechCorpus::default_corpus(77);
    let dialect_models: Vec<DialectModel> = (0..NUM_DIALECTS as u32)
        .map(|d| DialectModel::train(&corpus.training_utterances(Some(d), 70, 20, 500 + d as u64)))
        .collect();
    let global = DialectModel::train(&corpus.training_utterances(None, 150, 20, 999));
    let ids: Vec<ModelId> = (0..NUM_DIALECTS)
        .map(|d| ModelId::new(&format!("dialect-{d}"), 1))
        .chain([ModelId::new("global", 1)])
        .collect();
    let transcribe_all = |frames: &[Vec<f32>]| -> HashMap<ModelId, Output> {
        dialect_models
            .iter()
            .chain([&global])
            .zip(&ids)
            .map(|(m, id)| (id.clone(), Output::Labels(m.transcribe(frames))))
            .collect()
    };
    let policy = Exp4Policy::new(0.8);
    let mut rows: Vec<Fig10Row> = (0..FEEDBACK_ROUNDS)
        .map(|feedback| Fig10Row {
            feedback,
            static_dialect: 0.0,
            no_dialect: 0.0,
            clipper_policy: 0.0,
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(4);
    for u in 0..USERS {
        let speaker = (u * (NUM_SPEAKERS / USERS)) as u32;
        let dialect = corpus.dialect_of(speaker) as usize;
        let mut state = policy.init(&ids, u as u64);
        for row in &mut rows {
            // Every deployment transcribes a fresh utterance.
            let eval = corpus.utterance(speaker, FRAMES, &mut rng);
            row.static_dialect += dialect_models[dialect].error_rate(&eval) / USERS as f64;
            row.no_dialect += global.error_rate(&eval) / USERS as f64;
            let input: Input = Arc::new(eval.flatten());
            let err = match policy
                .combine(&state, &input, &transcribe_all(&eval.frames))
                .0
            {
                Output::Labels(l) => clipper_ml::eval::sequence_error_rate(&eval.phonemes, &l),
                _ => 1.0,
            };
            row.clipper_policy += err / USERS as f64;
            // One feedback observation per round: the figure's x-axis.
            let fb = corpus.utterance(speaker, FRAMES, &mut rng);
            let fb_input: Input = Arc::new(fb.flatten());
            let truth = Feedback::labels(fb.phonemes.clone());
            policy.observe(&mut state, &fb_input, &truth, &transcribe_all(&fb.frames));
        }
    }
    p.rows("fig10", &rows);
    p.shapes(fig10_shapes(&rows));
}

#[derive(Serialize)]
struct EtaRow {
    eta: f64,
    pre_failure_pa: f64,
    /// Queries after the failure until P(A) < 0.3 (none: not within the
    /// 2,000-query window).
    adapt_queries: Option<u64>,
    window_error: f64,
}

const ETA_WINDOW: u64 = 2_000;

/// η sets how fast Clipper responds to feedback: raising it never makes
/// the policy slower to divert off the failed model.
fn eta_shapes(rows: &[EtaRow]) -> Vec<Shape> {
    let adapt = |r: &EtaRow| r.adapt_queries.unwrap_or(ETA_WINDOW + 1);
    let slower = rows
        .windows(2)
        .filter(|w| adapt(&w[1]) > adapt(&w[0]))
        .count();
    let value = if rows.len() < 2 {
        f64::NAN
    } else {
        slower as f64
    };
    vec![Shape::new(
        "ablation_eta.slower_at_higher_eta",
        "eta determines how quickly Clipper responds to feedback",
        value,
        Op::Equals,
        0.0,
    )]
}

pub(super) async fn ablation_eta(p: &mut Paper<'_>) {
    // Two models: A errs 10%, B 40%. At query 2000 A fails (errs 95%).
    // Outcomes are deterministic pseudo-random.
    const FAIL_AT: u64 = 2_000;
    const TOTAL: u64 = 6_000;
    let ids = vec![ModelId::new("A", 1), ModelId::new("B", 1)];
    let noise = |q: u64, salt: u64| ((q * 2_654_435_761 + salt * 97) % 100) as f64 / 100.0;
    let rows: Vec<EtaRow> = [0.05, 0.2, 0.5, 1.0, 2.0]
        .into_iter()
        .map(|eta| {
            let policy = Exp3Policy::new(eta);
            let mut state = policy.init(&ids, 9);
            let (mut adapt_queries, mut window_errors) = (None, 0u64);
            let mut pre_failure_pa = 0.0;
            for q in 0..TOTAL {
                let input: Input = Arc::new(vec![q as f32, (q * 31) as f32]);
                let a_err = if q >= FAIL_AT { 0.95 } else { 0.10 };
                let preds: HashMap<ModelId, Output> = [
                    (
                        ids[0].clone(),
                        Output::Class(u32::from(noise(q, 1) >= a_err)),
                    ),
                    (
                        ids[1].clone(),
                        Output::Class(u32::from(noise(q, 2) >= 0.40)),
                    ),
                ]
                .into();
                if q == FAIL_AT {
                    pre_failure_pa = state.probabilities()[0];
                }
                if (FAIL_AT..FAIL_AT + ETA_WINDOW).contains(&q) {
                    window_errors +=
                        u64::from(policy.combine(&state, &input, &preds).0.label() != 1);
                    if adapt_queries.is_none() && state.probabilities()[0] < 0.3 {
                        adapt_queries = Some(q - FAIL_AT);
                    }
                }
                policy.observe(&mut state, &input, &Feedback::class(1), &preds);
            }
            EtaRow {
                eta,
                pre_failure_pa,
                adapt_queries,
                window_error: window_errors as f64 / ETA_WINDOW as f64,
            }
        })
        .collect();
    p.rows("ablation_eta", &rows);
    p.shapes(eta_shapes(&rows));
}

#[cfg(test)]
mod tests {
    use super::super::tests::all_hold;
    use super::*;

    fn fig7_row(benchmark: &'static str, best: f64, ensemble: f64, agree5: f64) -> Fig7Row {
        Fig7Row {
            benchmark,
            metric: "top-1",
            source: "ours",
            best_single_err: best,
            ensemble_err: ensemble,
            agree4_err: 0.05,
            agree4_share: None,
            agree5_err: agree5,
            agree5_share: None,
            unsure_err: 0.2,
            unsure_share: None,
        }
    }

    #[test]
    fn fig7_gates_are_the_error_ceilings() {
        let gated = |rows: &[Fig7Row]| {
            let shapes = fig7_shapes(rows);
            let gated: Vec<Shape> = shapes
                .into_iter()
                .filter(|s| s.gated != super::super::Gated::Never)
                .collect();
            all_hold(&gated)
        };
        let pass = [
            fig7_row("CIFAR-10", 0.057, 0.068, 0.008),
            fig7_row("ImageNet", 0.15, 0.128, 0.02),
        ];
        assert!(gated(&pass));
        let cold = [
            fig7_row("CIFAR-10", 0.092, 0.068, 0.008),
            fig7_row("ImageNet", 0.15, 0.128, 0.02),
        ];
        assert!(!gated(&cold));
        assert!(!gated(&pass[..1]), "a missing benchmark fails");
    }

    #[test]
    fn fig8_gate_needs_both_policies_below_every_static_model() {
        let row = |exp3, exp4| Fig8Row {
            queries: 20_000,
            models: vec![0.65, 0.45, 0.25, 0.12, 0.2],
            exp3,
            exp4,
        };
        assert!(all_hold(&fig8_shapes(&[row(0.10, 0.09)])));
        assert!(!all_hold(&fig8_shapes(&[row(0.10, 0.13)])));
        assert!(!all_hold(&fig8_shapes(&[])));
    }

    #[test]
    fn fig10_gate_needs_the_policy_to_end_below_no_dialect() {
        let row = |clipper_policy| Fig10Row {
            feedback: 8,
            static_dialect: 0.29,
            no_dialect: 0.36,
            clipper_policy,
        };
        assert!(all_hold(&fig10_shapes(&[row(0.30)])));
        assert!(!all_hold(&fig10_shapes(&[row(0.40)])));
    }

    #[test]
    fn eta_gate_needs_adaptation_to_never_slow_as_eta_grows() {
        let rows = |adapt: [Option<u64>; 3]| -> Vec<EtaRow> {
            [0.05, 0.5, 2.0]
                .into_iter()
                .zip(adapt)
                .map(|(eta, adapt_queries)| EtaRow {
                    eta,
                    pre_failure_pa: 0.9,
                    adapt_queries,
                    window_error: 0.1,
                })
                .collect()
        };
        assert!(all_hold(&eta_shapes(&rows([None, Some(300), Some(40)]))));
        assert!(!all_hold(&eta_shapes(&rows([Some(300), None, Some(40)]))));
        assert!(!all_hold(&eta_shapes(&rows([
            Some(30),
            Some(300),
            Some(40)
        ]))));
        assert!(!all_hold(&eta_shapes(&[])));
    }
}
