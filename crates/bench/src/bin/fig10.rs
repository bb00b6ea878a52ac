//! Figure 10 — personalized (contextual) model selection on speech.
//!
//! Dialect-specific phoneme models plus a dialect-oblivious model serve
//! simulated TIMIT users. Three deployments are compared as feedback
//! accumulates per user:
//!
//! - **No Dialect**: the single global model;
//! - **Static Dialect**: the user's reported dialect model (offline
//!   personalization);
//! - **Clipper Selection Policy**: per-user Exp4 ensemble over all nine
//!   models, learning from that user's feedback (§5.3).

use clipper_core::selection::SelectionPolicy;
use clipper_core::{Exp4Policy, Feedback, ModelId, Output};
use clipper_ml::speech::{DialectModel, SpeechCorpus, NUM_DIALECTS, NUM_SPEAKERS};
use clipper_workload::Table;
use rand::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const FEEDBACK_ROUNDS: usize = 9; // x-axis 0..8 as in the figure
const USERS: usize = 40;
const FRAMES: usize = 30;

fn main() {
    println!("== Figure 10: Personalized Model Selection (speech) ==\n");
    let corpus = SpeechCorpus::default_corpus(77);

    // Train the model zoo.
    let dialect_models: Vec<Arc<DialectModel>> = (0..NUM_DIALECTS as u32)
        .map(|d| {
            Arc::new(DialectModel::train(&corpus.training_utterances(
                Some(d),
                70,
                20,
                500 + d as u64,
            )))
        })
        .collect();
    let global = Arc::new(DialectModel::train(
        &corpus.training_utterances(None, 150, 20, 999),
    ));

    let ids: Vec<ModelId> = (0..NUM_DIALECTS)
        .map(|d| ModelId::new(&format!("dialect-{d}"), 1))
        .chain(std::iter::once(ModelId::new("global", 1)))
        .collect();
    let policy = Exp4Policy::new(0.8);

    // error[round][approach]
    let mut err_static = [0.0f64; FEEDBACK_ROUNDS];
    let mut err_global = [0.0f64; FEEDBACK_ROUNDS];
    let mut err_clipper = [0.0f64; FEEDBACK_ROUNDS];

    let mut rng = StdRng::seed_from_u64(4);
    for u in 0..USERS {
        let speaker = (u * (NUM_SPEAKERS / USERS)) as u32;
        let dialect = corpus.dialect_of(speaker) as usize;
        let mut state = policy.init(&ids, u as u64);

        for round in 0..FEEDBACK_ROUNDS {
            // Evaluate all three deployments on a fresh utterance.
            let eval_utt = corpus.utterance(speaker, FRAMES, &mut rng);
            err_static[round] += dialect_models[dialect].error_rate(&eval_utt) / USERS as f64;
            err_global[round] += global.error_rate(&eval_utt) / USERS as f64;

            let preds = transcribe_all(&dialect_models, &global, &ids, &eval_utt.frames);
            let input: clipper_core::Input = Arc::new(eval_utt.flatten());
            let (out, _) = policy.combine(&state, &input, &preds);
            let clipper_err = match out {
                Output::Labels(l) => clipper_ml::eval::sequence_error_rate(&eval_utt.phonemes, &l),
                _ => 1.0,
            };
            err_clipper[round] += clipper_err / USERS as f64;

            // One feedback observation per round (the figure's x-axis).
            let fb_utt = corpus.utterance(speaker, FRAMES, &mut rng);
            let fb_preds = transcribe_all(&dialect_models, &global, &ids, &fb_utt.frames);
            let fb_input: clipper_core::Input = Arc::new(fb_utt.flatten());
            policy.observe(
                &mut state,
                &fb_input,
                &Feedback::labels(fb_utt.phonemes.clone()),
                &fb_preds,
            );
        }
    }

    let mut table = Table::new(&["feedback", "static dialect", "no dialect", "clipper policy"]);
    for round in 0..FEEDBACK_ROUNDS {
        table.row(&[
            format!("{round}"),
            format!("{:.3}", err_static[round]),
            format!("{:.3}", err_global[round]),
            format!("{:.3}", err_clipper[round]),
        ]);
    }
    table.print();
    println!("\npaper reference: dialect-specific ≈ 0.29 < dialect-oblivious ≈ 0.36; the selection policy starts between them");
    println!("and converges to ≤ the static dialect model within a few feedback observations");
}

fn transcribe_all(
    dialect_models: &[Arc<DialectModel>],
    global: &Arc<DialectModel>,
    ids: &[ModelId],
    frames: &[Vec<f32>],
) -> HashMap<ModelId, Output> {
    let mut preds = HashMap::new();
    for (d, m) in dialect_models.iter().enumerate() {
        preds.insert(ids[d].clone(), Output::Labels(m.transcribe(frames)));
    }
    preds.insert(
        ids[NUM_DIALECTS].clone(),
        Output::Labels(global.transcribe(frames)),
    );
    preds
}
