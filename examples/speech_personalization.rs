//! Speech recognition with per-user contextual model selection (§5.3,
//! Figure 10).
//!
//! Eight dialect-specific phoneme recognizers plus one dialect-oblivious
//! model serve a TIMIT-shaped speech workload. Each user gets their own
//! selection state; feedback from their own utterances quickly steers
//! their ensemble toward the models that understand their dialect.
//!
//! ```sh
//! cargo run --release --example speech_personalization
//! ```

use clipper::containers::{
    ContainerConfig, ContainerLogic, LocalContainerTransport, ModelContainer, TimingModel,
};
use clipper::core::{AppConfig, Clipper, Feedback, ModelId, PolicyKind};
use clipper::ml::speech::{DialectModel, SpeechCorpus, NUM_DIALECTS};
use rand::prelude::*;
use std::sync::Arc;
use std::time::Duration;

#[tokio::main]
async fn main() {
    println!("== Personalized speech recognition ==\n");

    let corpus = SpeechCorpus::default_corpus(2024);

    // Train one model per dialect plus a global model — the paper's HTK
    // deployment, one model container each.
    let clipper = Clipper::builder().build();
    let mut ids = Vec::new();
    for d in 0..NUM_DIALECTS as u32 {
        let utts = corpus.training_utterances(Some(d), 80, 20, 100 + d as u64);
        let model = Arc::new(DialectModel::train(&utts));
        let id = ModelId::new(&format!("dialect-{d}"), 1);
        deploy(&clipper, &id, model);
        ids.push(id);
    }
    let global = Arc::new(DialectModel::train(
        &corpus.training_utterances(None, 160, 20, 999),
    ));
    let global_id = ModelId::new("global", 1);
    deploy(&clipper, &global_id, global);
    ids.push(global_id);

    clipper.register_app(
        AppConfig::new("speech", ids)
            // η tuned for 9 arms under importance weighting: large values
            // make single unlucky draws crater good arms.
            .with_policy(PolicyKind::Exp3 { eta: 0.5 })
            .with_slo(Duration::from_millis(50)),
    );

    // Simulate three users from different dialects speaking and correcting
    // the transcriptions (implicit feedback).
    let mut rng = StdRng::seed_from_u64(5);
    for user in [3u32, 11, 22] {
        let dialect = corpus.dialect_of(user);
        let ctx = format!("user-{user}");
        let mut errors_first10 = 0.0;
        let mut errors_last10 = 0.0;
        let rounds = 120;
        for round in 0..rounds {
            let utt = corpus.utterance(user, 30, &mut rng);
            let input = Arc::new(utt.flatten());
            let p = clipper
                .predict("speech", Some(&ctx), input.clone())
                .await
                .expect("prediction");
            let predicted = match &p.output {
                clipper::core::Output::Labels(l) => l.clone(),
                other => panic!("expected transcription, got {other:?}"),
            };
            let err = clipper::ml::eval::sequence_error_rate(&utt.phonemes, &predicted);
            if round < 10 {
                errors_first10 += err / 10.0;
            }
            if round >= rounds - 10 {
                errors_last10 += err / 10.0;
            }
            clipper
                .feedback("speech", Some(&ctx), input, Feedback::labels(utt.phonemes))
                .await
                .expect("feedback");
        }
        let state = clipper.policy_state("speech", Some(&ctx)).unwrap();
        let probs = state.probabilities();
        let (best_idx, best_p) = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        println!(
            "user {user} (dialect {dialect}): phoneme error {:.1}% → {:.1}% after {rounds} rounds; \
             policy now favors {} (p={:.2})",
            errors_first10 * 100.0,
            errors_last10 * 100.0,
            state.models[best_idx].name,
            best_p
        );
    }

    println!(
        "\ncontexts stored in the statestore: {}",
        clipper.state_manager().context_count()
    );
}

fn deploy(clipper: &Clipper, id: &ModelId, model: Arc<DialectModel>) {
    clipper.add_model(id.clone(), Default::default());
    let container = ModelContainer::new(ContainerConfig {
        name: format!("{}:0", id.name),
        model_name: id.name.clone(),
        model_version: 1,
        logic: ContainerLogic::Transcriber(model),
        timing: TimingModel::Measured,
        seed: 3,
    });
    clipper
        .add_replica(id, LocalContainerTransport::new(container))
        .expect("replica");
}
