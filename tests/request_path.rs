//! Counts the tasks one request starts: none. The gather in
//! `Clipper::predict` / `feedback` evaluates every model from the calling
//! task, and a replica queue's lane sends and settles the batch it
//! sealed itself, so neither a cached nor a cold request spawns. Nor does
//! one that outlives its SLO: the gather drops the late evaluation, whose
//! reply sink stays with its queued query.
//!
//! This file intentionally holds a single test: integration-test binaries
//! run as their own process, so nothing else spawns onto the vendored
//! runtime's global pool while `spawned_total()` deltas are being read.

use clipper::core::batching::QueueConfig;
use clipper::prelude::*;
use clipper::rpc::message::{PredictReply, WireOutput};
use clipper::rpc::transport::{BatchTransport, FnTransport};
use clipper::rpc::{BoxFuture, RpcError};
use std::sync::Arc;
use std::time::Duration;
use tokio::runtime::spawned_total;

#[tokio::test]
async fn a_request_spawns_no_task() {
    const MODELS: usize = 4;
    let clipper = Clipper::builder().build();
    let models: Vec<ModelId> = (0..MODELS)
        .map(|i| ModelId::new(&format!("m{i}"), 1))
        .collect();
    for m in &models {
        clipper.add_model(m.clone(), QueueConfig::default());
        let answer: Arc<dyn BatchTransport> = Arc::new(FnTransport::new("one", |inputs| {
            Ok(PredictReply {
                outputs: vec![WireOutput::Class(1); inputs.len()],
                queue_us: 0,
                compute_us: 1,
            })
        }));
        clipper.add_replica(m, answer).unwrap();
    }
    clipper.register_app(
        AppConfig::new("app", models)
            .with_policy(PolicyKind::Exp4 { eta: 0.2 })
            .with_slo(Duration::from_millis(500)),
    );

    // Warm-up: fills the cache for `seen` and initialises the selection
    // state, so the measured calls below do steady-state work only.
    let seen: Input = Arc::new(vec![1.0]);
    let p = clipper.predict("app", None, seen.clone()).await.unwrap();
    assert_eq!(p.models_used, MODELS);

    let before = spawned_total();
    let p = clipper.predict("app", None, seen.clone()).await.unwrap();
    assert_eq!(p.models_used, MODELS);
    clipper
        .feedback("app", None, seen, Feedback::class(1))
        .await
        .unwrap();
    assert_eq!(
        spawned_total() - before,
        0,
        "a fully cached predict and feedback must start no task"
    );

    let before = spawned_total();
    let p = clipper
        .predict("app", None, Arc::new(vec![2.0]))
        .await
        .unwrap();
    assert_eq!(p.models_used, MODELS);
    assert_eq!(
        spawned_total() - before,
        0,
        "a cold predict crosses every model's queue and must start no task either"
    );

    /// A replica that never answers.
    struct Silent;
    impl BatchTransport for Silent {
        fn predict_batch(&self, _inputs: &[Input]) -> BoxFuture<Result<PredictReply, RpcError>> {
            Box::pin(std::future::pending())
        }
        fn id(&self) -> String {
            "silent".into()
        }
    }
    let silent = ModelId::new("silent", 1);
    clipper.add_model(silent.clone(), QueueConfig::default());
    clipper.add_replica(&silent, Arc::new(Silent)).unwrap();
    clipper.register_app(AppConfig::new("late", vec![silent]).with_slo(Duration::from_millis(5)));
    const LATE: usize = 8;
    let before = spawned_total();
    for i in 0..LATE {
        let p = clipper
            .predict("late", None, Arc::new(vec![10.0 + i as f32]))
            .await
            .unwrap();
        assert_eq!(p.models_missing, 1);
    }
    assert_eq!(
        spawned_total() - before,
        0,
        "a predict past its SLO drops its late evaluation instead of handing it to a task"
    );
}
