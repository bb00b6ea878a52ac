//! Quickstart: deploy two models behind Clipper, serve predictions under
//! a 20 ms latency objective, then drive the `/api/v1` control plane over
//! HTTP — register an app and roll a model version live (this doubles as
//! the CI smoke for the control plane).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use clipper::containers::{
    ContainerConfig, ContainerLogic, LatencyProfile, LocalContainerTransport, ModelContainer,
    TimingModel,
};
use clipper::core::{AppConfig, Clipper, Feedback, HttpFrontend, ModelId, PolicyKind};
use clipper::ml::datasets::DatasetSpec;
use clipper::ml::models::{
    LinearSvm, LinearSvmConfig, LogisticRegression, LogisticRegressionConfig,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

#[tokio::main]
async fn main() {
    println!("== Clipper quickstart ==\n");

    // 1. Train two models on an MNIST-shaped dataset (the "framework"
    //    step that normally happens in Scikit-Learn or Spark).
    let dataset = DatasetSpec::mnist_like()
        .with_train_size(600)
        .with_test_size(200)
        .generate(42);
    println!(
        "dataset: {} ({} features, {} classes)",
        dataset.spec.name,
        dataset.num_features(),
        dataset.num_classes()
    );
    let svm = Arc::new(LinearSvm::train(&dataset, &LinearSvmConfig::default(), 1));
    let logreg = Arc::new(LogisticRegression::train(
        &dataset,
        &LogisticRegressionConfig::default(),
        2,
    ));

    // 2. Stand up Clipper and deploy each model in its own container.
    let clipper = Clipper::builder().build();
    let svm_id = ModelId::new("linear-svm", 1);
    let logreg_id = ModelId::new("logreg", 1);

    for (id, logic) in [
        (svm_id.clone(), ContainerLogic::Classifier(svm as _)),
        (logreg_id.clone(), ContainerLogic::Classifier(logreg as _)),
    ] {
        clipper.add_model(id.clone(), Default::default());
        let container = ModelContainer::new(ContainerConfig {
            name: format!("{}:0", id.name),
            model_name: id.name.clone(),
            model_version: 1,
            logic,
            // Pad to the paper's SKLearn linear-model latency profile.
            timing: TimingModel::Profile(
                LatencyProfile::deterministic(
                    Duration::from_micros(500),
                    Duration::from_micros(15),
                )
                .with_jitter(0.05),
            ),
            seed: 7,
        });
        clipper
            .add_replica(&id, LocalContainerTransport::new(container))
            .expect("replica attaches");
    }

    // 3. Register an application: Exp4 ensemble over both models, 20ms SLO.
    clipper.register_app(
        AppConfig::new("digits", vec![svm_id, logreg_id])
            .with_policy(PolicyKind::Exp4 { eta: 0.2 })
            .with_slo(Duration::from_millis(20)),
    );

    // 4. Serve predictions and send feedback.
    let mut correct = 0;
    for example in dataset.test.iter().take(100) {
        let input = Arc::new(example.x.clone());
        let prediction = clipper
            .predict("digits", None, input.clone())
            .await
            .expect("prediction");
        if prediction.output.label() == example.y {
            correct += 1;
        }
        clipper
            .feedback("digits", None, input, Feedback::class(example.y))
            .await
            .expect("feedback");
    }

    println!("served 100 queries: {correct}% correct (ensemble of 2)\n");

    // 5. What the telemetry saw.
    let snapshot = clipper.registry().snapshot();
    for (name, value) in snapshot.values.iter() {
        if name.starts_with("clipper/") || name.ends_with("batch_size") {
            println!("{name}: {value:?}");
        }
    }
    let stats = clipper.abstraction().cache().stats();
    println!(
        "\nprediction cache: {} hits / {} misses / {} pending joins",
        stats.hits, stats.misses, stats.pending_joins
    );
    println!("(feedback joins hit the cache — that is §4.2's 1.6x speedup)");

    // 6. Drive the control plane over HTTP: register an app, deploy a new
    //    model version, and roll it out live — no restart, no dropped
    //    queries. This section doubles as the CI control-plane smoke: any
    //    failed step panics.
    println!("\n== Control plane over HTTP ==\n");
    let frontend = HttpFrontend::bind("127.0.0.1:0", clipper.clone())
        .await
        .expect("frontend binds");
    let addr = frontend.local_addr();
    println!("HTTP frontend listening on {addr}");

    // Register an app over POST /api/v1/apps.
    let (status, body) = http(
        addr,
        "POST",
        "/api/v1/apps",
        "{\"name\":\"digits-svm-only\",\
          \"candidate_models\":[{\"name\":\"linear-svm\",\"version\":1}],\
          \"policy\":{\"Static\":{\"model_index\":0}},\"slo_ms\":25}",
    )
    .await;
    assert_eq!(status, 201, "app registration over HTTP: {body}");
    println!("registered app over HTTP: {body}");

    // Deploy linear-svm v2 (a retrained container) and roll it out.
    let svm_v2 = Arc::new(LinearSvm::train(&dataset, &LinearSvmConfig::default(), 3));
    let v2 = ModelId::new("linear-svm", 2);
    clipper.add_model(v2.clone(), Default::default());
    let container = ModelContainer::new(ContainerConfig {
        name: "linear-svm:v2:0".into(),
        model_name: "linear-svm".into(),
        model_version: 2,
        logic: ContainerLogic::Classifier(svm_v2 as _),
        timing: TimingModel::Profile(
            LatencyProfile::deterministic(Duration::from_micros(500), Duration::from_micros(15))
                .with_jitter(0.05),
        ),
        seed: 11,
    });
    clipper
        .add_replica(&v2, LocalContainerTransport::new(container))
        .expect("v2 replica attaches");

    let (status, body) = http(
        addr,
        "POST",
        "/api/v1/models/linear-svm/rollout",
        "{\"version\":2}",
    )
    .await;
    assert_eq!(status, 200, "rollout over HTTP: {body}");
    println!("rolled linear-svm to v2: {body}");

    let (status, body) = http(addr, "GET", "/api/v1/models/linear-svm", "").await;
    assert_eq!(status, 200);
    assert!(
        body.contains("\"current_version\":2"),
        "catalog shows v2 current: {body}"
    );

    // The HTTP-registered app now serves from the rolled-out version.
    let example = &dataset.test[0];
    let input_json = serde_json::to_string(&example.x).expect("input serializes");
    let (status, body) = http(
        addr,
        "POST",
        "/api/v1/apps/digits-svm-only/predict",
        &format!("{{\"input\":{input_json}}}"),
    )
    .await;
    assert_eq!(status, 200, "predict through the v1 API: {body}");
    println!("predict via /api/v1 (true label {}): {body}", example.y);

    // And the taxonomy answers 404 — not 500 — for an unknown app.
    let (status, body) = http(
        addr,
        "POST",
        "/api/v1/apps/ghost/predict",
        "{\"input\":[1.0]}",
    )
    .await;
    assert_eq!(status, 404, "unknown app is a 404: {body}");
    println!("unknown app correctly yields 404: {body}");

    println!("\ncontrol-plane smoke passed");
}

/// Issue one HTTP request on a fresh connection; return (status, body).
async fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    clipper::workload::http_request(addr, method, path, body)
        .await
        .expect("http request")
}
