//! Control-plane integration tests, driven end-to-end through the HTTP
//! API: app CRUD round-trips, model-version rollout/rollback under
//! sustained open-loop traffic with zero dropped predictions, and
//! registry rehydration from the statestore after a frontend restart.

use clipper::core::api::{self, AppView};
use clipper::core::batching::QueueConfig;
use clipper::core::{AppConfig, Clipper, HttpFrontend, ModelId, PolicyKind};
use clipper::rpc::message::{PredictReply, WireOutput};
use clipper::rpc::transport::{BatchTransport, FnTransport, Input};
use clipper::statestore::StateStore;
use clipper::workload::{run_open_loop_with_churn, ArrivalProcess, ChurnAction, RequestOutcome};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// A transport answering a constant label.
fn const_transport(label: u32) -> Arc<dyn BatchTransport> {
    Arc::new(FnTransport::new(
        &format!("const-{label}"),
        move |inputs: &[Input]| {
            Ok(PredictReply {
                outputs: vec![WireOutput::Class(label); inputs.len()],
                queue_us: 0,
                compute_us: 20,
            })
        },
    ))
}

/// Issue one HTTP request on a fresh connection; return (status, body).
async fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    clipper::workload::http_request(addr, method, path, body)
        .await
        .expect("http request")
}

/// Stand up a Clipper with model `m` v1 (label 1) + v2 (label 2) and an
/// app `digits` pointed at v1, behind an HTTP frontend.
async fn start_two_version_deployment(store: Option<Arc<StateStore>>) -> (HttpFrontend, Clipper) {
    let mut builder = Clipper::builder();
    if let Some(store) = store {
        builder = builder.statestore(store);
    }
    let clipper = builder.build();
    let v1 = ModelId::new("m", 1);
    let v2 = ModelId::new("m", 2);
    clipper.add_model(v1.clone(), QueueConfig::default());
    clipper.add_replica(&v1, const_transport(1)).unwrap();
    clipper.add_model(v2.clone(), QueueConfig::default());
    clipper.add_replica(&v2, const_transport(2)).unwrap();
    clipper.register_app(
        AppConfig::new("digits", vec![v1])
            .with_policy(PolicyKind::Static { model_index: 0 })
            .with_slo(Duration::from_millis(100)),
    );
    let frontend = HttpFrontend::bind("127.0.0.1:0", clipper.clone())
        .await
        .unwrap();
    (frontend, clipper)
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn http_crud_round_trip_and_error_taxonomy() {
    let (frontend, _clipper) = start_two_version_deployment(None).await;
    let addr = frontend.local_addr();

    // Unknown app over the data plane: 404 (regression — used to be 500).
    let (status, body) = http(
        addr,
        "POST",
        "/api/v1/apps/ghost/predict",
        "{\"input\":[1.0]}",
    )
    .await;
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("\"code\":\"app_unknown\""), "{body}");

    // Register a second app over HTTP.
    let (status, body) = http(
        addr,
        "POST",
        "/api/v1/apps",
        "{\"name\":\"pets\",\"candidate_models\":[{\"name\":\"m\",\"version\":1}],\"slo_ms\":40,\"policy\":{\"Static\":{\"model_index\":0}}}",
    )
    .await;
    assert_eq!(status, 201, "{body}");

    // Registering against an unknown model is a 404, not a silent accept.
    let (status, body) = http(
        addr,
        "POST",
        "/api/v1/apps",
        "{\"name\":\"bad\",\"candidate_models\":[{\"name\":\"nope\",\"version\":1}]}",
    )
    .await;
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("model_unknown"), "{body}");

    // Read back, PATCH, and observe the update.
    let (status, body) = http(addr, "GET", "/api/v1/apps/pets", "").await;
    assert_eq!(status, 200);
    assert!(body.contains("\"slo_ms\":40"), "{body}");
    let (status, body) = http(addr, "PATCH", "/api/v1/apps/pets", "{\"slo_ms\":80}").await;
    assert_eq!(status, 200, "{body}");
    let (_, body) = http(addr, "GET", "/api/v1/apps/pets", "").await;
    assert!(body.contains("\"slo_ms\":80"), "{body}");

    // The HTTP-registered app serves predictions.
    let (status, body) = http(
        addr,
        "POST",
        "/api/v1/apps/pets/predict",
        "{\"input\":[3.0]}",
    )
    .await;
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"label\":1"), "{body}");

    // DELETE unregisters; further predicts 404.
    let (status, _) = http(addr, "DELETE", "/api/v1/apps/pets", "").await;
    assert_eq!(status, 200);
    let (status, _) = http(
        addr,
        "POST",
        "/api/v1/apps/pets/predict",
        "{\"input\":[3.0]}",
    )
    .await;
    assert_eq!(status, 404);

    // Model catalog lists the version directory.
    let (status, body) = http(addr, "GET", "/api/v1/models/m", "").await;
    assert_eq!(status, 200);
    assert!(body.contains("\"current_version\":1"), "{body}");
    assert!(body.contains("\"versions\":[1,2]"), "{body}");
}

/// The acceptance scenario: a rollout issued over `POST
/// /api/v1/models/{name}/rollout` while the workload driver sustains
/// open-loop traffic completes with 0 dropped predictions and 0 pending
/// cache entries; subsequent predicts are served by the new version; a
/// rollback restores the old one. Everything flows through the HTTP API.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn rollout_and_rollback_mid_traffic_drop_nothing() {
    let (frontend, clipper) = start_two_version_deployment(None).await;
    let addr = frontend.local_addr();

    let rollout_addr = addr;
    let rollback_addr = addr;
    let report = run_open_loop_with_churn(
        ArrivalProcess::Uniform { rate: 150.0 },
        Duration::from_millis(1_500),
        11,
        move |seq| async move {
            // Distinct inputs so the prediction cache can't mask which
            // version served the query.
            let body = format!("{{\"input\":[{seq}.0, 0.5]}}");
            let (status, _body) = http(addr, "POST", "/api/v1/apps/digits/predict", &body).await;
            match status {
                200 => RequestOutcome::Ok,
                429 => RequestOutcome::Shed,
                _ => RequestOutcome::Error,
            }
        },
        vec![
            ChurnAction::at(Duration::from_millis(400), "rollout m→v2", async move {
                let (status, body) = http(
                    rollout_addr,
                    "POST",
                    "/api/v1/models/m/rollout",
                    "{\"version\":2}",
                )
                .await;
                if status == 200 {
                    Ok(body)
                } else {
                    Err(format!("rollout failed: {status} {body}"))
                }
            }),
            ChurnAction::at(Duration::from_millis(900), "rollback m→v1", async move {
                let (status, body) =
                    http(rollback_addr, "POST", "/api/v1/models/m/rollback", "").await;
                if status == 200 {
                    Ok(body)
                } else {
                    Err(format!("rollback failed: {status} {body}"))
                }
            }),
        ],
    )
    .await;

    for action in &report.actions {
        assert!(
            action.result.is_ok(),
            "{} must succeed: {:?}",
            action.label,
            action.result
        );
    }
    assert_eq!(
        report.load.errors, 0,
        "churn must drop nothing: {} errors / {} completed",
        report.load.errors, report.load.completed
    );
    assert_eq!(report.load.shed, 0, "churn must shed nothing");
    assert!(
        report.load.completed > 100,
        "traffic actually flowed: {}",
        report.load.completed
    );
    assert_eq!(
        clipper.abstraction().cache().pending_len(),
        0,
        "no pending cache entry survives the churn"
    );

    // After rollout+rollback the current version is 1 again and serves.
    let (status, body) = http(addr, "GET", "/api/v1/models/m", "").await;
    assert_eq!(status, 200);
    assert!(body.contains("\"current_version\":1"), "{body}");
    let (status, body) = http(
        addr,
        "POST",
        "/api/v1/apps/digits/predict",
        "{\"input\":[77777.0]}",
    )
    .await;
    assert_eq!(status, 200);
    assert!(body.contains("\"label\":1"), "served by v1 again: {body}");
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn rollout_switches_served_version_over_http() {
    let (frontend, _clipper) = start_two_version_deployment(None).await;
    let addr = frontend.local_addr();
    let (_, body) = http(
        addr,
        "POST",
        "/api/v1/apps/digits/predict",
        "{\"input\":[10.0]}",
    )
    .await;
    assert!(body.contains("\"label\":1"), "{body}");
    let (status, body) = http(addr, "POST", "/api/v1/models/m/rollout", "{\"version\":2}").await;
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"repointed_apps\":[\"digits\"]"), "{body}");
    let (_, body) = http(
        addr,
        "POST",
        "/api/v1/apps/digits/predict",
        "{\"input\":[11.0]}",
    )
    .await;
    assert!(body.contains("\"label\":2"), "new version serves: {body}");
    // Rolling out the already-current version is a typed 409.
    let (status, body) = http(addr, "POST", "/api/v1/models/m/rollout", "{\"version\":2}").await;
    assert_eq!(status, 409);
    assert!(body.contains("already_current"), "{body}");
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn registry_rehydrates_into_a_fresh_frontend() {
    let store = Arc::new(StateStore::new());
    {
        let (frontend, _clipper) = start_two_version_deployment(Some(store.clone())).await;
        let addr = frontend.local_addr();
        // Mutate config over HTTP so what persists is what the control
        // plane wrote: register an app, roll the model forward.
        let (status, _) = http(
            addr,
            "POST",
            "/api/v1/apps",
            "{\"name\":\"pets\",\"candidate_models\":[{\"name\":\"m\",\"version\":1}],\"slo_ms\":64}",
        )
        .await;
        assert_eq!(status, 201, "create ok");
        let (status, _) = http(addr, "POST", "/api/v1/models/m/rollout", "{\"version\":2}").await;
        assert_eq!(status, 200);
        // Frontend and Clipper drop here — the "restart".
    }

    let revived = Clipper::builder().statestore(store.clone()).build();
    let report = revived.sync_config().await;
    assert_eq!(report.adopted_models, 1);
    assert_eq!(report.adopted_apps, 2, "digits + pets");
    assert!(report.skipped.is_empty());
    assert_eq!(revived.current_version("m"), Some(2));
    // Both apps were repointed at v2 by the persisted rollout.
    for app in ["digits", "pets"] {
        let cfg = revived.app_config(app).expect("app rehydrated");
        assert_eq!(cfg.candidate_models, vec![ModelId::new("m", 2)]);
    }
    // Re-attach a replica and serve over a fresh frontend.
    revived
        .add_replica(&ModelId::new("m", 2), const_transport(2))
        .unwrap();
    let frontend = HttpFrontend::bind("127.0.0.1:0", revived.clone())
        .await
        .unwrap();
    let (status, body) = http(
        frontend.local_addr(),
        "POST",
        "/api/v1/apps/digits/predict",
        "{\"input\":[1.0]}",
    )
    .await;
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"label\":2"), "{body}");

    // The persisted record itself is well-formed JSON of the API shape.
    let bytes = store.get(&api::app_key("pets")).expect("record present");
    let rec: AppView = serde_json::from_slice(&bytes).expect("record parses");
    assert_eq!(rec.slo_ms, 64);
}
