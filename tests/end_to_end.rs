//! End-to-end integration tests over the fully networked stack: HTTP
//! frontend → Clipper core → TCP RPC → model containers, with selection
//! state in a TCP statestore — every process boundary from the paper's
//! architecture diagram on real sockets.

use clipper::containers::{
    spawn_tcp_container, ContainerConfig, ContainerLogic, ModelContainer, TimingModel,
};
use clipper::core::{AppConfig, Clipper, HttpFrontend, ModelId, PolicyKind};
use clipper::ml::datasets::DatasetSpec;
use clipper::ml::models::{LinearSvm, LinearSvmConfig};
use clipper::rpc::server::RpcServer;
use clipper::statestore::{StateStore, StateStoreClient, StateStoreServer};
use std::sync::Arc;
use std::time::Duration;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::TcpStream;

async fn networked_stack() -> (Clipper, HttpFrontend, StateStoreServer, Vec<ModelId>) {
    let store = Arc::new(StateStore::new());
    let store_server = StateStoreServer::bind("127.0.0.1:0", store.clone())
        .await
        .unwrap();
    let clipper = Clipper::builder().statestore(store).build();
    let mut rpc = RpcServer::bind("127.0.0.1:0").await.unwrap();

    let dataset = DatasetSpec::mnist_like()
        .with_train_size(300)
        .with_test_size(50)
        .with_difficulty(0.3)
        .generate(5);
    for (i, name) in ["svm-a", "svm-b"].iter().enumerate() {
        let model = Arc::new(LinearSvm::train(
            &dataset,
            &LinearSvmConfig::default(),
            i as u64,
        ));
        let container = ModelContainer::new(ContainerConfig {
            name: format!("{name}:0"),
            model_name: name.to_string(),
            model_version: 1,
            logic: ContainerLogic::Classifier(model),
            timing: TimingModel::Measured,
            seed: i as u64,
        });
        spawn_tcp_container(rpc.local_addr(), container);
    }
    let mut ids = Vec::new();
    for _ in 0..2 {
        let (info, handle) = rpc.next_container().await.unwrap();
        let id = ModelId::new(&info.model_name, info.model_version);
        clipper.add_model(id.clone(), Default::default());
        clipper.add_replica(&id, Arc::new(handle)).unwrap();
        ids.push(id);
    }
    ids.sort();
    clipper.register_app(
        AppConfig::new("digits", ids.clone())
            .with_policy(PolicyKind::Exp4 { eta: 0.2 })
            .with_slo(Duration::from_millis(100)),
    );
    let frontend = HttpFrontend::bind("127.0.0.1:0", clipper.clone())
        .await
        .unwrap();
    (clipper, frontend, store_server, ids)
}

async fn http_post(addr: std::net::SocketAddr, path: &str, body: &str) -> String {
    let mut conn = TcpStream::connect(addr).await.unwrap();
    let req = format!(
        "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(req.as_bytes()).await.unwrap();
    conn.shutdown().await.unwrap();
    let mut out = String::new();
    conn.read_to_string(&mut out).await.unwrap();
    out
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn predict_and_feedback_over_every_wire() {
    let (clipper, frontend, store_server, _ids) = networked_stack().await;

    // Predict over HTTP (which crosses the TCP RPC to containers).
    let input: Vec<f32> = vec![0.25; 784];
    let body = format!(
        "{{\"input\": {}, \"context\": \"user-7\"}}",
        serde_json::to_string(&input).unwrap()
    );
    let resp = http_post(frontend.local_addr(), "/api/v1/apps/digits/predict", &body).await;
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("\"confidence\""), "{resp}");

    // Feedback over HTTP.
    let body = format!(
        "{{\"input\": {}, \"context\": \"user-7\", \"label\": 3}}",
        serde_json::to_string(&input).unwrap()
    );
    let resp = http_post(frontend.local_addr(), "/api/v1/apps/digits/update", &body).await;
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");

    // The contextual state is now visible through the statestore's own
    // network protocol.
    let ss = StateStoreClient::connect(store_server.local_addr())
        .await
        .unwrap();
    let state_bytes = ss
        .get("selstate/digits/user-7")
        .await
        .unwrap()
        .expect("state stored");
    let state: serde_json::Value = serde_json::from_slice(&state_bytes).unwrap();
    assert_eq!(state["total"], 1);

    // And through the native API.
    let state = clipper.policy_state("digits", Some("user-7")).unwrap();
    assert_eq!(state.total, 1);
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn accuracy_flows_through_the_whole_stack() {
    let (clipper, _frontend, _store, _ids) = networked_stack().await;
    // The containers host real trained models; the ensemble should get
    // most of an easy holdout right, end to end over TCP.
    let dataset = DatasetSpec::mnist_like()
        .with_train_size(300)
        .with_test_size(50)
        .with_difficulty(0.3)
        .generate(5);
    let mut correct = 0;
    for ex in dataset.test.iter().take(30) {
        let p = clipper
            .predict("digits", None, Arc::new(ex.x.clone()))
            .await
            .unwrap();
        if p.output.label() == ex.y {
            correct += 1;
        }
    }
    assert!(correct >= 25, "end-to-end accuracy {correct}/30");
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn container_crash_degrades_gracefully_and_metrics_expose_it() {
    let store = Arc::new(StateStore::new());
    let clipper = Clipper::builder().statestore(store).build();
    let mut rpc = RpcServer::bind("127.0.0.1:0").await.unwrap();

    let container = ModelContainer::new(ContainerConfig {
        name: "only:0".into(),
        model_name: "only".into(),
        model_version: 1,
        logic: ContainerLogic::Fixed(clipper::rpc::message::WireOutput::Class(4)),
        timing: TimingModel::Measured,
        seed: 0,
    });
    let task = spawn_tcp_container(rpc.local_addr(), container);
    let (info, handle) = rpc.next_container().await.unwrap();
    let id = ModelId::new(&info.model_name, 1);
    clipper.add_model(id.clone(), Default::default());
    clipper.add_replica(&id, Arc::new(handle)).unwrap();
    clipper.register_app(
        AppConfig::new("app", vec![id])
            .with_policy(PolicyKind::MajorityVote)
            .with_slo(Duration::from_millis(50))
            .with_default_output(clipper::core::Output::Class(99)),
    );

    // Healthy path.
    let p = clipper
        .predict("app", None, Arc::new(vec![1.0]))
        .await
        .unwrap();
    assert_eq!(p.output.label(), 4);

    // Kill the container; Clipper must keep answering rather than failing
    // or hanging. Because the model already produced outputs, §5.2.2's
    // substitution answers with its *running default* (the modal label 4),
    // flagged via models_used = 0.
    task.abort();
    tokio::time::sleep(Duration::from_millis(50)).await;
    let p = clipper
        .predict("app", None, Arc::new(vec![2.0]))
        .await
        .unwrap();
    assert_eq!(p.output.label(), 4, "running-default substitution");
    assert_eq!(p.models_used, 0);
    assert_eq!(p.models_missing, 1);
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn app_default_when_model_never_answered() {
    // A model that dies before producing any output has no running
    // default; the application's sensible default action applies.
    let clipper = Clipper::builder().build();
    let id = ModelId::new("never", 1);
    clipper.add_model(id.clone(), Default::default());
    let dead = Arc::new(clipper::rpc::faulty::FaultyTransport::new(
        {
            let c = ModelContainer::new(ContainerConfig {
                name: "never:0".into(),
                model_name: "never".into(),
                model_version: 1,
                logic: ContainerLogic::Fixed(clipper::rpc::message::WireOutput::Class(4)),
                timing: TimingModel::Measured,
                seed: 0,
            });
            clipper::containers::LocalContainerTransport::new(c)
        },
        clipper::rpc::faulty::FaultConfig {
            drop_prob: 1.0,
            ..Default::default()
        },
        1,
    ));
    clipper.add_replica(&id, dead).unwrap();
    clipper.register_app(
        AppConfig::new("app", vec![id])
            .with_policy(PolicyKind::MajorityVote)
            .with_slo(Duration::from_millis(30))
            .with_default_output(clipper::core::Output::Class(99)),
    );
    let p = clipper
        .predict("app", None, Arc::new(vec![1.0]))
        .await
        .unwrap();
    assert_eq!(
        p.output.label(),
        99,
        "app default when nothing ever arrived"
    );
    assert_eq!(p.confidence, 0.0);
}
