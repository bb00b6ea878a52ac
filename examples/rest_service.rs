//! A fully networked Clipper deployment — every process boundary from the
//! paper's architecture figure, on real sockets:
//!
//! ```text
//! HTTP client ──► HTTP frontend ──► Clipper core ──► RPC ──► model containers
//!                                        │
//!                                        └──► statestore (RESP/TCP)
//! ```
//!
//! ```sh
//! cargo run --release --example rest_service
//! ```

use clipper::containers::{
    spawn_tcp_container, ContainerConfig, ContainerLogic, ModelContainer, TimingModel,
};
use clipper::core::{AppConfig, Clipper, HttpFrontend, ModelId, PolicyKind};
use clipper::ml::datasets::DatasetSpec;
use clipper::ml::models::{
    LinearSvm, LinearSvmConfig, LogisticRegression, LogisticRegressionConfig,
};
use clipper::rpc::server::RpcServer;
use clipper::statestore::{StateStore, StateStoreClient, StateStoreServer};
use std::sync::Arc;
use std::time::Duration;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::TcpStream;

#[tokio::main]
async fn main() {
    println!("== Networked Clipper deployment ==\n");

    // --- statestore as a separate TCP service (the paper's Redis) ---
    let store = Arc::new(StateStore::new());
    let store_server = StateStoreServer::bind("127.0.0.1:0", store.clone())
        .await
        .expect("statestore binds");
    println!("statestore listening on {}", store_server.local_addr());

    // --- Clipper core + container RPC listener ---
    let clipper = Clipper::builder().statestore(store).build();
    let mut rpc = RpcServer::bind("127.0.0.1:0").await.expect("rpc binds");
    println!("container RPC listening on {}", rpc.local_addr());

    // --- train models and launch containers as RPC clients ---
    let dataset = DatasetSpec::mnist_like()
        .with_train_size(400)
        .with_test_size(100)
        .generate(3);
    let svm = Arc::new(LinearSvm::train(&dataset, &LinearSvmConfig::default(), 1));
    let logreg = Arc::new(LogisticRegression::train(
        &dataset,
        &LogisticRegressionConfig::default(),
        2,
    ));

    for (name, logic) in [
        ("svm", ContainerLogic::Classifier(svm as _)),
        ("logreg", ContainerLogic::Classifier(logreg as _)),
    ] {
        let container = ModelContainer::new(ContainerConfig {
            name: format!("{name}:0"),
            model_name: name.into(),
            model_version: 1,
            logic,
            timing: TimingModel::Measured,
            seed: 1,
        });
        spawn_tcp_container(rpc.local_addr(), container);
    }

    // Accept both container registrations and wire them into Clipper.
    for _ in 0..2 {
        let (info, handle) = rpc.next_container().await.expect("registration");
        let id = ModelId::new(&info.model_name, info.model_version);
        clipper.add_model(id.clone(), Default::default());
        clipper
            .add_replica(&id, Arc::new(handle))
            .expect("replica attaches");
        println!(
            "container {} registered from {} (model {})",
            info.container_name, info.remote_addr, id
        );
    }

    clipper.register_app(
        AppConfig::new(
            "digits",
            vec![ModelId::new("svm", 1), ModelId::new("logreg", 1)],
        )
        .with_policy(PolicyKind::Exp4 { eta: 0.2 })
        .with_slo(Duration::from_millis(50)),
    );

    // --- HTTP frontend ---
    let frontend = HttpFrontend::bind("127.0.0.1:0", clipper.clone())
        .await
        .expect("frontend binds");
    println!("HTTP frontend listening on {}\n", frontend.local_addr());

    // --- act as an application: REST predict + update calls ---
    let example = &dataset.test[0];
    let input_json = serde_json::to_string(&example.x).unwrap();
    let body = format!("{{\"input\": {input_json}, \"context\": \"demo-user\"}}");
    let request = format!(
        "POST /api/v1/apps/digits/predict HTTP/1.1\r\nhost: clipper\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut conn = TcpStream::connect(frontend.local_addr()).await.unwrap();
    conn.write_all(request.as_bytes()).await.unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).await.unwrap();
    let json_body = response.split("\r\n\r\n").nth(1).unwrap_or("");
    println!("REST predict (true label {}): {json_body}", example.y);

    // feedback over REST
    let body = format!(
        "{{\"input\": {input_json}, \"context\": \"demo-user\", \"label\": {}}}",
        example.y
    );
    let request = format!(
        "POST /api/v1/apps/digits/update HTTP/1.1\r\nhost: clipper\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut conn = TcpStream::connect(frontend.local_addr()).await.unwrap();
    conn.write_all(request.as_bytes()).await.unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).await.unwrap();
    println!(
        "REST update: {}",
        response.split("\r\n\r\n").nth(1).unwrap_or("")
    );

    // --- peek at the contextual state through the statestore protocol ---
    let ss_client = StateStoreClient::connect(store_server.local_addr())
        .await
        .expect("statestore client");
    let raw = ss_client
        .get("selstate/digits/demo-user")
        .await
        .expect("get state")
        .expect("state present");
    println!(
        "\nselection state for demo-user (via RESP protocol): {}",
        String::from_utf8_lossy(&raw)
    );
    println!(
        "total contexts in store: {}",
        ss_client.dbsize().await.unwrap()
    );
}
