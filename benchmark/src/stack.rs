//! The system under test, always the whole of it over localhost sockets:
//! `HttpFrontend` → `Clipper` (selection → cache → scheduler → batching
//! queue) → `TcpContainerHandle` → `serve_container` → `ModelContainer`.
//! The tracing decorators are installed in every run, so a traced and an
//! untraced run exercise the same stack.

use clipper_containers::{ContainerConfig, ContainerLogic, ModelContainer};
use clipper_core::{
    AppConfig, BatchConfig, CacheKey, Clipper, HttpFrontend, ModelId, Output, PredictionCache,
};
use clipper_ml::models::Model as MlModel;
use clipper_rpc::client::{serve_container, ContainerClientConfig};
use clipper_rpc::server::RpcServer;
use std::sync::Arc;

use crate::gen::{id_of, model_label, CLASSES};
use crate::trace::{Recorder, TracedHandler, TracedTransport};
use crate::workload::{Driver, Workload, APP, APP_DEADLINE, SLO};

/// A model whose label is a function of the request id in the input.
struct OracleModel {
    name: &'static str,
    index: u32,
    err_pct: u32,
}

impl MlModel for OracleModel {
    fn name(&self) -> &str {
        self.name
    }

    fn num_classes(&self) -> usize {
        CLASSES as usize
    }

    fn scores(&self, x: &[f32]) -> Vec<f32> {
        let mut s = vec![0.0; CLASSES as usize];
        s[self.predict(x) as usize] = 1.0;
        s
    }

    fn predict(&self, x: &[f32]) -> u32 {
        model_label(id_of(x), self.index, self.err_pct)
    }
}

pub struct Stack {
    pub clipper: Clipper,
    pub frontend: Option<HttpFrontend>,
    pub recorder: Arc<Recorder>,
    pub models: Vec<ModelId>,
    /// Queue id of every replica, indexed as the trace's `replica`.
    pub queue_ids: Vec<String>,
    containers: Vec<tokio::task::JoinHandle<()>>,
}

impl Stack {
    pub async fn build(w: &Workload, seed: u64) -> Stack {
        let clipper = Clipper::builder().build();
        let mut rpc = RpcServer::bind("127.0.0.1:0")
            .await
            .expect("bind rpc listener");
        let recorder = Arc::new(Recorder::default());
        let mut containers = Vec::new();
        let mut names = Vec::new();
        for (m, model) in w.models.iter().enumerate() {
            for (r, timing) in model.replicas.iter().enumerate() {
                let name = format!("{}:{r}", model.name);
                let container = ModelContainer::new(ContainerConfig {
                    name: name.clone(),
                    model_name: model.name.into(),
                    model_version: 1,
                    logic: ContainerLogic::Classifier(Arc::new(OracleModel {
                        name: model.name,
                        index: m as u32,
                        err_pct: model.err_pct,
                    })),
                    timing: timing.clone(),
                    seed: seed ^ names.len() as u64,
                });
                let handler = Arc::new(TracedHandler {
                    inner: container,
                    replica: names.len() as u32,
                    recorder: recorder.clone(),
                });
                let cfg = ContainerClientConfig {
                    container_name: name.clone(),
                    model_name: model.name.into(),
                    model_version: 1,
                };
                let addr = rpc.local_addr();
                containers.push(tokio::spawn(async move {
                    // Ends when the stack aborts it or Clipper hangs up.
                    let _ = serve_container(addr, cfg, handler).await;
                }));
                names.push(name);
            }
        }

        // Containers register in whatever order their connections land.
        let mut queue_ids = vec![String::new(); names.len()];
        let mut models = Vec::new();
        for model in &w.models {
            let id = ModelId::new(model.name, 1);
            clipper.add_model(
                id.clone(),
                BatchConfig {
                    slo: SLO,
                    ..BatchConfig::default()
                },
            );
            models.push(id);
        }
        for _ in 0..names.len() {
            let (info, handle) = rpc.next_container().await.expect("container registers");
            let replica = names
                .iter()
                .position(|n| *n == info.container_name)
                .expect("a container this stack started");
            let transport = Arc::new(TracedTransport {
                inner: Arc::new(handle),
                replica: replica as u32,
                recorder: recorder.clone(),
            });
            let id = ModelId::new(&info.model_name, info.model_version);
            queue_ids[replica] = clipper
                .add_replica(&id, transport)
                .expect("model is registered");
        }

        clipper.register_app(
            AppConfig::new(APP, models.clone())
                .with_policy(w.policy.clone())
                .with_slo(APP_DEADLINE)
                .with_seed(seed),
        );
        if w.prefill_cache {
            prefill(clipper.abstraction().cache(), seed);
        }
        let frontend = match w.driver {
            Driver::Http { .. } => Some(
                HttpFrontend::bind("127.0.0.1:0", clipper.clone())
                    .await
                    .expect("bind http frontend"),
            ),
            _ => None,
        };
        Stack {
            clipper,
            frontend,
            recorder,
            models,
            queue_ids,
            containers,
        }
    }

    /// Each replica queue's own histogram of how long queries waited in
    /// it, in replica order.
    pub fn queue_wait_histograms(&self) -> Vec<clipper_metrics::Histogram> {
        let registry = self.clipper.registry();
        self.queue_ids
            .iter()
            .map(|q| registry.histogram(&format!("queue/{q}/queue_us")))
            .collect()
    }

    /// Drain the queues and stop the containers. The rpc accept loop has
    /// no handle and stays parked on its listener until the process ends.
    pub fn teardown(self) {
        drop(self.frontend);
        for id in &self.models {
            self.clipper.remove_replicas(id);
        }
        for c in &self.containers {
            c.abort();
        }
    }
}

/// Fill the cache with entries no request will ask for: twice its
/// capacity of them, so that every shard is full, not just the average one.
fn prefill(cache: &PredictionCache, seed: u64) {
    for i in 0..2 * cache.capacity() as u64 {
        let key = CacheKey::from_fingerprint(crate::gen::mix64(seed ^ i), !i);
        // The first lookup of a key claims it; the fill stores the value.
        drop(cache.lookup_or_pending(key));
        cache.fill(key, Ok(Output::Class(0)));
    }
}
