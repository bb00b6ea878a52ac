//! TensorFlow-Serving-like baseline (§6's comparison system).
//!
//! The paper characterizes TensorFlow Serving as: tightly coupled to the
//! model (same process, no RPC boundary), **static** hand-tuned batch
//! sizes with a purely timeout-based dispatch to avoid starvation, no
//! latency objective, no cache, no feedback, one model per server. This
//! crate implements exactly that server so the Figure-4/11 comparisons run
//! against a faithful architectural stand-in rather than a strawman.
//!
//! Like TF-Serving, the server keeps the device saturated by queueing the
//! next batch while the current one executes (`pipeline_depth = 2`).

use clipper_containers::ModelContainer;
use clipper_metrics::{Counter, Histogram, Registry};
use clipper_rpc::message::WireOutput;
use clipper_rpc::transport::Input;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::sync::{mpsc, oneshot, Semaphore};

/// Configuration for a [`TfServingLike`] server.
#[derive(Clone, Debug)]
pub struct TfsConfig {
    /// The hand-tuned static batch size (512/128/16 in Figure 11).
    pub batch_size: usize,
    /// Dispatch an under-full batch after this timeout (starvation guard).
    pub batch_timeout: Duration,
    /// Request queue depth before load shedding.
    pub queue_capacity: usize,
    /// Batches in flight at once (2 = double buffering, as TF-Serving
    /// pushes queueing into the framework).
    pub pipeline_depth: usize,
}

impl Default for TfsConfig {
    fn default() -> Self {
        TfsConfig {
            batch_size: 128,
            batch_timeout: Duration::from_millis(5),
            queue_capacity: 16_384,
            pipeline_depth: 2,
        }
    }
}

/// Telemetry for the baseline server.
#[derive(Clone)]
pub struct TfsMetrics {
    /// End-to-end request latency (µs).
    pub latency_us: Histogram,
    /// Time requests spend queued before dispatch (µs).
    pub queue_us: Histogram,
    /// Model compute per batch (µs).
    pub predict_us: Histogram,
    /// Dispatched batch sizes.
    pub batch_size: Histogram,
    /// Completed requests.
    pub completed: Counter,
}

impl TfsMetrics {
    /// Register under `prefix` in `registry`.
    pub fn register(registry: &Registry, prefix: &str) -> Self {
        TfsMetrics {
            latency_us: registry.histogram(&format!("{prefix}/latency_us")),
            queue_us: registry.histogram(&format!("{prefix}/queue_us")),
            predict_us: registry.histogram(&format!("{prefix}/predict_us")),
            batch_size: registry.histogram(&format!("{prefix}/batch_size")),
            completed: registry.counter(&format!("{prefix}/completed")),
        }
    }
}

struct Item {
    input: Input,
    enqueued: Instant,
    reply: oneshot::Sender<Result<WireOutput, String>>,
}

/// The tightly-coupled single-model serving system.
pub struct TfServingLike {
    tx: mpsc::Sender<Item>,
    metrics: TfsMetrics,
    task: tokio::task::JoinHandle<()>,
}

impl TfServingLike {
    /// Spawn a server executing `container` in-process.
    pub fn spawn(container: Arc<ModelContainer>, cfg: TfsConfig, metrics: TfsMetrics) -> Arc<Self> {
        let (tx, rx) = mpsc::channel(cfg.queue_capacity.max(1));
        let m = metrics.clone();
        let task = tokio::spawn(serve_loop(rx, container, cfg, m));
        Arc::new(TfServingLike { tx, metrics, task })
    }

    /// Serve one prediction.
    pub async fn predict(&self, input: Vec<f32>) -> Result<WireOutput, String> {
        let start = Instant::now();
        let (otx, orx) = oneshot::channel();
        self.tx
            .try_send(Item {
                input: Arc::new(input),
                enqueued: start,
                reply: otx,
            })
            .map_err(|_| "queue full".to_string())?;
        let out = orx.await.map_err(|_| "server shut down".to_string())??;
        self.metrics
            .latency_us
            .record(start.elapsed().as_micros() as u64);
        self.metrics.completed.inc();
        Ok(out)
    }
}

impl Drop for TfServingLike {
    fn drop(&mut self) {
        self.task.abort();
    }
}

async fn serve_loop(
    mut rx: mpsc::Receiver<Item>,
    container: Arc<ModelContainer>,
    cfg: TfsConfig,
    metrics: TfsMetrics,
) {
    let inflight = Arc::new(Semaphore::new(cfg.pipeline_depth.max(1)));
    loop {
        let permit = match inflight.clone().acquire_owned().await {
            Ok(p) => p,
            Err(_) => return,
        };
        let first = match rx.recv().await {
            Some(item) => item,
            None => return,
        };
        // Static batching: wait up to the timeout for a full batch.
        let mut items = vec![first];
        let deadline = tokio::time::Instant::now() + cfg.batch_timeout;
        while items.len() < cfg.batch_size {
            match tokio::time::timeout_at(deadline, rx.recv()).await {
                Ok(Some(item)) => items.push(item),
                Ok(None) | Err(_) => break,
            }
        }

        let container = container.clone();
        let metrics = metrics.clone();
        tokio::spawn(async move {
            for item in &items {
                metrics
                    .queue_us
                    .record(item.enqueued.elapsed().as_micros() as u64);
            }
            metrics.batch_size.record(items.len() as u64);
            // Arc clones only: the feature data stays shared.
            let inputs: Vec<Input> = items.iter().map(|i| i.input.clone()).collect();
            let result =
                tokio::task::spawn_blocking(move || container.evaluate_blocking(&inputs)).await;
            match result {
                Ok(reply) => {
                    metrics.predict_us.record(reply.compute_us);
                    for (item, out) in items.into_iter().zip(reply.outputs) {
                        let _ = item.reply.send(Ok(out));
                    }
                }
                Err(e) => {
                    let msg = format!("container panicked: {e}");
                    for item in items {
                        let _ = item.reply.send(Err(msg.clone()));
                    }
                }
            }
            drop(permit);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipper_containers::{ContainerConfig, ContainerLogic, LatencyProfile, TimingModel};

    fn fixed_container(label: u32, timing: TimingModel) -> Arc<ModelContainer> {
        ModelContainer::new(ContainerConfig {
            name: "tfs:0".into(),
            model_name: "tfs-model".into(),
            model_version: 1,
            logic: ContainerLogic::Fixed(WireOutput::Class(label)),
            timing,
            seed: 1,
        })
    }

    fn server(label: u32, cfg: TfsConfig) -> Arc<TfServingLike> {
        let metrics = TfsMetrics::register(&Registry::new(), "tfs");
        TfServingLike::spawn(fixed_container(label, TimingModel::Measured), cfg, metrics)
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn serves_predictions() {
        let s = server(9, TfsConfig::default());
        let out = s.predict(vec![1.0, 2.0]).await.unwrap();
        assert_eq!(out, WireOutput::Class(9));
        assert_eq!(s.metrics.completed.get(), 1);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn batches_are_capped_at_static_size() {
        let metrics = TfsMetrics::register(&Registry::new(), "tfs");
        let container = fixed_container(
            0,
            TimingModel::Profile(LatencyProfile::deterministic(
                Duration::from_millis(5),
                Duration::ZERO,
            )),
        );
        let s = TfServingLike::spawn(
            container,
            TfsConfig {
                batch_size: 8,
                batch_timeout: Duration::from_millis(2),
                ..Default::default()
            },
            metrics.clone(),
        );
        let mut tasks = Vec::new();
        for i in 0..64 {
            let s = s.clone();
            tasks.push(tokio::spawn(async move {
                s.predict(vec![i as f32]).await.unwrap()
            }));
        }
        for t in tasks {
            t.await.unwrap();
        }
        let snap = metrics.batch_size.snapshot();
        assert!(snap.max() <= 8, "static batch cap exceeded: {}", snap.max());
        assert!(snap.max() >= 2, "under load batches should form");
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn timeout_dispatches_underfull_batches() {
        let s = server(
            3,
            TfsConfig {
                batch_size: 512,
                batch_timeout: Duration::from_millis(5),
                ..Default::default()
            },
        );
        // A single lonely request must not wait for 511 friends.
        let start = Instant::now();
        let out = s.predict(vec![0.0]).await.unwrap();
        assert_eq!(out, WireOutput::Class(3));
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "dispatch stuck: {:?}",
            start.elapsed()
        );
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn full_queue_sheds() {
        let metrics = TfsMetrics::register(&Registry::new(), "tfs");
        let container = fixed_container(
            0,
            TimingModel::Profile(LatencyProfile::deterministic(
                Duration::from_millis(100),
                Duration::ZERO,
            )),
        );
        let s = TfServingLike::spawn(
            container,
            TfsConfig {
                batch_size: 1,
                batch_timeout: Duration::ZERO,
                queue_capacity: 2,
                pipeline_depth: 1,
            },
            metrics,
        );
        let mut errors = 0;
        let mut tasks = Vec::new();
        for i in 0..32 {
            let s = s.clone();
            tasks.push(tokio::spawn(async move { s.predict(vec![i as f32]).await }));
        }
        for t in tasks {
            if t.await.unwrap().is_err() {
                errors += 1;
            }
        }
        assert!(errors > 0, "expected load shedding on a tiny queue");
    }
}
