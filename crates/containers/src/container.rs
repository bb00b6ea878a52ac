//! The model container: logic + timing behind the batch-predict interface.
//!
//! A container is a serially-shared resource (one model, one device): the
//! [`LocalContainerTransport`] enforces that with an internal lock, and the
//! TCP path inherits it from the RPC client, whose one execution thread
//! reads, runs and answers each frame in turn. Queue time (waiting for
//! the container lock or the device) and compute time are reported
//! separately in every [`PredictReply`], and the RPC client passes both
//! through unchanged, so the Figure-11 decomposition falls out of
//! ordinary telemetry.

use crate::gpu::GpuDevice;
use crate::latency::{precise_sleep, LatencyProfile};
use crate::logic::ContainerLogic;
use clipper_rpc::client::{serve_container, BatchHandler, ContainerClientConfig};
use clipper_rpc::error::RpcError;
use clipper_rpc::message::PredictReply;
use clipper_rpc::transport::{BatchTransport, BoxFuture, Input};
use parking_lot::Mutex;
use rand::prelude::*;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// How a container's clock behaves.
#[derive(Clone)]
pub enum TimingModel {
    /// Real measured compute time only — no simulation.
    Measured,
    /// Pad each batch to a calibrated latency profile (Figure-3 curves).
    /// Real compute still happens; the pad covers the gap between our
    /// models and the paper's framework stacks.
    Profile(LatencyProfile),
    /// Execute on a simulated wave-parallel GPU (Figure-6/11 deep models).
    /// Containers sharing one `Arc<GpuDevice>` contend for it, replicas
    /// with their own devices scale linearly.
    Gpu(Arc<GpuDevice>),
    /// Like `Profile`, with an extra per-batch overhead factor — the
    /// "Python container" of Figure 11 (interpreter + serialization tax).
    ProfileWithOverhead(LatencyProfile, f64),
}

/// Configuration for one container instance.
#[derive(Clone)]
pub struct ContainerConfig {
    /// Container instance name (unique per replica), e.g. `"mnist-svm:0"`.
    pub name: String,
    /// Model name this container registers under.
    pub model_name: String,
    /// Model version.
    pub model_version: u32,
    /// What the container computes.
    pub logic: ContainerLogic,
    /// How long it takes.
    pub timing: TimingModel,
    /// Seed for latency jitter.
    pub seed: u64,
}

/// A model container: evaluates batches serially with its timing model.
pub struct ModelContainer {
    cfg: ContainerConfig,
    rng: Mutex<StdRng>,
    /// Serial-execution lock: one batch in the container at a time
    /// (GPU-timed containers serialize on the device instead).
    busy: Mutex<()>,
}

impl ModelContainer {
    /// Build a container from its config.
    pub fn new(cfg: ContainerConfig) -> Arc<Self> {
        let seed = cfg.seed;
        Arc::new(ModelContainer {
            cfg,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            busy: Mutex::new(()),
        })
    }

    /// Evaluate one batch of shared feature vectors synchronously (call
    /// from a blocking context).
    ///
    /// Returns the reply with `queue_us` = time spent waiting for the
    /// container/device and `compute_us` = time inside the model.
    pub fn evaluate_blocking(&self, inputs: &[Input]) -> PredictReply {
        match &self.cfg.timing {
            TimingModel::Gpu(device) => {
                // CPU-side answer computation is cheap; device time rules.
                let outputs = self.cfg.logic.evaluate(inputs);
                let (queue, compute) = device.execute_blocking(inputs.len());
                PredictReply {
                    outputs,
                    queue_us: queue.as_micros() as u64,
                    compute_us: compute.as_micros() as u64,
                }
            }
            timing => {
                let enqueue = Instant::now();
                let guard = self.busy.lock();
                let queue = enqueue.elapsed();
                let start = Instant::now();
                let outputs = self.cfg.logic.evaluate(inputs);
                let target = match timing {
                    TimingModel::Measured => None,
                    TimingModel::Profile(p) => Some(p.sample(inputs.len(), &mut self.rng.lock())),
                    TimingModel::ProfileWithOverhead(p, overhead) => {
                        let base = p.sample(inputs.len(), &mut self.rng.lock());
                        Some(base.mul_f64(1.0 + overhead))
                    }
                    TimingModel::Gpu(_) => unreachable!("handled above"),
                };
                if let Some(target) = target {
                    let elapsed = start.elapsed();
                    if elapsed < target {
                        precise_sleep(target - elapsed);
                    }
                }
                let compute = start.elapsed();
                drop(guard);
                PredictReply {
                    outputs,
                    queue_us: queue.as_micros() as u64,
                    compute_us: compute.as_micros() as u64,
                }
            }
        }
    }
}

impl BatchHandler for ModelContainer {
    fn handle_batch(&self, inputs: Vec<Input>) -> Result<PredictReply, String> {
        Ok(self.evaluate_blocking(&inputs))
    }
}

/// In-process transport to a container — the fast path used by most
/// experiments (no sockets, same semantics).
pub struct LocalContainerTransport {
    container: Arc<ModelContainer>,
}

impl LocalContainerTransport {
    /// Wrap a container.
    pub fn new(container: Arc<ModelContainer>) -> Arc<Self> {
        Arc::new(LocalContainerTransport { container })
    }
}

impl BatchTransport for LocalContainerTransport {
    fn predict_batch(&self, inputs: &[Input]) -> BoxFuture<Result<PredictReply, RpcError>> {
        let container = self.container.clone();
        let inputs = inputs.to_vec(); // Arc clones only
        Box::pin(async move {
            tokio::task::spawn_blocking(move || container.evaluate_blocking(&inputs))
                .await
                .map_err(|e| RpcError::Remote(format!("container panicked: {e}")))
        })
    }

    fn id(&self) -> String {
        self.container.cfg.name.clone()
    }
}

/// Run a container as a real RPC client against a Clipper server at `addr`.
/// Returns the task handle; aborting it kills the container: the socket
/// is shut down at once, so Clipper sees EOF and the execution thread
/// exits at its next read or write (after the batch it is running).
pub fn spawn_tcp_container(
    addr: SocketAddr,
    container: Arc<ModelContainer>,
) -> tokio::task::JoinHandle<Result<(), RpcError>> {
    let cfg = ContainerClientConfig {
        container_name: container.cfg.name.clone(),
        model_name: container.cfg.model_name.clone(),
        model_version: container.cfg.model_version,
    };
    tokio::spawn(async move { serve_container(addr, cfg, container).await })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipper_rpc::message::WireOutput;
    use clipper_rpc::transport::as_inputs;
    use std::time::Duration;

    fn fixed_container(timing: TimingModel) -> Arc<ModelContainer> {
        ModelContainer::new(ContainerConfig {
            name: "test:0".into(),
            model_name: "test".into(),
            model_version: 1,
            logic: ContainerLogic::Fixed(WireOutput::Class(3)),
            timing,
            seed: 7,
        })
    }

    #[test]
    fn measured_timing_reports_compute() {
        let c = fixed_container(TimingModel::Measured);
        let r = c.evaluate_blocking(&as_inputs(vec![vec![0.0], vec![1.0]]));
        assert_eq!(r.outputs, vec![WireOutput::Class(3); 2]);
        // No simulation: compute should be fast (well under a millisecond).
        assert!(r.compute_us < 5_000);
    }

    #[test]
    fn profile_timing_pads_to_target() {
        let p = LatencyProfile::deterministic(Duration::from_millis(2), Duration::from_micros(500));
        let c = fixed_container(TimingModel::Profile(p));
        let start = Instant::now();
        let r = c.evaluate_blocking(&as_inputs(vec![vec![0.0]; 4]));
        let elapsed = start.elapsed();
        // Expected: 2ms + 4·0.5ms = 4ms.
        assert!(elapsed >= Duration::from_millis(4), "elapsed {elapsed:?}");
        assert!(r.compute_us >= 4_000);
    }

    #[test]
    fn python_overhead_inflates_latency() {
        let p = LatencyProfile::deterministic(Duration::from_millis(5), Duration::ZERO);
        let fast = fixed_container(TimingModel::Profile(p.clone()));
        let slow = fixed_container(TimingModel::ProfileWithOverhead(p, 0.5));
        let rf = fast.evaluate_blocking(&[Arc::new(vec![0.0])]);
        let rs = slow.evaluate_blocking(&[Arc::new(vec![0.0])]);
        assert!(
            rs.compute_us as f64 >= rf.compute_us as f64 * 1.3,
            "python overhead should add ≥30%: {} vs {}",
            rs.compute_us,
            rf.compute_us
        );
    }

    #[test]
    fn container_serializes_concurrent_batches() {
        let p = LatencyProfile::deterministic(Duration::from_millis(20), Duration::ZERO);
        let c = fixed_container(TimingModel::Profile(p));
        let c2 = c.clone();
        let t = std::thread::spawn(move || c2.evaluate_blocking(&[Arc::new(vec![0.0])]));
        std::thread::sleep(Duration::from_millis(5));
        let r = c.evaluate_blocking(&[Arc::new(vec![0.0])]);
        t.join().unwrap();
        assert!(
            r.queue_us >= 10_000,
            "second batch must queue behind the first, queued {}µs",
            r.queue_us
        );
    }

    #[tokio::test]
    async fn local_transport_roundtrips() {
        let c = fixed_container(TimingModel::Measured);
        let t = LocalContainerTransport::new(c);
        let r = t
            .predict_batch(&as_inputs(vec![vec![0.0]; 5]))
            .await
            .unwrap();
        assert_eq!(r.outputs.len(), 5);
        assert_eq!(t.id(), "test:0");
    }

    #[tokio::test]
    async fn tcp_container_serves_over_real_sockets() {
        let mut server = clipper_rpc::server::RpcServer::bind("127.0.0.1:0")
            .await
            .unwrap();
        let addr = server.local_addr();
        let c = fixed_container(TimingModel::Measured);
        let _task = spawn_tcp_container(addr, c);
        let (info, handle) = server.next_container().await.unwrap();
        assert_eq!(info.model_name, "test");
        let r = handle
            .predict_batch(&[Arc::new(vec![1.0, 2.0])])
            .await
            .unwrap();
        assert_eq!(r.outputs, vec![WireOutput::Class(3)]);
    }
}
