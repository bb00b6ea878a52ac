//! Figure 6 — scaling the model abstraction layer across a GPU cluster.
//!
//! One conv-net model replicated 1→4 times. Replica 0 runs "locally"
//! (no network); replicas 1–3 sit behind a shared simulated link — 10 Gbps
//! or 1 Gbps. Inputs are 2048-float (8 KB) feature tensors, so at ~19.5K
//! qps per replica the remote traffic exceeds 1 Gbps and the wire, not the
//! GPUs, becomes the bottleneck — the paper's headline observation.

use clipper_bench::{distinct_input, phase_duration};
use clipper_containers::{
    ContainerConfig, ContainerLogic, GpuDevice, GpuModelSpec, LocalContainerTransport,
    ModelContainer, TimingModel,
};
use clipper_core::{AppConfig, BatchConfig, BatchStrategy, Clipper, ModelId, PolicyKind};
use clipper_rpc::message::WireOutput;
use clipper_workload::report::fmt_qps;
use clipper_workload::{run_closed_loop, SimLink, Table};
use std::time::Duration;

const INPUT_DIM: usize = 2_048; // 8 KB per query on the wire

fn cluster_model() -> GpuModelSpec {
    // ≈19.5K qps peak per replica (the paper's single-container number).
    GpuModelSpec {
        name: "cluster-conv".into(),
        layers: "conv net".into(),
        wave_size: 512,
        wave_time: Duration::from_micros(26_000),
        dispatch: Duration::from_micros(250),
    }
}

#[tokio::main(flavor = "multi_thread", worker_threads = 8)]
async fn main() {
    println!("== Figure 6: Scaling Across a GPU Cluster ==\n");
    let mut table = Table::new(&[
        "network",
        "replicas",
        "agg throughput (qps)",
        "mean/replica (qps)",
        "mean lat (ms)",
        "p99 lat (ms)",
    ]);

    for (net_name, gbps) in [("10Gbps", 10.0), ("1Gbps", 1.0)] {
        for replicas in 1..=4usize {
            let link = SimLink::gbps(gbps, Duration::from_micros(200));
            let clipper = Clipper::builder()
                // Distinct inputs anyway; skip cache overhead.
                .disable_cache()
                .build();
            let id = ModelId::new("conv", 1);
            clipper.add_model(
                id.clone(),
                BatchConfig {
                    strategy: BatchStrategy::Fixed { size: 512 },
                    batch_wait_timeout: Duration::from_millis(2),
                    pipeline_depth: 2,
                    slo: Duration::from_millis(100),
                    ..Default::default()
                },
            );
            for r in 0..replicas {
                let device = GpuDevice::new(cluster_model());
                let container = ModelContainer::new(ContainerConfig {
                    name: format!("conv:{r}"),
                    model_name: "conv".into(),
                    model_version: 1,
                    logic: ContainerLogic::Fixed(WireOutput::Class(0)),
                    timing: TimingModel::Gpu(device),
                    seed: r as u64,
                });
                let local = LocalContainerTransport::new(container);
                // Replica 0 is on the Clipper machine; the rest cross the
                // cluster network.
                let transport = if r == 0 { local as _ } else { link.wrap(local) };
                clipper.add_replica(&id, transport).expect("replica");
            }
            clipper.register_app(
                AppConfig::new("bench", vec![id.clone()])
                    .with_policy(PolicyKind::Static { model_index: 0 })
                    .with_slo(Duration::from_millis(500)),
            );

            let clients = 1_600 * replicas;
            // Warmup then measure.
            let c = clipper.clone();
            run_closed_loop(clients, phase_duration() / 2, move |client, seq| {
                let clipper = c.clone();
                async move {
                    clipper
                        .predict("bench", None, distinct_input(client, seq, INPUT_DIM))
                        .await
                        .map(|p| p.models_used > 0)
                        .unwrap_or(false)
                }
            })
            .await;
            let c = clipper.clone();
            let report = run_closed_loop(clients, phase_duration(), move |client, seq| {
                let clipper = c.clone();
                async move {
                    clipper
                        .predict(
                            "bench",
                            None,
                            distinct_input(client, 1 << 20 | seq, INPUT_DIM),
                        )
                        .await
                        .map(|p| p.models_used > 0)
                        .unwrap_or(false)
                }
            })
            .await;

            table.row(&[
                net_name.to_string(),
                format!("{replicas}"),
                fmt_qps(report.throughput()),
                fmt_qps(report.throughput() / replicas as f64),
                format!("{:.1}", report.mean_ms()),
                format!("{:.1}", report.p99_ms()),
            ]);
        }
    }
    table.print();
    println!("\npaper reference: 10Gbps scales ~3.95x (19.5K → 77K qps); 1Gbps saturates the wire after the first remote replica");
}
