//! Figures 6, 9 and 11 (replica scaling, straggler mitigation, the
//! TF-Serving comparison) and §4.2's caching claim.

use super::{hist_mean, max_of, min_of, predict_loop, Paper, Shape};
use crate::distinct_input;
use crate::harness::Op;
use clipper_baseline::{TfServingLike, TfsConfig, TfsMetrics};
use clipper_containers::{
    fig11_model, spawn_tcp_container, ContainerConfig, ContainerLogic, Fig11Model, GpuDevice,
    GpuModelSpec, LatencyProfile, LocalContainerTransport, ModelContainer, TimingModel,
};
use clipper_core::batching::{BatchStrategy, QueueConfig};
use clipper_core::{AppConfig, Clipper, Feedback, ModelId, PolicyKind};
use clipper_metrics::{Counter, Histogram, Registry};
use clipper_ml::datasets::DatasetSpec;
use clipper_ml::models::{DecisionTree, DecisionTreeConfig};
use clipper_rpc::faulty::{FaultConfig, FaultyTransport};
use clipper_rpc::message::WireOutput;
use clipper_rpc::server::RpcServer;
use clipper_workload::{run_closed_loop, LoadReport, SimLink};
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Fig6Row {
    network: &'static str,
    replicas: usize,
    throughput_qps: f64,
    per_replica_qps: f64,
    mean_ms: f64,
    p99_ms: f64,
    /// The paper's 10 Gbps aggregate: 19.5K qps at 1 replica, 77K at 4.
    paper_qps: Option<f64>,
}

/// Figure 6: near-linear scaling on 10 Gbps, and a 1 Gbps plateau once
/// remote replicas share the wire.
fn fig6_shapes(rows: &[Fig6Row]) -> Vec<Shape> {
    let qps = |network: &str, replicas| {
        rows.iter()
            .find(|r| r.network == network && r.replicas == replicas)
            .map_or(f64::NAN, |r| r.throughput_qps)
    };
    vec![
        Shape::new(
            "fig6.10gbps_4_over_1_replica",
            "10 Gbps scales ~3.95x from 1 to 4 replicas (19.5K -> 77K qps)",
            qps("10Gbps", 4) / qps("10Gbps", 1),
            Op::AtLeast,
            1.5,
        ),
        Shape::new(
            "fig6.1gbps_over_10gbps_at_4",
            "1 Gbps saturates the wire after the first remote replica",
            qps("1Gbps", 4) / qps("10Gbps", 4),
            Op::AtMost,
            0.8,
        ),
    ]
}

/// The replicated conv net: ≈19.5K qps peak per replica, the paper's
/// single-container number.
fn cluster_model() -> GpuModelSpec {
    GpuModelSpec {
        name: "cluster-conv".into(),
        layers: "conv net".into(),
        wave_size: 512,
        wave_time: Duration::from_micros(26_000),
        dispatch: Duration::from_micros(250),
    }
}

/// A container named `name` (`model:replica`) serving `logic` on `timing`.
fn container(
    name: String,
    logic: ContainerLogic,
    timing: TimingModel,
    seed: u64,
) -> Arc<ModelContainer> {
    ModelContainer::new(ContainerConfig {
        model_name: name.split(':').next().unwrap_or(&name).to_string(),
        name,
        model_version: 1,
        logic,
        timing,
        seed,
    })
}

/// The constant answer of the throughput figures' containers.
const CLASS_0: ContainerLogic = ContainerLogic::Fixed(WireOutput::Class(0));

pub(super) async fn fig6(p: &mut Paper<'_>) {
    // 8 KB feature tensors: at ~19.5K qps per replica the remote traffic
    // exceeds 1 Gbps, and the wire becomes the bottleneck.
    const INPUT_DIM: usize = 2_048;
    let mut rows = Vec::new();
    for (network, gbps) in [("10Gbps", 10.0), ("1Gbps", 1.0)] {
        for replicas in 1..=4usize {
            let link = SimLink::gbps(gbps, Duration::from_micros(200));
            let clipper = Clipper::builder().disable_cache().build();
            let id = ModelId::new("conv", 1);
            clipper.add_model(
                id.clone(),
                QueueConfig {
                    strategy: BatchStrategy::Fixed { size: 512 },
                    batch_wait_timeout: Duration::from_millis(2),
                    pipeline_depth: 2,
                    slo: Duration::from_millis(100),
                    ..Default::default()
                },
            );
            for r in 0..replicas {
                let gpu = TimingModel::Gpu(GpuDevice::new(cluster_model()));
                let conv = container(format!("conv:{r}"), CLASS_0, gpu, r as u64);
                let local = LocalContainerTransport::new(conv);
                // Replica 0 is on the Clipper machine; the rest cross the
                // cluster network.
                let transport = if r == 0 { local as _ } else { link.wrap(local) };
                clipper.add_replica(&id, transport).expect("replica");
            }
            clipper.register_app(
                AppConfig::new("bench", vec![id])
                    .with_policy(PolicyKind::Static { model_index: 0 })
                    .with_slo(Duration::from_millis(500)),
            );
            let report =
                predict_loop(&clipper, 1_600 * replicas, p.phase / 2, p.phase, INPUT_DIM).await;
            rows.push(Fig6Row {
                network,
                replicas,
                throughput_qps: report.throughput(),
                per_replica_qps: report.throughput() / replicas as f64,
                mean_ms: report.mean_ms(),
                p99_ms: report.p99_ms(),
                paper_qps: match (gbps == 10.0, replicas) {
                    (true, 1) => Some(19_500.0),
                    (true, 4) => Some(77_000.0),
                    _ => None,
                },
            });
        }
    }
    p.rows("fig6", &rows);
    p.shapes(fig6_shapes(&rows));
}

#[derive(Serialize)]
struct Fig9Row {
    ensemble: usize,
    mode: &'static str,
    mean_ms: f64,
    p99_ms: f64,
    missing_pct_mean: f64,
    accuracy: f64,
}

/// Figure 9: at every ensemble size the 20 ms SLO's p99 is below the
/// blocking one's; its accuracy stays close.
fn fig9_shapes(rows: &[Fig9Row]) -> Vec<Shape> {
    // The worst size; a mitigated size with no blocking twin is NaN.
    let worst = |f: fn(&Fig9Row, &Fig9Row) -> f64| {
        max_of(rows.iter().filter(|m| m.mode == "mitigated").map(|m| {
            rows.iter()
                .find(|b| b.mode == "blocking" && b.ensemble == m.ensemble)
                .map_or(f64::NAN, |b| f(m, b))
        }))
    };
    vec![
        Shape::new(
            "fig9.mitigated_over_blocking_p99_max",
            "straggler mitigation holds P99 near the SLO while blocking P99 grows with ensemble size",
            worst(|m, b| m.p99_ms / b.p99_ms),
            Op::AtMost,
            0.6,
        ),
        Shape::new(
            "fig9.accuracy_loss_max",
            "mitigation costs only a slight accuracy dip versus blocking",
            worst(|m, b| b.accuracy - m.accuracy),
            Op::AtMost,
            0.05,
        )
        .full_only(),
    ]
}

pub(super) async fn fig9(p: &mut Paper<'_>) {
    let ds = DatasetSpec::mnist_like()
        .with_train_size(900)
        .with_test_size(400)
        .with_difficulty(0.12)
        .generate(23);
    let mut rows = Vec::new();
    for size in [2usize, 4, 8, 12, 16] {
        for (mode, slo) in [
            ("blocking", Duration::from_millis(400)),
            ("mitigated", Duration::from_millis(20)),
        ] {
            let clipper = Clipper::builder().build();
            let mut ids = Vec::new();
            for t in 0..size {
                // One bootstrap tree per container: a random forest
                // served as an ensemble.
                let mut bag = ds.clone();
                let n = bag.train.len();
                bag.train.rotate_left((t * 97) % n);
                bag.train.truncate(n / 2);
                let tree_cfg = DecisionTreeConfig {
                    max_depth: 8,
                    feature_subsample: Some(48),
                    ..Default::default()
                };
                let tree =
                    DecisionTree::train_on(&bag.train, ds.num_classes(), &tree_cfg, t as u64);
                let id = ModelId::new(&format!("tree-{t}"), 1);
                clipper.add_model(id.clone(), QueueConfig::default());
                let logic = ContainerLogic::Classifier(Arc::new(tree));
                let tree = container(
                    format!("tree-{t}:0"),
                    logic,
                    TimingModel::Measured,
                    t as u64,
                );
                // Every container occasionally stalls well past the SLO,
                // as load interference does across many containers.
                let faults = FaultConfig {
                    base_delay: Duration::from_millis(2),
                    jitter: Duration::from_millis(6),
                    straggler_prob: 0.03,
                    straggler_delay: Duration::from_millis(60),
                    drop_prob: 0.0,
                };
                let transport = LocalContainerTransport::new(tree);
                let faulty = FaultyTransport::new(transport, faults, 1_000 + t as u64);
                clipper.add_replica(&id, Arc::new(faulty)).expect("replica");
                ids.push(id);
            }
            clipper.register_app(
                AppConfig::new("forest", ids)
                    .with_policy(PolicyKind::MajorityVote)
                    .with_slo(slo),
            );
            let (latency, missing_pct) = (Histogram::new(), Histogram::new());
            let (correct, total) = (Counter::new(), Counter::new());
            let deadline = Instant::now() + p.phase;
            let mut i = 0usize;
            while Instant::now() < deadline {
                let ex = &ds.test[i % ds.test.len()];
                let input: clipper_core::Input = Arc::new(ex.x.clone());
                let pred = clipper
                    .predict("forest", None, input.clone())
                    .await
                    .unwrap();
                latency.record(pred.latency.as_micros() as u64);
                missing_pct.record((100 * pred.models_missing / size) as u64);
                total.inc();
                if pred.output.label() == ex.y {
                    correct.inc();
                }
                // Light feedback traffic keeps the join path realistic.
                if i.is_multiple_of(10) {
                    let _ = clipper
                        .feedback("forest", None, input, Feedback::class(ex.y))
                        .await;
                }
                i += 1;
            }
            let lat = latency.snapshot();
            rows.push(Fig9Row {
                ensemble: size,
                mode,
                mean_ms: lat.mean() / 1_000.0,
                p99_ms: lat.p99() as f64 / 1_000.0,
                missing_pct_mean: missing_pct.snapshot().mean(),
                accuracy: correct.get() as f64 / total.get().max(1) as f64,
            });
        }
    }
    p.rows("fig9", &rows);
    p.shapes(fig9_shapes(&rows));
}

#[derive(Serialize)]
struct Fig11Row {
    model: &'static str,
    system: &'static str,
    throughput_qps: f64,
    paper_qps: f64,
    mean_ms: f64,
    p99_ms: f64,
    queue_ms: f64,
    predict_ms: f64,
}

const TFS: &str = "TF-Serving";
const TF_CPP: &str = "Clipper TF-C++";
const TF_PYTHON: &str = "Clipper TF-Python";

/// Figure 11: Clipper's TF-C++ container about matches TF-Serving's
/// throughput on every model; the Python container is 15–18% below it.
fn fig11_shapes(rows: &[Fig11Row]) -> Vec<Shape> {
    let ratios = |num: &'static str, den: &'static str| {
        Fig11Model::all().into_iter().map(move |m| {
            let qps = |system| {
                rows.iter()
                    .find(|r| r.model == m.label() && r.system == system)
                    .map_or(f64::NAN, |r| r.throughput_qps)
            };
            qps(num) / qps(den)
        })
    };
    vec![
        Shape::new(
            "fig11.cpp_over_tfs_min",
            "Clipper TF-C++ matches TF-Serving: MNIST 22269/23138, CIFAR 5472/5519, ImageNet 52/56 qps",
            min_of(ratios(TF_CPP, TFS)),
            Op::AtLeast,
            0.85,
        ),
        Shape::new(
            "fig11.cpp_over_tfs_max",
            "Clipper TF-C++ matches TF-Serving from above too",
            max_of(ratios(TF_CPP, TFS)),
            Op::AtMost,
            1.1,
        ),
        Shape::new(
            "fig11.python_over_cpp_max",
            "the Python container costs 15-18% of throughput",
            max_of(ratios(TF_PYTHON, TF_CPP)),
            Op::AtMost,
            0.95,
        ),
    ]
}

/// A Figure-11 GPU container; the Python API's 15–18% throughput tax is
/// a proportionally slower wave.
fn gpu_container(model: Fig11Model, python_tax: bool, name: &str) -> Arc<ModelContainer> {
    let mut spec = fig11_model(model);
    if python_tax {
        spec.wave_time = spec.wave_time.mul_f64(1.17);
    }
    let gpu = TimingModel::Gpu(GpuDevice::new(spec));
    container(name.to_string(), CLASS_0, gpu, 5)
}

/// A Figure-11 run: the measured phase, and the mean queue and predict
/// milliseconds of its latency decomposition.
type Fig11Run = (LoadReport, f64, f64);

/// The tightly coupled in-process baseline: hand-tuned static batch,
/// timeout dispatch.
async fn run_tfs(model: Fig11Model, phase: Duration) -> Fig11Run {
    let registry = Registry::new();
    let metrics = TfsMetrics::register(&registry, "tfs");
    let config = TfsConfig {
        batch_size: model.tuned_batch(),
        batch_timeout: Duration::from_millis(2),
        ..Default::default()
    };
    let server = TfServingLike::spawn(
        gpu_container(model, false, "tfs:0"),
        config,
        metrics.clone(),
    );
    let clients = model.tuned_batch() * 3;
    let dim = model.input_dim();
    let run = |duration, offset: u64| {
        let s = server.clone();
        run_closed_loop(clients, duration, move |c, q| {
            let s = s.clone();
            let input = (*distinct_input(c, offset | q, dim)).clone();
            async move { s.predict(input).await.is_ok() }
        })
    };
    run(phase / 2, 0).await;
    let report = run(phase, 1 << 20).await;
    let queue_ms = metrics.queue_us.snapshot().mean() / 1_000.0;
    (
        report,
        queue_ms,
        metrics.predict_us.snapshot().mean() / 1_000.0,
    )
}

/// The full modular stack, its container behind the real TCP RPC system.
async fn run_clipper(model: Fig11Model, python_tax: bool, phase: Duration) -> Fig11Run {
    let clipper = Clipper::builder().disable_cache().build();
    let mut rpc = RpcServer::bind("127.0.0.1:0").await.expect("rpc binds");
    spawn_tcp_container(rpc.local_addr(), gpu_container(model, python_tax, "gpu:0"));
    let (info, handle) = rpc.next_container().await.expect("container registers");
    let id = ModelId::new(&info.model_name, 1);
    clipper.add_model(
        id.clone(),
        QueueConfig {
            strategy: BatchStrategy::Aimd {
                step: (model.tuned_batch() / 4).max(2) as f64,
                backoff: 0.9,
            },
            // One full wave plus pipelining slack: the paper's
            // peak-throughput tuning.
            slo: fig11_model(model).wave_time.mul_f64(2.5),
            batch_wait_timeout: Duration::from_millis(2),
            pipeline_depth: 2,
            max_batch_cap: model.tuned_batch(),
            ..Default::default()
        },
    );
    clipper.add_replica(&id, Arc::new(handle)).expect("replica");
    clipper.register_app(
        AppConfig::new("bench", vec![id])
            .with_policy(PolicyKind::Static { model_index: 0 })
            .with_slo(Duration::from_millis(3_000)),
    );
    let clients = model.tuned_batch() * 3;
    let report = predict_loop(&clipper, clients, phase, phase, model.input_dim()).await;
    let queue_us = hist_mean(&clipper, "/queue_us") + hist_mean(&clipper, "/remote_queue_us");
    (
        report,
        queue_us / 1_000.0,
        hist_mean(&clipper, "/predict_us") / 1_000.0,
    )
}

pub(super) async fn fig11(p: &mut Paper<'_>) {
    let mut rows = Vec::new();
    for model in Fig11Model::all() {
        let paper = match model {
            Fig11Model::MnistConvNet => [23_138.0, 22_269.0, 19_537.0],
            Fig11Model::CifarAlexNet => [5_519.0, 5_472.0, 4_571.0],
            Fig11Model::ImagenetInceptionV3 => [56.0, 52.0, 47.0],
        };
        let runs = [
            (TFS, run_tfs(model, p.phase).await),
            (TF_CPP, run_clipper(model, false, p.phase).await),
            (TF_PYTHON, run_clipper(model, true, p.phase).await),
        ];
        for ((system, (report, queue_ms, predict_ms)), paper_qps) in runs.into_iter().zip(paper) {
            rows.push(Fig11Row {
                model: model.label(),
                system,
                throughput_qps: report.throughput(),
                paper_qps,
                mean_ms: report.mean_ms(),
                p99_ms: report.p99_ms(),
                queue_ms,
                predict_ms,
            });
        }
    }
    p.rows("fig11", &rows);
    p.shapes(fig11_shapes(&rows));
}

#[derive(Serialize)]
struct CachingRow {
    /// 0 with the cache disabled.
    capacity: usize,
    feedback_qps: f64,
    hit_rate: f64,
}

/// The first two rows are the headline pair: the cache on, then off.
fn caching_shapes(rows: &[CachingRow]) -> Vec<Shape> {
    let qps = |i: usize| rows.get(i).map_or(f64::NAN, |r| r.feedback_qps);
    vec![Shape::new(
        "caching.on_over_off",
        "the prediction cache raises feedback throughput 1.6x (6K -> 11K obs/s)",
        qps(0) / qps(1),
        Op::AtLeast,
        1.6,
    )]
}

/// The paper's four-model ensemble (random forest, logistic regression,
/// two linear SVMs) whose evaluations cost real time, so recomputing a
/// feedback join hurts.
fn caching_stack(capacity: usize) -> Clipper {
    let mut builder = Clipper::builder().cache_capacity(capacity);
    if capacity == 0 {
        builder = builder.disable_cache();
    }
    let clipper = builder.build();
    let ids: Vec<ModelId> = [
        "random-forest",
        "logreg",
        "linear-svm-sk",
        "linear-svm-spark",
    ]
    .map(|name| {
        let id = ModelId::new(name, 1);
        clipper.add_model(id.clone(), QueueConfig::default());
        let profile =
            LatencyProfile::deterministic(Duration::from_micros(300), Duration::from_micros(15));
        let logic = ContainerLogic::Fixed(WireOutput::Class(1));
        let container = container(format!("{name}:0"), logic, TimingModel::Profile(profile), 3);
        let transport = LocalContainerTransport::new(container);
        clipper.add_replica(&id, transport).expect("replica");
        id
    })
    .into();
    clipper.register_app(
        AppConfig::new("ensemble", ids)
            .with_policy(PolicyKind::Exp4 { eta: 0.2 })
            .with_slo(Duration::from_millis(50)),
    );
    clipper
}

/// Feedback observations per second over `inputs` recently predicted
/// inputs, and the cache's hit rate after.
async fn feedback_throughput(capacity: usize, inputs: u64, phase: Duration) -> CachingRow {
    let clipper = caching_stack(capacity);
    for seq in 0..inputs {
        let _ = clipper
            .predict("ensemble", None, distinct_input(0, seq, 16))
            .await;
    }
    let c = clipper.clone();
    let report = run_closed_loop(32, phase, move |_client, seq| {
        let clipper = c.clone();
        let input = distinct_input(0, seq % inputs, 16);
        async move {
            clipper
                .feedback("ensemble", None, input, Feedback::class(1))
                .await
                .is_ok()
        }
    })
    .await;
    CachingRow {
        capacity,
        feedback_qps: report.throughput(),
        // Pending joins count as served without evaluation (§4.2).
        hit_rate: clipper.abstraction().cache().stats().hit_rate(),
    }
}

pub(super) async fn caching(p: &mut Paper<'_>) {
    let inputs = 2_000u64;
    let mut rows = Vec::new();
    // On, off, then the capacity sweep: the hit rate collapses once the
    // working set (2,000 inputs × 4 models) exceeds the capacity.
    // Smoke runs the headline pair only.
    let capacities = [65_536usize, 0, 512, 2_048, 8_192, 32_768];
    for &capacity in &capacities[..if p.smoke { 2 } else { 6 }] {
        rows.push(feedback_throughput(capacity, inputs, p.phase).await);
    }
    p.rows("caching", &rows);
    p.shapes(caching_shapes(&rows));
}

#[cfg(test)]
mod tests {
    use super::super::tests::all_hold;
    use super::*;

    fn fig6_rows(ten_4: f64, one_4: f64) -> Vec<Fig6Row> {
        [
            ("10Gbps", 1, 20_000.0),
            ("10Gbps", 4, ten_4),
            ("1Gbps", 4, one_4),
        ]
        .map(|(network, replicas, throughput_qps)| Fig6Row {
            network,
            replicas,
            throughput_qps,
            per_replica_qps: 0.0,
            mean_ms: 0.0,
            p99_ms: 0.0,
            paper_qps: None,
        })
        .into()
    }

    #[test]
    fn fig6_gates_need_scaling_and_a_plateau() {
        assert!(all_hold(&fig6_shapes(&fig6_rows(60_000.0, 30_000.0))));
        assert!(!all_hold(&fig6_shapes(&fig6_rows(21_000.0, 20_000.0))));
        assert!(!all_hold(&fig6_shapes(&fig6_rows(60_000.0, 59_000.0))));
    }

    fn fig9_rows(mitigated_p99: f64, mitigated_acc: f64) -> Vec<Fig9Row> {
        let row = |ensemble, mode, p99_ms, accuracy| Fig9Row {
            ensemble,
            mode,
            mean_ms: 0.0,
            p99_ms,
            missing_pct_mean: 0.0,
            accuracy,
        };
        vec![
            row(2, "blocking", 60.0, 0.9),
            row(2, "mitigated", 20.0, 0.9),
            row(16, "blocking", 70.0, 0.9),
            row(16, "mitigated", mitigated_p99, mitigated_acc),
        ]
    }

    #[test]
    fn fig9_gates_need_a_lower_p99_at_every_size() {
        assert!(all_hold(&fig9_shapes(&fig9_rows(21.0, 0.88))));
        assert!(!all_hold(&fig9_shapes(&fig9_rows(70.0, 0.88))));
        assert!(!all_hold(&fig9_shapes(&fig9_rows(21.0, 0.5))));
        assert!(!all_hold(&fig9_shapes(&fig9_rows(21.0, 0.88)[1..])));
    }

    fn fig11_rows(cpp: f64, python: f64) -> Vec<Fig11Row> {
        let mut rows = Vec::new();
        for m in Fig11Model::all() {
            for (system, throughput_qps) in [(TFS, 100.0), (TF_CPP, cpp), (TF_PYTHON, python)] {
                rows.push(Fig11Row {
                    model: m.label(),
                    system,
                    throughput_qps,
                    paper_qps: 0.0,
                    mean_ms: 0.0,
                    p99_ms: 0.0,
                    queue_ms: 0.0,
                    predict_ms: 0.0,
                });
            }
        }
        rows
    }

    #[test]
    fn fig11_gates_need_parity_and_a_python_tax() {
        assert!(all_hold(&fig11_shapes(&fig11_rows(95.0, 80.0))));
        assert!(!all_hold(&fig11_shapes(&fig11_rows(40.0, 30.0))));
        assert!(!all_hold(&fig11_shapes(&fig11_rows(95.0, 99.0))));
    }

    #[test]
    fn caching_gate_needs_the_cache_to_speed_feedback() {
        let rows = |on, off| {
            [(65_536, on), (0, off)].map(|(capacity, feedback_qps)| CachingRow {
                capacity,
                feedback_qps,
                hit_rate: 0.0,
            })
        };
        assert!(all_hold(&caching_shapes(&rows(11_000.0, 6_000.0))));
        assert!(!all_hold(&caching_shapes(&rows(5_000.0, 6_000.0))));
        assert!(!all_hold(&caching_shapes(&[])));
    }
}
