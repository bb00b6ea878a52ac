//! Scheduler-level serving guarantees: depth-aware routing under replica
//! heterogeneity beats blind round-robin, and hot replica removal drains
//! without dropping or wedging queries.

use clipper::core::abstraction::{ModelAbstractionLayer, SchedulerPolicy};
use clipper::core::batching::QueueConfig;
use clipper::core::{BatchStrategy, Input, ModelId, PredictError};
use clipper::metrics::Registry;
use clipper::rpc::message::{PredictReply, WireOutput};
use clipper::rpc::transport::BatchTransport;
use clipper::workload::{run_open_loop_outcomes, ArrivalProcess, LoadReport, RequestOutcome};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A replica with a fixed per-query service time, simulated with async
/// sleeps (no CPU burned): a batch of `n` costs `n × per_item`.
struct SimReplica {
    per_item: Duration,
    served: Arc<AtomicU64>,
}

impl BatchTransport for SimReplica {
    fn predict_batch(
        &self,
        inputs: &[Input],
    ) -> clipper::rpc::BoxFuture<Result<PredictReply, clipper::rpc::RpcError>> {
        let n = inputs.len();
        let (d, served) = (self.per_item, self.served.clone());
        Box::pin(async move {
            let total = d * n as u32;
            tokio::time::sleep(total).await;
            served.fetch_add(n as u64, Ordering::Relaxed);
            Ok(PredictReply {
                outputs: vec![WireOutput::Class(0); n],
                queue_us: 0,
                compute_us: total.as_micros() as u64,
            })
        })
    }
    fn id(&self) -> String {
        "sim".into()
    }
}

fn sim(per_item: Duration) -> (Arc<dyn BatchTransport>, Arc<AtomicU64>) {
    let served = Arc::new(AtomicU64::new(0));
    (
        Arc::new(SimReplica {
            per_item,
            served: served.clone(),
        }),
        served,
    )
}

/// One fast + one 10×-slower replica under the given policy, driven
/// open-loop. Returns the load report and (fast, slow) served counts.
async fn drive_heterogeneous(policy: SchedulerPolicy, rate: f64) -> (LoadReport, u64, u64) {
    let mal = ModelAbstractionLayer::new(16, Registry::new());
    let m = ModelId::new("hetero", 1);
    mal.add_model(
        m.clone(),
        QueueConfig {
            strategy: BatchStrategy::Fixed { size: 64 },
            queue_capacity: 64,
            pipeline_depth: 1,
            scheduler: policy,
            ..Default::default()
        },
    );
    let (fast, fast_count) = sim(Duration::from_micros(500));
    let (slow, slow_count) = sim(Duration::from_millis(5)); // 10× slower
    mal.add_replica(&m, fast).unwrap();
    mal.add_replica(&m, slow).unwrap();

    let report = run_open_loop_outcomes(
        ArrivalProcess::Uniform { rate },
        Duration::from_millis(1_500),
        7,
        move |seq| {
            let mal = mal.clone();
            let m = m.clone();
            async move {
                match mal.predict(&m, Arc::new(vec![seq as f32]), false).await {
                    Ok(_) => RequestOutcome::Ok,
                    Err(PredictError::Overloaded) => RequestOutcome::Shed,
                    Err(_) => RequestOutcome::Error,
                }
            }
        },
    )
    .await;
    (
        report,
        fast_count.load(Ordering::Relaxed),
        slow_count.load(Ordering::Relaxed),
    )
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn p2c_beats_round_robin_under_replica_heterogeneity() {
    // Offered load: ~600 qps. The slow replica alone does 200 qps, so
    // round-robin's blind half-share (300 qps) drowns it — its queue
    // fills, latency explodes, and queries shed. Depth-aware p2c routes
    // around the backlog.
    let rate = 600.0;
    let (rr, rr_fast, rr_slow) = drive_heterogeneous(SchedulerPolicy::RoundRobin, rate).await;
    let (p2c, p2c_fast, p2c_slow) =
        drive_heterogeneous(SchedulerPolicy::PowerOfTwoChoices, rate).await;

    // The fast replica must carry a proportionally larger share under p2c.
    assert!(
        p2c_fast > p2c_slow * 3,
        "p2c share should favor the fast replica: fast {p2c_fast} vs slow {p2c_slow}"
    );
    // Round-robin splits blindly (sanity check on the baseline).
    assert!(
        rr_slow * 4 > rr_fast,
        "round-robin should split roughly evenly: fast {rr_fast} vs slow {rr_slow}"
    );

    // Tail latency: p2c must beat the round-robin baseline.
    assert!(
        p2c.p99_ms() < rr.p99_ms(),
        "p2c p99 {:.1}ms must beat round-robin p99 {:.1}ms",
        p2c.p99_ms(),
        rr.p99_ms()
    );

    // Sheds: round-robin backs the slow replica's queue up until it sheds;
    // p2c falls through to the fast replica instead.
    assert!(
        p2c.shed <= rr.shed,
        "p2c sheds ({}) must not exceed round-robin sheds ({})",
        p2c.shed,
        rr.shed
    );
    assert!(
        rr.shed > 0,
        "baseline sanity: round-robin should shed under this load"
    );
}

/// Two identical replicas; optionally teach their latency models
/// opposite curves before any traffic. Returns served counts for
/// (expensive-curve, cheap-curve) after `n` sequential predicts.
async fn drive_taught_curves(teach: bool, n: u32) -> (u64, u64) {
    let mal = ModelAbstractionLayer::new(16, Registry::new());
    let m = ModelId::new("taught", 1);
    mal.add_model(
        m.clone(),
        QueueConfig {
            strategy: BatchStrategy::Fixed { size: 8 },
            scheduler: SchedulerPolicy::PowerOfTwoChoices,
            ..Default::default()
        },
    );
    let (a, a_count) = sim(Duration::from_micros(50));
    let (b, b_count) = sim(Duration::from_micros(50));
    let qa = mal.add_replica(&m, a).unwrap();
    let qb = mal.add_replica(&m, b).unwrap();

    if teach {
        // Same slope, wildly different intercepts: replica A "measured"
        // expensive (α ≈ 50ms), replica B cheap (α ≈ 100µs). The batch
        // spread gives the fit enough variance to establish.
        let teach_curve = |qid: &str, alpha_us: u64| {
            let model = mal.replica_latency_model(&m, qid).unwrap();
            for round in 0..2u64 {
                for batch in 1..=8usize {
                    model.observe(
                        batch,
                        Duration::from_micros(alpha_us + 10 * batch as u64 + round),
                    );
                }
            }
            assert!(model.is_established(), "taught curve is established");
        };
        teach_curve(&qa, 50_000);
        teach_curve(&qb, 100);
    }

    // Sequential queries: occupancy is 0-vs-0 at every pick, so raw
    // depth signals cannot separate the replicas — only the curves can.
    for i in 0..n {
        mal.predict(&m, Arc::new(vec![i as f32]), false)
            .await
            .unwrap();
    }
    (
        a_count.load(Ordering::Relaxed),
        b_count.load(Ordering::Relaxed),
    )
}

/// Satellite A/B for learned-curve scoring: with both replicas' `α+β·b̂`
/// models established, p2c must route by predicted cost (the cheap
/// replica takes ≥ 90%); without curves, identical replicas split the
/// traffic — proof the preference comes from the curves, not the tie
/// break.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn p2c_prefers_the_learned_cheaper_curve_when_established() {
    let n = 400u32;
    let (cold_a, cold_b) = drive_taught_curves(false, n).await;
    let (hot_a, hot_b) = drive_taught_curves(true, n).await;

    // Control: no curves, identical replicas — both serve real shares.
    assert_eq!(cold_a + cold_b, n as u64);
    assert!(
        cold_a.min(cold_b) * 5 >= n as u64,
        "cold routing splits (≥20% each): a {cold_a} vs b {cold_b}"
    );

    // Treatment: the cheap curve dominates routing.
    assert_eq!(hot_a + hot_b, n as u64);
    assert!(
        hot_b * 10 >= n as u64 * 9,
        "established curves steer ≥90% to the cheap replica: \
         expensive {hot_a} vs cheap {hot_b}"
    );
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn facade_hot_remove_drains_mid_traffic() {
    use clipper::core::{AppConfig, Clipper, PolicyKind};

    let clipper = Clipper::builder().build();
    let m = ModelId::new("m", 1);
    clipper.add_model(
        m.clone(),
        QueueConfig {
            strategy: BatchStrategy::Fixed { size: 8 },
            ..Default::default()
        },
    );
    let (t1, _c1) = sim(Duration::from_micros(400));
    let (t2, _c2) = sim(Duration::from_micros(400));
    let q1 = clipper.add_replica(&m, t1).unwrap();
    clipper.add_replica(&m, t2).unwrap();
    clipper.register_app(
        AppConfig::new("app", vec![m.clone()])
            .with_policy(PolicyKind::Static { model_index: 0 })
            .with_slo(Duration::from_millis(500)),
    );

    let mut tasks = Vec::new();
    for i in 0..100 {
        let clipper = clipper.clone();
        tasks.push(tokio::spawn(async move {
            clipper.predict("app", None, Arc::new(vec![i as f32])).await
        }));
    }
    tokio::time::sleep(Duration::from_millis(3)).await;
    let removed = clipper.remove_replica(&m, &q1).unwrap();
    assert_eq!(clipper.abstraction().replica_count(&m), 1);

    let mut served = 0;
    for t in tasks {
        let p = t.await.unwrap().unwrap();
        if p.models_used > 0 {
            served += 1;
        }
    }
    removed.drained().await;
    assert_eq!(
        clipper.abstraction().cache().pending_len(),
        0,
        "no wedged cache entries after hot removal"
    );
    assert_eq!(served, 100, "no prediction may be dropped by the drain");
}

/// A transport that answers at once and reports itself healthy only
/// while `alive` is set — a connection that dies and comes back, with no
/// batch ever failing.
struct Switchable {
    alive: Arc<AtomicBool>,
}

impl BatchTransport for Switchable {
    fn predict_batch(
        &self,
        inputs: &[Input],
    ) -> clipper::rpc::BoxFuture<Result<PredictReply, clipper::rpc::RpcError>> {
        let n = inputs.len();
        Box::pin(async move {
            Ok(PredictReply {
                outputs: vec![WireOutput::Class(0); n],
                queue_us: 0,
                compute_us: 1,
            })
        })
    }
    fn id(&self) -> String {
        "switchable".into()
    }
    fn is_healthy(&self) -> bool {
        self.alive.load(Ordering::Relaxed)
    }
}

/// A replica whose transport reports itself dead while its breaker stays
/// closed has one health answer, `Down`, and every reader sees it:
/// routing skips it, the suspect sweep lists and drains it, and its
/// `/metrics` gauge reads the `Down` code. When the transport reports
/// itself alive again, the replica is `Clean` again.
#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn a_dead_transport_reads_down_to_every_reader() {
    use clipper::core::batching::Health;
    use clipper::core::Clipper;
    use clipper::metrics::MetricValue;

    let clipper = Clipper::builder().build();
    let m = ModelId::new("m", 1);
    clipper.add_model(m.clone(), QueueConfig::default());
    let alive = Arc::new(AtomicBool::new(true));
    let transport = Arc::new(Switchable {
        alive: alive.clone(),
    });
    let qid = clipper.add_replica(&m, transport).unwrap();
    let mal = clipper.abstraction();
    let gauge = || {
        let name = format!("queue/{qid}/health");
        match clipper.registry().snapshot().values.get(&name) {
            Some(MetricValue::Gauge { value }) => *value,
            other => panic!("{name}: {other:?}"),
        }
    };
    let predict = || mal.predict(&m, Arc::new(vec![1.0]), false);

    alive.store(false, Ordering::Relaxed);
    assert_eq!(predict().await, Err(PredictError::NoReplicas));
    assert_eq!(mal.suspect_queue_ids(&m), vec![qid.clone()]);
    assert_eq!(gauge(), Health::Down as i64);

    alive.store(true, Ordering::Relaxed);
    assert_eq!(gauge(), Health::Clean as i64);
    assert!(mal.suspect_queue_ids(&m).is_empty());
    assert!(predict().await.is_ok());

    alive.store(false, Ordering::Relaxed);
    assert_eq!(clipper.drain_suspect_replicas(&m).await, vec![qid]);
    assert_eq!(mal.replica_count(&m), 0);
}
