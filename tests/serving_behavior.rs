//! Cross-crate behavioral tests of the serving guarantees the paper
//! claims: bounded latency, straggler substitution, replica failover,
//! load shedding, and adaptive batch growth under load.

use clipper::containers::{
    ContainerConfig, ContainerLogic, LatencyProfile, LocalContainerTransport, ModelContainer,
    TimingModel,
};
use clipper::core::batching::QueueConfig;
use clipper::core::{AppConfig, BatchStrategy, Clipper, Feedback, ModelId, Output, PolicyKind};
use clipper::rpc::faulty::{FaultConfig, FaultyTransport};
use clipper::rpc::message::WireOutput;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn profile_container(name: &str, base_ms: u64, per_item_us: u64) -> Arc<ModelContainer> {
    ModelContainer::new(ContainerConfig {
        name: format!("{name}:0"),
        model_name: name.to_string(),
        model_version: 1,
        logic: ContainerLogic::Fixed(WireOutput::Class(1)),
        timing: TimingModel::Profile(LatencyProfile::deterministic(
            Duration::from_millis(base_ms),
            Duration::from_micros(per_item_us),
        )),
        seed: 1,
    })
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn latency_is_bounded_by_the_slo_under_stragglers() {
    // Ensemble of 6 with heavy straggler injection: every prediction must
    // still return near the 25ms deadline.
    let clipper = Clipper::builder().build();
    let mut ids = Vec::new();
    for i in 0..6 {
        let id = ModelId::new(&format!("m{i}"), 1);
        clipper.add_model(id.clone(), QueueConfig::default());
        let faulty = Arc::new(FaultyTransport::new(
            LocalContainerTransport::new(profile_container(&format!("m{i}"), 1, 10)),
            FaultConfig::stragglers(0.3, Duration::from_millis(200)),
            i as u64,
        ));
        clipper.add_replica(&id, faulty).unwrap();
        ids.push(id);
    }
    clipper.register_app(
        AppConfig::new("app", ids)
            .with_policy(PolicyKind::MajorityVote)
            .with_slo(Duration::from_millis(25)),
    );
    for q in 0..40 {
        let t0 = Instant::now();
        let p = clipper
            .predict("app", None, Arc::new(vec![q as f32]))
            .await
            .unwrap();
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(120),
            "query {q} took {elapsed:?} — straggler mitigation failed"
        );
        assert!(p.models_used + p.models_missing == 6);
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn replica_failover_keeps_serving() {
    // Two replicas; one drops every request. Round-robin plus retryable
    // routing must still serve everything from the healthy replica.
    let clipper = Clipper::builder().build();
    let id = ModelId::new("m", 1);
    clipper.add_model(
        id.clone(),
        QueueConfig {
            strategy: BatchStrategy::Fixed { size: 1 },
            ..Default::default()
        },
    );
    let dead = Arc::new(FaultyTransport::new(
        LocalContainerTransport::new(profile_container("dead", 0, 1)),
        FaultConfig {
            drop_prob: 1.0,
            ..Default::default()
        },
        7,
    ));
    clipper.add_replica(&id, dead).unwrap();
    clipper
        .add_replica(
            &id,
            LocalContainerTransport::new(profile_container("alive", 0, 1)),
        )
        .unwrap();
    clipper.register_app(
        AppConfig::new("app", vec![id])
            .with_policy(PolicyKind::Static { model_index: 0 })
            .with_slo(Duration::from_millis(50)),
    );
    let mut served = 0;
    for q in 0..30 {
        let p = clipper
            .predict("app", None, Arc::new(vec![q as f32]))
            .await
            .unwrap();
        if p.models_used > 0 {
            served += 1;
            assert_eq!(p.output, Output::Class(1));
        }
    }
    // Round robin alternates; the dead replica's queries fall back to the
    // app default, the healthy replica's all succeed.
    assert!(served >= 15, "served {served}/30");
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn adaptive_batching_grows_batches_under_load() {
    let clipper = Clipper::builder().disable_cache().build();
    let id = ModelId::new("m", 1);
    clipper.add_model(
        id.clone(),
        QueueConfig {
            strategy: BatchStrategy::default(),
            slo: Duration::from_millis(20),
            ..Default::default()
        },
    );
    clipper
        .add_replica(
            &id,
            LocalContainerTransport::new(profile_container("m", 2, 20)),
        )
        .unwrap();
    clipper.register_app(
        AppConfig::new("app", vec![id])
            .with_policy(PolicyKind::Static { model_index: 0 })
            .with_slo(Duration::from_secs(2)),
    );

    // Hammer with 128 concurrent clients for a moment.
    let mut tasks = Vec::new();
    for c in 0..128 {
        let clipper = clipper.clone();
        tasks.push(tokio::spawn(async move {
            for q in 0..40u32 {
                let _ = clipper
                    .predict("app", None, Arc::new(vec![c as f32, q as f32]))
                    .await;
            }
        }));
    }
    for t in tasks {
        t.await.unwrap();
    }
    let snap = clipper.registry().snapshot();
    let (_, max_batch) = snap
        .values
        .iter()
        .find_map(|(k, v)| {
            if k.ends_with("batch_size") {
                if let clipper::metrics::MetricValue::Histogram { max, .. } = v {
                    return Some((k.clone(), *max));
                }
            }
            None
        })
        .expect("batch histogram");
    assert!(
        max_batch >= 16,
        "AIMD should have grown batches under load, max {max_batch}"
    );
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn cache_is_shared_across_predict_and_feedback() {
    let clipper = Clipper::builder().build();
    let id = ModelId::new("m", 1);
    clipper.add_model(id.clone(), QueueConfig::default());
    clipper
        .add_replica(
            &id,
            LocalContainerTransport::new(profile_container("m", 1, 10)),
        )
        .unwrap();
    clipper.register_app(
        AppConfig::new("app", vec![id])
            .with_policy(PolicyKind::Exp3 { eta: 0.2 })
            .with_slo(Duration::from_millis(100)),
    );
    let input: clipper::core::Input = Arc::new(vec![3.3; 16]);
    clipper.predict("app", None, input.clone()).await.unwrap();
    tokio::time::sleep(Duration::from_millis(20)).await;
    let misses_before = clipper.abstraction().cache().stats().misses;
    clipper
        .feedback("app", None, input, Feedback::class(1))
        .await
        .unwrap();
    let misses_after = clipper.abstraction().cache().stats().misses;
    assert_eq!(
        misses_before, misses_after,
        "feedback join must not re-evaluate a cached prediction"
    );
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn version_bump_is_a_distinct_model() {
    // Deploying v2 next to v1 serves both transparently (§2.2's model
    // swap story) — they are distinct cache/queue/selection entities.
    let clipper = Clipper::builder().build();
    let v1 = ModelId::new("m", 1);
    let v2 = ModelId::new("m", 2);
    for (id, label) in [(v1.clone(), 1u32), (v2.clone(), 2u32)] {
        clipper.add_model(id.clone(), QueueConfig::default());
        let c = ModelContainer::new(ContainerConfig {
            name: format!("{id}:0"),
            model_name: id.name.clone(),
            model_version: id.version,
            logic: ContainerLogic::Fixed(WireOutput::Class(label)),
            timing: TimingModel::Measured,
            seed: 0,
        });
        clipper
            .add_replica(&id, LocalContainerTransport::new(c))
            .unwrap();
    }
    clipper.register_app(
        AppConfig::new("old", vec![v1])
            .with_policy(PolicyKind::Static { model_index: 0 })
            .with_slo(Duration::from_millis(50)),
    );
    clipper.register_app(
        AppConfig::new("new", vec![v2])
            .with_policy(PolicyKind::Static { model_index: 0 })
            .with_slo(Duration::from_millis(50)),
    );
    let x: clipper::core::Input = Arc::new(vec![1.0]);
    let old = clipper.predict("old", None, x.clone()).await.unwrap();
    let new = clipper.predict("new", None, x).await.unwrap();
    assert_eq!(old.output, Output::Class(1));
    assert_eq!(new.output, Output::Class(2));
}
