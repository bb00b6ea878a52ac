//! Fleet-manager integration tests: container self-registration over
//! HTTP and RPC, the heartbeat-driven `Healthy → Suspect → Expired`
//! state machine with zero-drop drains and warm re-admission, the
//! registration races the control plane must survive, and the
//! idempotency contract between fleet expiry and the suspect sweep.

use clipper::containers::{
    spawn_tcp_container, ContainerConfig, ContainerLogic, ModelContainer, TimingModel,
};
use clipper::core::api::{self, ReplicaSpec};
use clipper::core::batching::QueueConfig;
use clipper::core::{
    ApiError, AppConfig, Clipper, FleetConfig, FleetEvent, FnLauncher, HttpFrontend, ModelId,
    Output, PolicyKind, ReplicaLauncher,
};
use clipper::rpc::client::{serve_container, ContainerClientConfig};
use clipper::rpc::faulty::{FaultConfig, FaultyTransport};
use clipper::rpc::message::{PredictReply, WireOutput};
use clipper::rpc::transport::{BatchTransport, FnTransport, Input};
use clipper::statestore::StateStore;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CAPABILITY: &str = "test:inproc";

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

/// A launcher attaching `const_transport(label)` under [`CAPABILITY`].
fn const_launcher(label: u32) -> Arc<dyn ReplicaLauncher> {
    Arc::new(FnLauncher::new(CAPABILITY, move |_rec| {
        const_transport(label)
    }))
}

fn spec(name: &str) -> ReplicaSpec {
    ReplicaSpec {
        container_name: name.to_string(),
        model_name: "m".into(),
        model_version: 1,
        capabilities: vec![CAPABILITY.into()],
    }
}

/// A Clipper with model `m` v1 (no replicas yet) and an app over it.
fn base_clipper(store: Option<Arc<StateStore>>, fleet_cfg: FleetConfig) -> Clipper {
    let mut builder = Clipper::builder().fleet_config(fleet_cfg);
    if let Some(store) = store {
        builder = builder.statestore(store);
    }
    let clipper = builder.build();
    let m = ModelId::new("m", 1);
    clipper.add_model(m.clone(), QueueConfig::default());
    clipper.register_app(
        AppConfig::new("app", vec![m])
            .with_policy(PolicyKind::Static { model_index: 0 })
            .with_slo(Duration::from_millis(200))
            .with_default_output(Output::Class(0)),
    );
    clipper
}

/// Issue one HTTP request on a fresh connection; return (status, body).
async fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    clipper::workload::http_request(addr, method, path, body)
        .await
        .expect("http request")
}

/// A container self-registers over `POST /api/v1/replicas`, the frontend
/// attaches it through a matching launcher, and it serves traffic; the
/// rest of the `/api/v1/replicas` CRUD surface round-trips.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn http_registration_attaches_a_replica_and_serves() {
    let clipper = base_clipper(None, FleetConfig::default());
    clipper.fleet().add_launcher(const_launcher(7));
    let frontend = HttpFrontend::bind("127.0.0.1:0", clipper.clone())
        .await
        .unwrap();
    let addr = frontend.local_addr();

    // Announcing an unknown model is a 404, not a silent accept.
    let (status, body) = http(
        addr,
        "POST",
        "/api/v1/replicas",
        "{\"container_name\":\"c-0\",\"model_name\":\"ghost\",\"model_version\":1}",
    )
    .await;
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("model_unknown"), "{body}");

    // A real registration attaches immediately (launcher matched).
    let (status, body) = http(
        addr,
        "POST",
        "/api/v1/replicas",
        "{\"container_name\":\"c-0\",\"model_name\":\"m\",\"model_version\":1,\
         \"capabilities\":[\"test:inproc\"]}",
    )
    .await;
    assert_eq!(status, 201, "{body}");
    assert!(
        body.contains("\"queue_id\":\""),
        "attached in-process: {body}"
    );
    assert!(body.contains("\"warm_start\":false"), "{body}");
    assert!(body.contains("\"heartbeat_interval_ms\""), "{body}");

    // ...and serves predictions through the app.
    let (status, body) = http(
        addr,
        "POST",
        "/api/v1/apps/app/predict",
        "{\"input\":[1.0]}",
    )
    .await;
    assert_eq!(status, 200, "{body}");

    // Membership is visible, one row, healthy.
    let (status, body) = http(addr, "GET", "/api/v1/replicas", "").await;
    assert_eq!(status, 200);
    assert!(body.contains("\"container_name\":\"c-0\""), "{body}");
    assert!(body.contains("\"health\":\"healthy\""), "{body}");
    let (status, body) = http(addr, "GET", "/api/v1/replicas/c-0", "").await;
    assert_eq!(status, 200, "{body}");

    // A liveness beat answers with the view: its body may be empty or any
    // JSON object, whose keys are ignored...
    for beat in ["", "{}", "{\"queue_depth\":3,\"service_us\":12.5}"] {
        let (status, body) = http(addr, "POST", "/api/v1/replicas/c-0/heartbeat", beat).await;
        assert_eq!(status, 200, "{beat:?}: {body}");
        assert!(body.contains("\"health\":\"healthy\""), "{body}");
    }
    // ...but it must parse.
    let (status, body) = http(
        addr,
        "POST",
        "/api/v1/replicas/c-0/heartbeat",
        "{\"queue_depth\":",
    )
    .await;
    assert_eq!(status, 400, "{body}");

    // Graceful deregistration frees the name and the view.
    let (status, body) = http(addr, "DELETE", "/api/v1/replicas/c-0", "").await;
    assert_eq!(status, 200, "{body}");
    let (status, body) = http(addr, "GET", "/api/v1/replicas/c-0", "").await;
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("replica_unknown"), "{body}");
    assert_eq!(
        clipper.abstraction().replica_count(&ModelId::new("m", 1)),
        0
    );
}

/// A real TCP container dials the fleet's RPC data plane, registers
/// itself, serves traffic, and — once its process dies — is expired and
/// drained by the health monitor (the connection's passive probe is its
/// heartbeat).
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn rpc_container_dials_in_serves_and_expires_on_death() {
    let cfg = FleetConfig {
        heartbeat_interval: Duration::from_millis(50),
        suspect_after: 2,
        expire_after: 4,
    };
    let clipper = base_clipper(None, cfg);
    let m = ModelId::new("m", 1);
    let fleet = clipper.fleet();
    let rpc_addr = fleet.serve_rpc("127.0.0.1:0").await.unwrap();
    assert_eq!(fleet.rpc_addr(), Some(rpc_addr));

    let container = ModelContainer::new(ContainerConfig {
        name: "rpc-c0".into(),
        model_name: "m".into(),
        model_version: 1,
        logic: ContainerLogic::Fixed(WireOutput::Class(3)),
        timing: TimingModel::Measured,
        seed: 7,
    });
    let task = spawn_tcp_container(rpc_addr, container);

    // The container completes its own registration: wait for admission.
    let mut waited = 0;
    while clipper.abstraction().replica_count(&m) == 0 && waited < 500 {
        tokio::time::sleep(Duration::from_millis(10)).await;
        waited += 1;
    }
    assert_eq!(clipper.abstraction().replica_count(&m), 1, "RPC admission");
    let view = fleet.view("rpc-c0").expect("member admitted");
    assert_eq!(view.health, "healthy");
    assert!(view.queue_id.is_some(), "attached to the data plane");

    let p = clipper
        .predict("app", None, Arc::new(vec![1.0]))
        .await
        .unwrap();
    assert_eq!(p.output, Output::Class(3), "served over real RPC");

    // Its connection-level liveness counts as a heartbeat: monitor
    // passes keep it healthy without any HTTP beats.
    fleet.check_members().await;
    assert_eq!(fleet.view("rpc-c0").unwrap().health, "healthy");

    // Kill the container process. The probe goes dark, silence
    // accumulates, and the monitor expires + drains the member.
    task.abort();
    let mut waited = 0;
    while fleet.view("rpc-c0").unwrap().health != "expired" && waited < 1_000 {
        fleet.check_members().await;
        tokio::time::sleep(Duration::from_millis(10)).await;
        waited += 1;
    }
    assert_eq!(fleet.view("rpc-c0").unwrap().health, "expired");
    assert_eq!(clipper.abstraction().replica_count(&m), 0, "queue drained");
    assert!(
        fleet
            .events()
            .iter()
            .any(|e| matches!(e, FleetEvent::Expired { container, .. } if container == "rpc-c0")),
        "expiry recorded: {:#?}",
        fleet.events()
    );
}

/// The full heartbeat state machine under live traffic: missed beats
/// turn the member Suspect (feeding p2c suspect-avoidance), then
/// Expired (graceful drain, zero queries lost), and the returning
/// container re-registers warm — its drained latency curve rides back
/// in as the new queue's prior.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn missed_heartbeats_suspect_then_expire_then_warm_readmit() {
    let cfg = FleetConfig {
        heartbeat_interval: Duration::from_millis(40),
        suspect_after: 2,
        expire_after: 4,
    };
    let clipper = base_clipper(None, cfg);
    let m = ModelId::new("m", 1);
    let fleet = clipper.fleet();
    fleet.add_launcher(const_launcher(1));
    // A baseline replica outside the fleet keeps the model serving while
    // the fleet member dies, so "zero lost" is about the drain, not luck.
    clipper.add_replica(&m, const_transport(1)).unwrap();

    let outcome = fleet.register(spec("c-0")).unwrap();
    assert!(!outcome.warm_start, "first registration is cold");
    let qid = outcome.queue_id.expect("attached");

    // Teach the member's queue a latency curve (batch spread establishes
    // the fit) so expiry has a tune to harvest.
    let model = clipper
        .abstraction()
        .replica_latency_model(&m, &qid)
        .unwrap();
    for round in 0..3 {
        for b in 1..=8usize {
            model.observe(b, Duration::from_micros(200 + 50 * b as u64 + round));
        }
    }
    assert!(model.is_established(), "curve learned before the kill");

    // Open-loop traffic for the whole scenario; every query must be
    // answered (fail-fill counts, an error does not).
    let stop = Arc::new(AtomicBool::new(false));
    let errors = {
        let clipper = clipper.clone();
        let stop = stop.clone();
        tokio::spawn(async move {
            let mut errors = 0u64;
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) {
                if clipper
                    .predict("app", None, Arc::new(vec![i as f32]))
                    .await
                    .is_err()
                {
                    errors += 1;
                }
                i += 1;
                tokio::time::sleep(Duration::from_millis(2)).await;
            }
            errors
        })
    };

    // On-schedule beats keep the member healthy across monitor passes.
    for _ in 0..4 {
        fleet.heartbeat("c-0").unwrap();
        fleet.check_members().await;
        tokio::time::sleep(Duration::from_millis(20)).await;
    }
    assert_eq!(fleet.view("c-0").unwrap().health, "healthy");

    // Stop beating. Silence crosses the suspect bar first: the member is
    // deprioritized (visible to the scheduler) but not drained.
    let mut waited = 0;
    while fleet.view("c-0").unwrap().health == "healthy" && waited < 500 {
        fleet.check_members().await;
        tokio::time::sleep(Duration::from_millis(10)).await;
        waited += 1;
    }
    let saw_suspect = fleet.view("c-0").unwrap().health == "suspect";
    if saw_suspect {
        assert!(
            clipper.abstraction().suspect_queue_ids(&m).contains(&qid),
            "suspicion feeds p2c suspect-avoidance"
        );
        // A beat arriving now would restore Healthy — prove it, then go
        // silent again for good.
        fleet.heartbeat("c-0").unwrap();
        assert_eq!(fleet.view("c-0").unwrap().health, "healthy");
        assert!(
            clipper.abstraction().suspect_queue_ids(&m).is_empty(),
            "recovery clears the scheduler hint"
        );
    }

    // Full silence → Expired: graceful drain, tombstone, harvested tune.
    let mut waited = 0;
    while fleet.view("c-0").unwrap().health != "expired" && waited < 1_000 {
        fleet.check_members().await;
        tokio::time::sleep(Duration::from_millis(10)).await;
        waited += 1;
    }
    assert_eq!(fleet.view("c-0").unwrap().health, "expired");
    assert_eq!(clipper.abstraction().replica_count(&m), 1, "baseline only");
    let events = fleet.events();
    if saw_suspect {
        assert!(
            events.iter().any(
                |e| matches!(e, FleetEvent::Suspected { container, .. } if container == "c-0")
            ),
            "suspect transition recorded: {events:#?}"
        );
    }
    assert!(
        events.iter().any(
            |e| matches!(e, FleetEvent::Expired { container, drained: true, .. } if container == "c-0")
        ),
        "expiry drained the queue: {events:#?}"
    );

    stop.store(true, Ordering::Relaxed);
    assert_eq!(errors.await.unwrap(), 0, "zero lost across the whole flap");

    // The container comes back: re-registration is warm — the tombstone's
    // harvested curve is the new queue's prior, established from query 1.
    let outcome = fleet.register(spec("c-0")).unwrap();
    assert!(outcome.warm_start, "readmission carries the harvested tune");
    let new_qid = outcome.queue_id.expect("attached");
    assert_ne!(new_qid, qid, "a fresh queue, not the drained one");
    assert!(
        clipper
            .abstraction()
            .replica_latency_model(&m, &new_qid)
            .unwrap()
            .is_established(),
        "warm start: established before any observation"
    );
    assert!(
        fleet.events().iter().any(
            |e| matches!(e, FleetEvent::Readmitted { container, warm_start: true } if container == "c-0")
        ),
        "readmission recorded"
    );
    assert_eq!(fleet.view("c-0").unwrap().health, "healthy");
}

/// An RPC container that stalls past the suspect bar and then answers
/// again reads healthy once its connection probe recovers: the
/// heartbeat-silent flag on its queue is the one record of suspicion, and
/// every monitor pass that hears the probe clears it. A member with no
/// queue never reads suspect and raises no `Suspected` event.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn rpc_member_returns_to_healthy_when_its_probe_recovers() {
    let cfg = FleetConfig {
        heartbeat_interval: Duration::from_millis(40),
        suspect_after: 2,
        expire_after: 50,
    };
    let clipper = base_clipper(None, cfg);
    let m = ModelId::new("m", 1);
    let fleet = clipper.fleet();
    let rpc_addr = fleet.serve_rpc("127.0.0.1:0").await.unwrap();

    // The first batch stalls 500 ms: far past the 80 ms suspect bar, far
    // short of the 2 s expiry. Every later batch answers at once.
    let stalled = Arc::new(AtomicBool::new(false));
    let handler = move |inputs: Vec<Input>| {
        if !stalled.swap(true, Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(500));
        }
        Ok(PredictReply {
            outputs: vec![WireOutput::Class(3); inputs.len()],
            queue_us: 0,
            compute_us: 1,
        })
    };
    let container = tokio::spawn(serve_container(
        rpc_addr,
        ContainerClientConfig {
            container_name: "rpc-c0".into(),
            model_name: "m".into(),
            model_version: 1,
        },
        Arc::new(handler),
    ));
    let mut waited = 0;
    while clipper.abstraction().replica_count(&m) == 0 && waited < 500 {
        tokio::time::sleep(Duration::from_millis(10)).await;
        waited += 1;
    }
    assert_eq!(clipper.abstraction().replica_count(&m), 1, "RPC admission");
    // Registered over HTTP with no launcher: a member without a queue.
    let unattached = fleet.register(spec("dialer")).unwrap();
    assert!(unattached.queue_id.is_none());

    let predict = {
        let clipper = clipper.clone();
        tokio::spawn(async move { clipper.predict("app", None, Arc::new(vec![1.0])).await })
    };
    let (mut saw_suspect, mut unattached_suspect) = (false, false);
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(2) {
        fleet.check_members().await;
        saw_suspect |= fleet.view("rpc-c0").unwrap().health == "suspect";
        unattached_suspect |= fleet.view("dialer").unwrap().health == "suspect";
        tokio::time::sleep(Duration::from_millis(10)).await;
    }
    predict.await.unwrap().expect("the stalled predict settles");

    let health = fleet.view("rpc-c0").unwrap().health;
    let suspects = clipper.abstraction().suspect_queue_ids(&m);
    assert!(saw_suspect, "the stall crossed the suspect bar");
    assert_eq!(health, "healthy", "suspect_queue_ids={suspects:?}");
    assert!(suspects.is_empty(), "suspect_queue_ids={suspects:?}");
    assert!(
        !unattached_suspect,
        "a member without a queue is never suspect"
    );
    let suspected: Vec<String> = fleet
        .events()
        .into_iter()
        .filter_map(|e| match e {
            FleetEvent::Suspected { container, .. } => Some(container),
            _ => None,
        })
        .collect();
    assert_eq!(
        suspected,
        vec!["rpc-c0".to_string()],
        "one clear → set change"
    );
    container.abort();
}

/// A heartbeat arriving after expiry is an unambiguous 410 — on the
/// frontend that expired the member, and on a sibling frontend that only
/// knows the tombstone through the statestore. Re-registration revives.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn heartbeat_after_expiry_is_gone_until_reregistration() {
    let store = Arc::new(StateStore::new());
    let clipper = base_clipper(Some(store.clone()), FleetConfig::default());
    clipper.fleet().add_launcher(const_launcher(1));
    let frontend = HttpFrontend::bind("127.0.0.1:0", clipper.clone())
        .await
        .unwrap();
    let addr = frontend.local_addr();

    let (status, _) = http(
        addr,
        "POST",
        "/api/v1/replicas",
        "{\"container_name\":\"c-0\",\"model_name\":\"m\",\"model_version\":1,\
         \"capabilities\":[\"test:inproc\"]}",
    )
    .await;
    assert_eq!(status, 201);

    assert!(clipper.fleet().expire("c-0").await, "deterministic expiry");

    // The late beat: 410, not 404 — the container must re-register.
    let (status, body) = http(addr, "POST", "/api/v1/replicas/c-0/heartbeat", "{}").await;
    assert_eq!(status, 410, "{body}");
    assert!(body.contains("replica_gone"), "{body}");

    // A sibling frontend that never met the member reads the tombstone
    // from the store and answers the same 410.
    let sibling = base_clipper(Some(store.clone()), FleetConfig::default());
    match sibling.fleet().heartbeat("c-0") {
        Err(ApiError::ReplicaGone(name)) => assert_eq!(name, "c-0"),
        other => panic!("sibling must answer gone, got {other:?}"),
    }

    // A tombstone in the shape older frontends wrote, whose tune also
    // carries `queue_id`, `b_max` and `samples`, is still this
    // container's warm start.
    store.set(
        &api::replica_key("c-0"),
        br#"{"container_name":"c-0","model_name":"m","model_version":1,"capabilities":["test:inproc"],"state":"expired","tune":{"queue_id":"m:v1:0","alpha_us":140.0,"beta_us":41.5,"b_max":17,"samples":420}}"#.to_vec(),
    );

    // Re-registration is the way back; beats flow again.
    let (status, body) = http(
        addr,
        "POST",
        "/api/v1/replicas",
        "{\"container_name\":\"c-0\",\"model_name\":\"m\",\"model_version\":1,\
         \"capabilities\":[\"test:inproc\"]}",
    )
    .await;
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"warm_start\":true"), "{body}");
    let (status, body) = http(addr, "POST", "/api/v1/replicas/c-0/heartbeat", "").await;
    assert_eq!(status, 200, "{body}");
}

/// A replica whose batches take real time: expiry's graceful drain is
/// still in flight when the container re-registers under the same name.
/// The tombstone is replaced, the new queue serves, the old drain
/// completes — nothing lost, nothing double-drained.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn re_registration_during_an_in_flight_drain_is_safe() {
    struct SlowTransport;
    impl BatchTransport for SlowTransport {
        fn predict_batch(
            &self,
            inputs: &[Input],
        ) -> clipper::rpc::BoxFuture<Result<PredictReply, clipper::rpc::RpcError>> {
            let n = inputs.len();
            Box::pin(async move {
                tokio::time::sleep(Duration::from_millis(25)).await;
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(1); n],
                    queue_us: 0,
                    compute_us: 25_000,
                })
            })
        }
        fn id(&self) -> String {
            "slow".into()
        }
    }

    let clipper = base_clipper(None, FleetConfig::default());
    let m = ModelId::new("m", 1);
    let fleet = clipper.fleet();
    fleet.add_launcher(Arc::new(FnLauncher::new(CAPABILITY, |_rec| {
        Arc::new(SlowTransport) as Arc<dyn BatchTransport>
    })));

    let outcome = fleet.register(spec("c-0")).unwrap();
    let old_qid = outcome.queue_id.expect("attached");

    // Load the slow queue so its drain genuinely takes time.
    let mut predicts = Vec::new();
    for i in 0..24u32 {
        let clipper = clipper.clone();
        predicts.push(tokio::spawn(async move {
            clipper.predict("app", None, Arc::new(vec![i as f32])).await
        }));
    }
    tokio::time::sleep(Duration::from_millis(10)).await;

    // Expire: the tombstone lands immediately, the drain await does not.
    let expire = {
        let fleet = fleet.clone();
        tokio::spawn(async move { fleet.expire("c-0").await })
    };
    tokio::time::sleep(Duration::from_millis(10)).await;

    // The container restarts while its old queue is still draining.
    let outcome = fleet.register(spec("c-0")).unwrap();
    let new_qid = outcome.queue_id.expect("re-attached");
    assert_ne!(new_qid, old_qid, "a fresh queue under the same name");
    assert_eq!(fleet.view("c-0").unwrap().health, "healthy");
    fleet.heartbeat("c-0").unwrap();

    assert!(expire.await.unwrap(), "the expiry still completed");
    for p in predicts {
        p.await
            .unwrap()
            .expect("no query dropped by the drain race");
    }
    assert_eq!(fleet.drain_count(), 1, "the old queue drained exactly once");
    assert_eq!(clipper.abstraction().replica_count(&m), 1);

    let p = clipper
        .predict("app", None, Arc::new(vec![99.0]))
        .await
        .unwrap();
    assert_eq!(p.output, Output::Class(1), "the new queue serves");
}

/// Expiry and the suspect sweep race on the same queue id — a dead
/// replica is both silent *and* failing. `remove_replica` is exclusive,
/// so exactly one path drains; counters stay truthful; replays no-op.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn concurrent_expiry_and_suspect_drain_stay_idempotent() {
    let clipper = base_clipper(None, FleetConfig::default());
    let m = ModelId::new("m", 1);
    let fleet = clipper.fleet();
    clipper.add_replica(&m, const_transport(1)).unwrap();
    let faulty = Arc::new(FaultyTransport::new(
        const_transport(1),
        FaultConfig::default(),
        7,
    ));
    {
        let faulty = faulty.clone();
        fleet.add_launcher(Arc::new(FnLauncher::new(CAPABILITY, move |_rec| {
            faulty.clone() as Arc<dyn BatchTransport>
        })));
    }
    let qid = fleet.register(spec("c-0")).unwrap().queue_id.unwrap();

    // Black-hole the fleet member and drive traffic until the scheduler
    // marks it suspect through its failing batches.
    faulty.fail_hard(true);
    let mut waited = 0;
    while clipper.abstraction().suspect_queue_ids(&m).is_empty() && waited < 2_000 {
        for i in 0..16u32 {
            clipper
                .predict("app", None, Arc::new(vec![1_000.0 + (waited + i) as f32]))
                .await
                .expect("fault fail-fills, never errors");
        }
        waited += 1;
    }
    assert_eq!(
        clipper.abstraction().suspect_queue_ids(&m),
        vec![qid.clone()]
    );

    // The race: the operator sweep and the fleet expiry go for the same
    // queue at once.
    let (removed, transitioned) =
        tokio::join!(clipper.drain_suspect_replicas(&m), fleet.expire("c-0"));
    assert!(transitioned, "expire always claims the state transition");
    let expiry_drained = fleet
        .events()
        .iter()
        .any(|e| matches!(e, FleetEvent::Expired { drained: true, .. }));
    assert_eq!(
        removed.len() + usize::from(expiry_drained),
        1,
        "exactly one path drained the queue: sweep={removed:?} expiry_drained={expiry_drained}"
    );
    assert_eq!(
        fleet.drain_count(),
        u64::from(expiry_drained),
        "the fleet counter only counts drains the fleet actually won"
    );
    assert_eq!(clipper.abstraction().replica_count(&m), 1, "baseline left");
    assert_eq!(fleet.view("c-0").unwrap().health, "expired");

    // Replays are no-ops on both sides.
    assert!(clipper.drain_suspect_replicas(&m).await.is_empty());
    assert!(!fleet.expire("c-0").await, "second expiry is a no-op");
    assert_eq!(
        fleet.drain_count(),
        u64::from(expiry_drained),
        "no double count"
    );

    // The healthy baseline keeps serving real answers.
    let p = clipper
        .predict("app", None, Arc::new(vec![7.0]))
        .await
        .unwrap();
    assert_eq!(p.output, Output::Class(1));
}

/// One persisted registration, many frontends: a sibling adopts the
/// record via `sync_config()`, and so does a restarted frontend — both
/// attach through their own launcher and serve.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn sibling_frontends_adopt_a_persisted_registration() {
    let store = Arc::new(StateStore::new());
    let m = ModelId::new("m", 1);

    // Frontend A deploys the model + app; frontend C boots from the
    // store *before* any replica exists.
    let a = base_clipper(Some(store.clone()), FleetConfig::default());
    a.fleet().add_launcher(const_launcher(1));
    let c = Clipper::builder().statestore(store.clone()).build();
    c.fleet().add_launcher(const_launcher(1));
    let report = c.sync_config().await;
    assert_eq!(report.adopted_replicas, 0, "nothing to adopt yet");
    assert!(c.abstraction().has_model(&m), "model directory restored");

    // The container registers through A; the record persists.
    let outcome = a.fleet().register(spec("c-0")).unwrap();
    assert!(outcome.queue_id.is_some());
    assert_eq!(a.abstraction().replica_count(&m), 1);

    // C picks it up on its next config sync — attached via its own
    // launcher, healthy, unmanaged.
    let sync = c.sync_config().await;
    assert_eq!(sync.adopted_replicas, 1, "adopted the persisted record");
    let view = c.fleet().view("c-0").expect("member adopted");
    assert_eq!(view.health, "healthy");
    assert!(!view.managed);
    assert!(view.queue_id.is_some(), "attached through C's launcher");
    assert_eq!(c.abstraction().replica_count(&m), 1);

    // Adoption is idempotent: a second sync adopts nothing new.
    assert_eq!(c.sync_config().await.adopted_replicas, 0);

    // A restarted frontend adopts the same record on its first sync.
    let d = Clipper::builder().statestore(store).build();
    d.fleet().add_launcher(const_launcher(1));
    let report = d.sync_config().await;
    assert_eq!(
        report.adopted_replicas, 1,
        "the restart re-adopts the fleet"
    );
    assert_eq!(d.abstraction().replica_count(&m), 1);

    // Both adopters serve predictions from their own attachment.
    for clipper in [&c, &d] {
        let p = clipper
            .predict("app", None, Arc::new(vec![1.0]))
            .await
            .unwrap();
        assert_eq!(p.output, Output::Class(1));
    }
}

/// The autoscaler tracks load end-to-end: a load step scales the fleet
/// up within one evaluation, subsiding load scales it back down after
/// the configured quiet streak — managed replicas only.
/// The autoscaler's own loop, not a stepped tick: spawned over a model
/// with no replicas, it launches the minimum within a few periods.
#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn spawned_autoscaler_launches_the_minimum_replica() {
    use clipper::core::AutoscaleConfig;

    let clipper = base_clipper(None, FleetConfig::default());
    let m = ModelId::new("m", 1);
    let fleet = clipper.fleet();
    fleet.add_launcher(const_launcher(7));
    assert_eq!(clipper.abstraction().replica_count(&m), 0);
    let task = fleet.spawn_autoscaler(AutoscaleConfig {
        model: m.clone(),
        min_replicas: 1,
        max_replicas: 1,
        eval_interval: Duration::from_millis(10),
        scale_up_backlog_ns: u64::MAX,
        scale_down_backlog_ns: 0,
        scale_down_evals: 1,
        capability: CAPABILITY.into(),
        name_prefix: "loop".into(),
    });

    // The event is pushed after the replica is attached.
    let scaled_up = || {
        fleet
            .events()
            .iter()
            .any(|e| matches!(e, FleetEvent::ScaledUp { container } if container == "loop-1"))
    };
    let deadline = Instant::now() + Duration::from_secs(1);
    while !scaled_up() {
        assert!(
            Instant::now() < deadline,
            "no scale-up within 1 s: {:#?}",
            fleet.events()
        );
        tokio::time::sleep(Duration::from_millis(5)).await;
    }
    task.abort();
    assert_eq!(clipper.abstraction().replica_count(&m), 1);
    let view = fleet.view("loop-1").expect("managed replica launched");
    assert!(view.managed, "autoscaler-launched replicas are managed");
    let p = clipper
        .predict("app", None, Arc::new(vec![1.0]))
        .await
        .unwrap();
    assert_eq!(p.output, Output::Class(7));
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn autoscaler_scales_up_under_load_and_back_down_when_quiet() {
    use clipper::core::{AutoscaleConfig, AutoscaleDecision};

    /// A replica whose batches take real time, so queued work shows up
    /// as backlog at evaluation time.
    struct SlowTransport;
    impl BatchTransport for SlowTransport {
        fn predict_batch(
            &self,
            inputs: &[Input],
        ) -> clipper::rpc::BoxFuture<Result<PredictReply, clipper::rpc::RpcError>> {
            let n = inputs.len();
            Box::pin(async move {
                tokio::time::sleep(Duration::from_millis(10)).await;
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(1); n],
                    queue_us: 0,
                    compute_us: 10_000,
                })
            })
        }
        fn id(&self) -> String {
            "slow".into()
        }
    }

    let clipper = base_clipper(None, FleetConfig::default());
    let m = ModelId::new("m", 1);
    let fleet = clipper.fleet();
    fleet.add_launcher(Arc::new(FnLauncher::new(CAPABILITY, |_rec| {
        Arc::new(SlowTransport) as Arc<dyn BatchTransport>
    })));
    let cfg = AutoscaleConfig {
        model: m.clone(),
        min_replicas: 1,
        max_replicas: 3,
        eval_interval: Duration::from_millis(50),
        scale_up_backlog_ns: 1, // any backlog at all scales up
        scale_down_backlog_ns: 0,
        scale_down_evals: 2,
        capability: CAPABILITY.into(),
        name_prefix: "auto".into(),
    };
    let mut state = Default::default();

    // Below the floor: the first evaluation launches the minimum.
    assert_eq!(
        fleet.autoscale_tick(&cfg, &mut state).await,
        AutoscaleDecision::Up
    );
    assert_eq!(clipper.abstraction().replica_count(&m), 1);
    let launched = fleet.view("auto-1").expect("managed replica launched");
    assert!(launched.managed, "autoscaler-launched replicas are managed");

    // Load step: pile queries onto the slow replica so the evaluation
    // sees real backlog — a second replica within a single period.
    let mut predicts = Vec::new();
    for i in 0..32u32 {
        let clipper = clipper.clone();
        predicts.push(tokio::spawn(async move {
            clipper.predict("app", None, Arc::new(vec![i as f32])).await
        }));
    }
    tokio::time::sleep(Duration::from_millis(5)).await;
    assert!(clipper.abstraction().backlog_ns(&m) > 0, "load is visible");
    assert_eq!(
        fleet.autoscale_tick(&cfg, &mut state).await,
        AutoscaleDecision::Up
    );
    assert_eq!(clipper.abstraction().replica_count(&m), 2);
    assert!(
        fleet
            .events()
            .iter()
            .any(|e| matches!(e, FleetEvent::ScaledUp { container } if container == "auto-2")),
        "scale-up recorded: {:#?}",
        fleet.events()
    );

    // Every queued query completes — scale-up never sheds work.
    for p in predicts {
        p.await.unwrap().expect("scale-up loses nothing");
    }
    // A predict can resolve by deadline fail-fill while its item is
    // still queued; wait for the *queues* to go idle so the quiet
    // streak below sees a genuinely subsided load.
    let mut waited = 0;
    while clipper.abstraction().backlog_ns(&m) > 0 {
        waited += 1;
        assert!(waited < 1_000, "burst backlog never drained");
        tokio::time::sleep(Duration::from_millis(2)).await;
    }

    // Load subsides: after the quiet streak the newest managed replica
    // is reaped (graceful drain), but never below the floor.
    for _ in 0..6 {
        fleet.autoscale_tick(&cfg, &mut state).await;
        tokio::time::sleep(Duration::from_millis(2)).await;
    }
    assert_eq!(clipper.abstraction().replica_count(&m), 1, "reaped to one");
    assert_eq!(
        fleet.view("auto-2"),
        None,
        "the newest managed replica was deregistered"
    );
    assert!(fleet.view("auto-1").is_some(), "the floor replica survives");
    assert!(
        fleet
            .events()
            .iter()
            .any(|e| matches!(e, FleetEvent::ScaledDown { container } if container == "auto-2")),
        "scale-down recorded"
    );
}
