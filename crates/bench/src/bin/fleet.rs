//! Fleet control-loop bench — the replica-lifecycle entry in the repo's
//! bench trajectory (`BENCH_fleet.json`).
//!
//! One scripted scenario over a live fleet manager (spawned health
//! monitor, real heartbeats, manual-ticked autoscaler) under sustained
//! open-loop traffic:
//!
//! 1. **register** — a baseline replica plus the flapping container
//!    `flap-0` self-register; a beat pump heartbeats every live member on
//!    schedule, and a calibration sweep establishes `flap-0`'s latency
//!    curve so expiry has a tune to harvest.
//! 2. **flap** — `flap-0`'s heartbeats stop cold. The monitor walks it
//!    `Healthy → Suspect → Expired` and gracefully drains its queue; the
//!    bench measures wall-clock detection latency from the kill to the
//!    observed expiry.
//! 3. **readmit** — the container re-registers and must come back
//!    *warm*: the harvested curve rides in as the new queue's prior.
//! 4. **load step** — a concurrent burst piles backlog onto the slow
//!    replicas; the autoscaler must decide `Up` within one evaluation.
//! 5. **subside** — the burst drains; after the quiet streak the
//!    autoscaler reaps every managed replica it launched.
//!
//! Presets: 150 ms heartbeats with 2 s of steady-traffic padding between
//! scenario beats, `--smoke` 50 ms and 1 s. Gates: zero queries lost
//! across the whole scenario (sheds are answered, not lost), detection
//! latency ≤ 3 heartbeat intervals, the readmission was warm, scale-up
//! landed within one evaluation of the load step, and every managed
//! replica was reaped after the load subsided.

use clipper_bench::harness::{Args, Op, Report};
use clipper_core::api::ReplicaSpec;
use clipper_core::batching::QueueConfig;
use clipper_core::{
    AppConfig, AutoscaleConfig, AutoscaleDecision, Clipper, FleetConfig, FleetEvent, FnLauncher,
    ModelId, Output, PolicyKind, PredictError,
};
use clipper_rpc::error::RpcError;
use clipper_rpc::message::{PredictReply, WireOutput};
use clipper_rpc::transport::{BatchTransport, BoxFuture, Input};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CAPABILITY: &str = "bench:inproc";
const FLAP: &str = "flap-0";
const MODEL: &str = "m";

/// A replica with real service time, so queued work is visible backlog.
struct SimTransport {
    per_item: Duration,
}

impl BatchTransport for SimTransport {
    fn predict_batch(&self, inputs: &[Input]) -> BoxFuture<Result<PredictReply, RpcError>> {
        let n = inputs.len();
        let d = Duration::from_millis(1) + self.per_item * n as u32;
        Box::pin(async move {
            tokio::time::sleep(d).await;
            Ok(PredictReply {
                outputs: vec![WireOutput::Class(1); n],
                queue_us: 0,
                compute_us: d.as_micros() as u64,
            })
        })
    }
    fn id(&self) -> String {
        "sim".into()
    }
}

fn sim_transport() -> Arc<dyn BatchTransport> {
    Arc::new(SimTransport {
        per_item: Duration::from_micros(200),
    })
}

fn spec(name: &str) -> ReplicaSpec {
    ReplicaSpec {
        container_name: name.to_string(),
        model_name: MODEL.into(),
        model_version: 1,
        capabilities: vec![CAPABILITY.into()],
    }
}

#[derive(Clone, Serialize)]
struct TimelineRow {
    t_s: f64,
    replicas: usize,
    managed: usize,
}

#[derive(Serialize)]
struct Summary {
    seconds: f64,
    issued: u64,
    completed: u64,
    shed: u64,
    lost: u64,
    detection_ms: f64,
    expired_silent_ms: u64,
    saw_suspect: bool,
    warm_readmit: bool,
    scale_up_ticks: u32,
    scaled_down: bool,
    managed_final: usize,
    final_replicas: usize,
    registrations: u64,
    expiries: u64,
    drains: u64,
}

#[tokio::main(flavor = "multi_thread", worker_threads = 4)]
async fn main() {
    let args = Args::parse("fleet");
    // Heartbeat interval, and the steady-traffic padding between beats.
    let (hb, pad) = if args.smoke {
        (Duration::from_millis(50), Duration::from_secs(1))
    } else {
        (Duration::from_millis(150), Duration::from_secs(2))
    };
    let mut report = Report::new(&args, "fleet");
    let fleet_cfg = FleetConfig {
        heartbeat_interval: hb,
        suspect_after: 1,
        expire_after: 2,
    };
    report.param("heartbeat_ms", hb.as_millis() as u64);
    report.param("pad_seconds", pad.as_secs_f64());
    report.param("suspect_after", fleet_cfg.suspect_after);
    report.param("expire_after", fleet_cfg.expire_after);

    let clipper = Clipper::builder().fleet_config(fleet_cfg.clone()).build();
    let m = ModelId::new(MODEL, 1);
    clipper.add_model(m.clone(), QueueConfig::default());
    clipper.register_app(
        AppConfig::new("app", vec![m.clone()])
            .with_policy(PolicyKind::Static { model_index: 0 })
            .with_slo(Duration::from_millis(200))
            .with_default_output(Output::Class(0)),
    );
    let fleet = clipper.fleet();
    fleet.add_launcher(Arc::new(FnLauncher::new(CAPABILITY, |_rec| {
        sim_transport()
    })));
    let start = Instant::now();

    // Phase 1: register. A baseline member that never flaps, plus the
    // flapping container under test.
    fleet.register(spec("base-0")).expect("register base-0");
    let outcome = fleet.register(spec(FLAP)).expect("register flap-0");
    let flap_qid = outcome.queue_id.clone().expect("attached in-process");
    assert!(!outcome.warm_start, "first registration is cold");

    // Calibration sweep: establish flap-0's latency curve so the expiry
    // has a tune to harvest (batch spread identifies the slope).
    let model = clipper
        .abstraction()
        .replica_latency_model(&m, &flap_qid)
        .expect("flap queue live");
    for round in 0..3u64 {
        for batch in 1..=8usize {
            model.observe(
                batch,
                Duration::from_micros(1_000 + 200 * batch as u64 + round),
            );
        }
    }
    assert!(model.is_established(), "calibration established the curve");

    // The beat pump: every live member heartbeats on schedule, except a
    // member the scenario has killed. Managed (autoscaled) members are
    // picked up automatically as they appear.
    let killed = Arc::new(AtomicBool::new(false));
    let pump = {
        let fleet = fleet.clone();
        let killed = killed.clone();
        tokio::spawn(async move {
            loop {
                for view in fleet.list() {
                    if view.health == "expired"
                        || (view.container_name == FLAP && killed.load(Ordering::Relaxed))
                    {
                        continue;
                    }
                    let _ = fleet.heartbeat(&view.container_name);
                }
                tokio::time::sleep(hb / 3).await;
            }
        })
    };
    let monitor = fleet.spawn_monitor();

    // Open-loop traffic across the whole scenario: sheds are answered
    // decisions; anything else failing counts as lost.
    let stop = Arc::new(AtomicBool::new(false));
    let issued = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let lost = Arc::new(AtomicU64::new(0));
    let traffic = {
        let clipper = clipper.clone();
        let (stop, issued, shed, lost) = (stop.clone(), issued.clone(), shed.clone(), lost.clone());
        tokio::spawn(async move {
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) {
                issued.fetch_add(1, Ordering::Relaxed);
                match clipper
                    .predict("app", None, Arc::new(vec![i as f32, 1.0]))
                    .await
                {
                    Ok(_) => {}
                    Err(PredictError::Overloaded) => {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        lost.fetch_add(1, Ordering::Relaxed);
                    }
                }
                i += 1;
                tokio::time::sleep(Duration::from_millis(2)).await;
            }
        })
    };

    // Replica-count timeline sampler.
    let timeline = Arc::new(std::sync::Mutex::new(Vec::<TimelineRow>::new()));
    let sampler = {
        let clipper = clipper.clone();
        let fleet = fleet.clone();
        let timeline = timeline.clone();
        let m = m.clone();
        tokio::spawn(async move {
            loop {
                let managed = fleet
                    .list()
                    .iter()
                    .filter(|v| v.managed && v.health != "expired")
                    .count();
                timeline.lock().unwrap().push(TimelineRow {
                    t_s: start.elapsed().as_secs_f64(),
                    replicas: clipper.abstraction().replica_count(&m),
                    managed,
                });
                tokio::time::sleep(hb / 2).await;
            }
        })
    };

    tokio::time::sleep(pad).await;

    // Phase 2: flap. Heartbeats stop; the monitor must walk the member
    // to Expired and drain it.
    println!("flap: killing {FLAP}'s heartbeats");
    killed.store(true, Ordering::Relaxed);
    let kill_at = Instant::now();
    let mut saw_suspect = false;
    let deadline = kill_at + hb * 20;
    loop {
        let health = fleet.view(FLAP).map(|v| v.health).unwrap_or_default();
        if health == "suspect" {
            saw_suspect = true;
        }
        if health == "expired" {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "monitor never expired {FLAP} (stuck at {health:?})"
        );
        tokio::time::sleep(Duration::from_millis(2)).await;
    }
    let detection_ms = kill_at.elapsed().as_secs_f64() * 1_000.0;
    // The member reads "expired" as soon as the monitor claims it; the
    // event is pushed only once its queue has drained.
    let expired_silent_ms = loop {
        let event = fleet.events().iter().find_map(|e| match e {
            FleetEvent::Expired {
                container,
                silent_ms,
                drained: true,
            } if container == FLAP => Some(*silent_ms),
            _ => None,
        });
        if let Some(silent_ms) = event {
            break silent_ms;
        }
        assert!(
            Instant::now() < deadline,
            "expiry event with a graceful drain"
        );
        tokio::time::sleep(Duration::from_millis(2)).await;
    };
    println!(
        "flap: detected + drained in {detection_ms:.0}ms (observed silence {expired_silent_ms}ms, suspect seen: {saw_suspect})"
    );

    tokio::time::sleep(pad / 2).await;

    // Phase 3: readmit. The container returns; the harvested curve must
    // ride back in as the new queue's prior.
    let outcome = fleet.register(spec(FLAP)).expect("re-register flap-0");
    let warm_readmit = outcome.warm_start;
    killed.store(false, Ordering::Relaxed);
    let new_qid = outcome.queue_id.expect("re-attached");
    let warm_established = clipper
        .abstraction()
        .replica_latency_model(&m, &new_qid)
        .map(|lm| lm.is_established())
        .unwrap_or(false);
    println!("readmit: warm_start={warm_readmit}, established-before-traffic={warm_established}");

    tokio::time::sleep(pad / 2).await;

    // Phase 4: load step. A concurrent burst piles real backlog onto the
    // slow replicas; the autoscaler must scale up within one evaluation.
    println!("load step: {} concurrent queries", 256);
    let autoscale_cfg = AutoscaleConfig {
        model: m.clone(),
        min_replicas: 2,
        max_replicas: 4,
        eval_interval: hb,
        scale_up_backlog_ns: 2_000_000,
        scale_down_backlog_ns: 200_000,
        scale_down_evals: 2,
        capability: CAPABILITY.into(),
        name_prefix: "auto".into(),
    };
    let mut autoscale_state = Default::default();
    let mut burst = Vec::new();
    for i in 0..256u32 {
        let clipper = clipper.clone();
        burst.push(tokio::spawn(async move {
            clipper
                .predict("app", None, Arc::new(vec![10_000.0 + i as f32, 2.0]))
                .await
        }));
    }
    tokio::time::sleep(Duration::from_millis(10)).await;
    let mut scale_up_ticks = 0u32;
    loop {
        scale_up_ticks += 1;
        let decision = fleet
            .autoscale_tick(&autoscale_cfg, &mut autoscale_state)
            .await;
        if decision == AutoscaleDecision::Up {
            break;
        }
        assert!(scale_up_ticks < 10, "autoscaler never scaled up under load");
        tokio::time::sleep(hb).await;
    }
    println!("load step: scaled up on evaluation #{scale_up_ticks}");
    for b in burst {
        match b.await.expect("burst task") {
            Ok(_) | Err(PredictError::Overloaded) => {}
            Err(e) => {
                lost.fetch_add(1, Ordering::Relaxed);
                eprintln!("burst query failed: {e}");
            }
        }
    }

    // Phase 5: subside. The backlog is gone; the quiet streak must reap
    // every managed replica the autoscaler launched.
    let mut scaled_down = false;
    for _ in 0..20 {
        tokio::time::sleep(hb).await;
        fleet
            .autoscale_tick(&autoscale_cfg, &mut autoscale_state)
            .await;
        let managed = fleet
            .list()
            .iter()
            .filter(|v| v.managed && v.health != "expired")
            .count();
        if managed == 0 {
            scaled_down = true;
            break;
        }
    }
    let managed_final = fleet
        .list()
        .iter()
        .filter(|v| v.managed && v.health != "expired")
        .count();
    println!("subside: managed replicas reaped={scaled_down} (left: {managed_final})");

    tokio::time::sleep(pad / 2).await;
    stop.store(true, Ordering::Relaxed);
    traffic.await.expect("traffic task");
    sampler.abort();
    pump.abort();
    monitor.abort();

    let issued = issued.load(Ordering::Relaxed);
    let shed = shed.load(Ordering::Relaxed);
    let lost = lost.load(Ordering::Relaxed);
    let events = fleet.events();
    let count = |pred: fn(&FleetEvent) -> bool| events.iter().filter(|e| pred(e)).count() as u64;
    let out = Summary {
        seconds: start.elapsed().as_secs_f64(),
        issued,
        completed: issued - shed - lost,
        shed,
        lost,
        detection_ms,
        expired_silent_ms,
        saw_suspect,
        warm_readmit: warm_readmit && warm_established,
        scale_up_ticks,
        scaled_down,
        managed_final,
        final_replicas: clipper.abstraction().replica_count(&m),
        registrations: count(|e| {
            matches!(
                e,
                FleetEvent::Registered { .. } | FleetEvent::Readmitted { .. }
            )
        }),
        expiries: count(|e| matches!(e, FleetEvent::Expired { .. })),
        drains: fleet.drain_count(),
    };
    report.row("summary", &out);
    for t in timeline.lock().unwrap().iter() {
        report.row("timeline", t);
    }
    for e in &events {
        println!("  event: {e:?}");
        report.row("event", e);
    }

    report.gate("issued", out.issued as f64, Op::AtLeast, 1.0);
    report.gate("lost", out.lost as f64, Op::Equals, 0.0);
    let bound_ms = (hb * 3).as_secs_f64() * 1_000.0;
    report.gate("detection_ms", out.detection_ms, Op::AtMost, bound_ms);
    report.gate_true("warm_readmit", out.warm_readmit);
    report.gate("scale_up_ticks", out.scale_up_ticks as f64, Op::AtMost, 1.0);
    report.gate_true("managed_reaped", out.scaled_down && out.managed_final == 0);
    report.finish()
}
