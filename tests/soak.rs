//! Multi-frontend fan-in soak: the e2e smoke version of the
//! `BENCH_soak.json` chaos run, deterministic enough for `cargo test`.
//!
//! Three scenarios:
//! - the full scripted timeline (rollout + crash + `sync_config()` restart +
//!   replica fault + suspect drain + rollback) at smoke scale, asserting
//!   the lossless verdict: zero lost queries, every cache drained;
//! - a `sync_config()` restart racing live traffic while a rollout is in flight on
//!   the *other* frontend, asserting both converge on the store's
//!   version;
//! - a black-holed replica under sustained traffic: the scheduler marks
//!   it suspect, `drain_suspect_replicas` removes it gracefully, and no
//!   cache waiter is left wedged.

use clipper::core::batching::QueueConfig;
use clipper::core::{AppConfig, Clipper, ModelId, Output, PolicyKind};
use clipper::rpc::faulty::{FaultConfig, FaultyTransport};
use clipper::rpc::message::{PredictReply, WireOutput};
use clipper::rpc::transport::{BatchTransport, FnTransport, Input};
use clipper::statestore::StateStore;
use clipper::workload::soak::{run_soak, SoakAction, SoakEvent, SoakSpec};
use std::sync::Arc;
use std::time::Duration;

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

/// The standard adversarial timeline at smoke scale: 2 frontends, one
/// rollout synced across, a crash + `sync_config()` restart of frontend 1, a
/// black-holed replica drained mid-run, and a rollback — zero lost.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn smoke_soak_survives_the_standard_timeline_losslessly() {
    let mut spec = SoakSpec::new(2, 350.0, Duration::from_secs(4)).with_standard_timeline();
    spec.input_space = 256; // small enough to warm caches at smoke rates

    // The fleet rides the same timeline: a container self-registers over
    // f0's `/api/v1/replicas` just after the rollout lands and is expired
    // (graceful zero-drop drain) mid-run — still lossless.
    spec.events.push(SoakEvent {
        at: spec.duration.mul_f64(0.20),
        action: SoakAction::RegisterReplica { version: 2, via: 0 },
    });
    spec.events.push(SoakEvent {
        at: spec.duration.mul_f64(0.55),
        action: SoakAction::ExpireReplica { via: 0 },
    });
    let report = run_soak(spec).await;

    assert!(report.issued > 500, "traffic flowed: {}", report.issued);
    assert!(
        report.all_actions_ok(),
        "every timeline action landed: {:#?}",
        report.actions
    );
    assert_eq!(report.lost(), 0, "zero lost queries: {:?}", report.totals);
    assert!(report.accounted(), "every arrival accounted for");
    assert!(report.is_lossless(), "the soak's verdict");
    assert!(report.converged, "frontends agree with the statestore");

    // The fleet actions fired and landed (registration attached a queue;
    // the expiry found a live member and drained it).
    for label in ["register", "expire"] {
        assert!(
            report.actions.iter().any(|a| a.label.contains(label)),
            "{label} action fired: {:#?}",
            report.actions
        );
    }

    // The crash window is visible as refusals — answered, never lost.
    assert!(report.totals.refused > 0, "crash window refused traffic");
    let crash = report.phases.iter().find(|p| p.name == "crash").unwrap();
    assert!(crash.refused > 0, "refusals land in the crash phase");

    // After rollback the run converges back to v1 everywhere, with every
    // frontend alive and its cache fully drained.
    for (i, f) in report.frontends.iter().enumerate() {
        assert!(f.alive, "frontend {i} alive at the end");
        assert_eq!(f.current_version, Some(1), "frontend {i} rolled back");
        assert_eq!(f.pending_len, 0, "frontend {i} cache drained");
        assert!(f.ok > 0, "frontend {i} served traffic");
    }
}

/// Rehydrate under fire: frontend B is rebuilt from the statestore while
/// frontend A is mid-rollout and traffic keeps flowing into both. B must
/// converge on whatever version A's rollout persisted — whichever side
/// of the race it lands on — without losing a query.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn rehydrate_races_an_in_flight_rollout_and_converges() {
    let mut spec = SoakSpec::new(2, 300.0, Duration::from_millis(2500));
    spec.input_space = 256;
    spec.events = vec![
        // The rollout goes through frontend 0's HTTP API...
        SoakEvent {
            at: Duration::from_millis(700),
            action: SoakAction::Phase("rollout".into()),
        },
        SoakEvent {
            at: Duration::from_millis(700),
            action: SoakAction::Rollout { version: 2, via: 0 },
        },
        // ...and frontend 1 is torn down and rebuilt from the store
        // immediately after it lands (events are sequential, so the
        // restart's `sync_config()` reads the post-rollout record under
        // traffic that never stopped).
        SoakEvent {
            at: Duration::from_millis(710),
            action: SoakAction::CrashFrontend(1),
        },
        SoakEvent {
            at: Duration::from_millis(900),
            action: SoakAction::Phase("rehydrated".into()),
        },
        SoakEvent {
            at: Duration::from_millis(900),
            action: SoakAction::RestartFrontend(1),
        },
    ];
    let report = run_soak(spec).await;

    assert!(report.all_actions_ok(), "{:#?}", report.actions);
    assert_eq!(report.lost(), 0, "zero lost: {:?}", report.totals);
    assert!(report.is_lossless());
    assert!(
        report.converged,
        "both frontends ended on the persisted version: {:#?}",
        report.frontends
    );
    for f in &report.frontends {
        assert_eq!(f.current_version, Some(2), "converged on the rollout");
    }
    // The rebuilt frontend served real traffic after rehydrating.
    let rehydrated = report
        .phases
        .iter()
        .find(|p| p.name == "rehydrated")
        .unwrap();
    assert!(rehydrated.completed > 0);
    assert_eq!(rehydrated.lost, 0);
}

/// Chaos + graceful drain, on a raw Clipper (no soak harness): black-hole
/// one of two replicas, drive traffic until the scheduler marks it
/// suspect, then `drain_suspect_replicas` — the failing replica comes out
/// cleanly, the healthy one keeps serving, and no cache waiter wedges.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn faulty_replica_is_marked_suspect_drained_and_removed() {
    let clipper = Clipper::builder()
        .statestore(Arc::new(StateStore::new()))
        .build();
    let m = ModelId::new("m", 1);
    clipper.add_model(m.clone(), QueueConfig::default());
    clipper.register_app(
        AppConfig::new("app", vec![m.clone()])
            .with_policy(PolicyKind::Static { model_index: 0 })
            .with_slo(Duration::from_millis(50))
            .with_default_output(Output::Class(0)),
    );
    let faulty = Arc::new(FaultyTransport::new(
        const_transport(1),
        FaultConfig::default(),
        7,
    ));
    clipper
        .add_replica(&m, faulty.clone() as Arc<dyn BatchTransport>)
        .unwrap();
    clipper.add_replica(&m, const_transport(1)).unwrap();

    // Healthy warm-up: both replicas serve.
    for i in 0..64u32 {
        clipper
            .predict("app", None, Arc::new(vec![i as f32]))
            .await
            .expect("healthy predict");
    }
    assert!(
        clipper.abstraction().suspect_queue_ids(&m).is_empty(),
        "no suspects while healthy"
    );

    // Black-hole the faulty replica and keep the traffic coming. Every
    // batch it receives fails; predictions fail-fill from the app default
    // (still an answer, never an error), and after enough consecutive
    // failed batches the scheduler marks the replica suspect.
    faulty.fail_hard(true);
    let mut waited = 0;
    while clipper.abstraction().suspect_queue_ids(&m).is_empty() && waited < 2_000 {
        for i in 0..16u32 {
            clipper
                .predict(
                    "app",
                    None,
                    Arc::new(vec![1_000.0 + waited as f32 + i as f32]),
                )
                .await
                .expect("predict under fault fail-fills, never errors");
        }
        waited += 1;
    }
    let suspects = clipper.abstraction().suspect_queue_ids(&m);
    assert_eq!(suspects.len(), 1, "exactly the black-holed replica");

    // Drain it gracefully: it must come out, and the healthy replica must
    // keep the model serving.
    let removed = clipper.drain_suspect_replicas(&m).await;
    assert_eq!(removed, suspects, "the suspect was removed");
    assert!(clipper.abstraction().suspect_queue_ids(&m).is_empty());

    for i in 0..32u32 {
        let p = clipper
            .predict("app", None, Arc::new(vec![5_000.0 + i as f32]))
            .await
            .expect("healthy replica keeps serving");
        assert_eq!(p.output, Output::Class(1), "real predictions resumed");
    }

    // Nothing wedged: no cache entry still waiting on the removed
    // replica's batches, no queued work left anywhere.
    assert_eq!(
        clipper.abstraction().cache().pending_len(),
        0,
        "no wedged cache waiters"
    );
    assert_eq!(clipper.abstraction().queue_depth(&m), 0);
    // A batch's in-flight count releases just after its replies settle
    // (`BatchJob`'s field order), so the last reply can beat it here.
    let released = async {
        while clipper.abstraction().inflight(&m) != 0 {
            tokio::task::yield_now().await;
        }
    };
    tokio::time::timeout(Duration::from_secs(1), released)
        .await
        .expect("in-flight count released");
}
