//! Failure-recovery bench — the predict-path robustness entry in the
//! repo's bench trajectory (`BENCH_recovery.json`).
//!
//! Exercises the three recovery layers on a two-replica fleet driven
//! straight through the model abstraction layer (no app-level default
//! output, so upstream failures stay client-visible):
//!
//! 1. **Drop arm** — one replica drops 30% of its batches
//!    ([`FaultyTransport`] → `RpcError::Injected`, retryable) behind a
//!    10 ms breaker cooldown, so routing cannot simply starve the fault:
//!    three straight drops open the breaker, the probe 10 ms later
//!    usually succeeds and traffic flows back in. (At 80% drop behind
//!    the default 500 ms cooldown, p2c and the breaker keep the replica
//!    so idle that the arm built to show retry almost never retries.)
//!    With deadline-budgeted retry on (the default), every failed query
//!    is redispatched onto the healthy sibling: **zero client-visible
//!    errors**. A control run with `retry_max_attempts: 1` shows the
//!    counterfactual: the same fault window surfaces typed
//!    `PredictError::Upstream` errors. The flaky replica's circuit
//!    breaker must also walk its full lifecycle — open under the
//!    failures, half-open after the cooldown, closed on a successful
//!    probe.
//! 2. **Straggler arm** — both replicas straggle (5% of batches +40 ms).
//!    With hedged dispatch off, the stragglers own the p99; with the
//!    hedge on, a straggling batch is raced against the sibling and the
//!    p99 collapses toward the base service time.
//!
//! Presets: 2.5 s phases, `--smoke` 1 s. Gates: every arm accounts for
//! every issued query (`ok + shed + errors == issued`); the retry-on
//! drop arm saw zero client-visible errors and retried ≥ 1000 queries
//! (smoke ≥ 50) while the retry-off control surfaced ≥ 100 errors
//! (smoke ≥ 5); the breaker completed open → half-open → closed; the
//! hedge fired; and the hedge-on p99 is at most 70% of the hedge-off p99.

use clipper_bench::harness::{Args, Op, Report};
use clipper_core::batching::{BatchStrategy, BreakerConfig, HedgeConfig};
use clipper_core::{BatchConfig, ModelAbstractionLayer, ModelId, PredictError};
use clipper_metrics::{Histogram, MetricValue, Registry};
use clipper_rpc::faulty::{FaultConfig, FaultyTransport};
use clipper_rpc::message::{PredictReply, WireOutput};
use clipper_rpc::transport::{BatchTransport, FnTransport, Input};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL: &str = "m";
const WORKERS: usize = 8;
/// Drop-arm fault: the flaky replica's drop probability, and its breaker
/// cooldown — short, so probes keep landing while the fault lasts.
const DROP_PROB: f64 = 0.3;
const DROP_ARM_COOLDOWN: Duration = Duration::from_millis(10);
const STRAGGLER_PROB: f64 = 0.05;
const STRAGGLER_DELAY: Duration = Duration::from_millis(40);

/// One closed-loop traffic run against a MAL.
#[derive(Serialize)]
struct ArmStats {
    issued: u64,
    ok: u64,
    shed: u64,
    /// Typed `PredictError::Upstream` failures — the client-visible
    /// residue the retry path exists to eliminate.
    upstream_errors: u64,
    /// Any other error (should be 0 in every arm).
    other_errors: u64,
    /// `queue/*/retried` total at the end of the run.
    retried: u64,
    /// `queue/*/hedged` total at the end of the run.
    hedged: u64,
    p50_ms: f64,
    p99_ms: f64,
}

impl ArmStats {
    /// Traffic flowed and every issued query returned exactly one outcome.
    fn accounted(&self) -> bool {
        self.issued > 0
            && self.ok + self.shed + self.upstream_errors + self.other_errors == self.issued
    }
}

#[derive(Serialize)]
struct BreakerLifecycle {
    opened: u64,
    half_opened: u64,
    closed: u64,
}

/// A clean inner replica: instant answers, tagged with its version.
fn inner_transport(name: &str) -> Arc<dyn BatchTransport> {
    Arc::new(FnTransport::new(name, |inputs: &[Input]| {
        Ok(PredictReply {
            outputs: vec![WireOutput::Class(1); inputs.len()],
            queue_us: 0,
            compute_us: 50,
        })
    }))
}

struct Arm {
    mal: Arc<ModelAbstractionLayer>,
    model: ModelId,
    /// The chaos handles, one per replica, in attach order.
    faults: Vec<Arc<FaultyTransport>>,
}

/// Build a fresh MAL with `n` [`FaultyTransport`]-wrapped replicas, all
/// starting from `base` fault models.
fn build_arm(cfg: BatchConfig, n: usize, base: &FaultConfig, seed: u64) -> Arm {
    let mal = ModelAbstractionLayer::new(4_096, Registry::new());
    let model = ModelId::new(MODEL, 1);
    mal.add_model(model.clone(), cfg);
    let faults: Vec<Arc<FaultyTransport>> = (0..n)
        .map(|r| {
            Arc::new(FaultyTransport::new(
                inner_transport(&format!("{MODEL}-r{r}")),
                base.clone(),
                seed ^ (r as u64) << 8,
            ))
        })
        .collect();
    for f in &faults {
        mal.add_replica(&model, f.clone() as Arc<dyn BatchTransport>)
            .expect("attach replica");
    }
    Arm { mal, model, faults }
}

/// Sum every `queue/*/<suffix>` counter in the registry.
fn queue_counter_sum(registry: &Registry, suffix: &str) -> u64 {
    registry
        .snapshot()
        .values
        .iter()
        .filter(|(name, _)| name.starts_with("queue/") && name.ends_with(suffix))
        .map(|(_, v)| match v {
            MetricValue::Counter { value } => *value,
            _ => 0,
        })
        .sum()
}

/// Closed-loop traffic: `WORKERS` tasks issue unique-input queries until
/// `stop_at`; every outcome is counted, every latency recorded into the
/// caller's histogram (shared so multi-phase arms accumulate one
/// distribution).
async fn drive(arm: &Arm, stop_at: Instant, hist: &Histogram) -> (u64, u64, u64, u64, u64) {
    let issued = Arc::new(AtomicU64::new(0));
    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let upstream = Arc::new(AtomicU64::new(0));
    let other = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let mut tasks = Vec::new();
    for w in 0..WORKERS {
        let mal = arm.mal.clone();
        let model = arm.model.clone();
        let hist = hist.clone();
        let (issued, ok, shed, upstream, other, done) = (
            issued.clone(),
            ok.clone(),
            shed.clone(),
            upstream.clone(),
            other.clone(),
            done.clone(),
        );
        tasks.push(tokio::spawn(async move {
            let mut seq = 0u64;
            while !done.load(Ordering::Relaxed) {
                seq += 1;
                issued.fetch_add(1, Ordering::Relaxed);
                let input: Input = Arc::new(vec![seq as f32, w as f32]);
                let t0 = Instant::now();
                match mal.predict(&model, input, false).await {
                    Ok(_) => {
                        ok.fetch_add(1, Ordering::Relaxed);
                        hist.record(t0.elapsed().as_micros() as u64);
                    }
                    Err(PredictError::Overloaded) => {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(PredictError::Upstream { .. }) => {
                        upstream.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        other.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }
    let stopper = {
        let done = done.clone();
        tokio::spawn(async move {
            tokio::time::sleep_until(stop_at.into()).await;
            done.store(true, Ordering::Relaxed);
        })
    };
    for t in tasks {
        t.await.expect("worker task");
    }
    stopper.await.expect("stopper task");
    (
        issued.load(Ordering::Relaxed),
        ok.load(Ordering::Relaxed),
        shed.load(Ordering::Relaxed),
        upstream.load(Ordering::Relaxed),
        other.load(Ordering::Relaxed),
    )
}

fn stats_from(run: (u64, u64, u64, u64, u64), hist: &Histogram, registry: &Registry) -> ArmStats {
    let (issued, ok, shed, upstream_errors, other_errors) = run;
    let snap = hist.snapshot();
    ArmStats {
        issued,
        ok,
        shed,
        upstream_errors,
        other_errors,
        retried: queue_counter_sum(registry, "/retried"),
        hedged: queue_counter_sum(registry, "/hedged"),
        p50_ms: snap.p50() as f64 / 1_000.0,
        p99_ms: snap.p99() as f64 / 1_000.0,
    }
}

/// The drop arm: replica 0 drops [`DROP_PROB`] of its batches for
/// `phase`, then heals; traffic continues for another `phase` (past the
/// breaker cooldown) so the breaker can complete its lifecycle.
async fn run_drop_arm(retry: bool, phase: Duration) -> (ArmStats, BreakerLifecycle) {
    let cfg = BatchConfig {
        strategy: BatchStrategy::Fixed { size: 1 },
        slo: Duration::from_millis(100),
        retry_max_attempts: if retry { 3 } else { 1 },
        breaker: BreakerConfig {
            cooldown: DROP_ARM_COOLDOWN,
        },
        ..BatchConfig::default()
    };
    let arm = build_arm(cfg, 2, &FaultConfig::default(), 0xD20F);
    arm.faults[0].set_config(FaultConfig {
        drop_prob: DROP_PROB,
        ..FaultConfig::default()
    });
    let hist = Histogram::new();
    let faulty = drive(&arm, Instant::now() + phase, &hist).await;
    arm.faults[0].set_config(FaultConfig::default());
    let healed = drive(&arm, Instant::now() + phase, &hist).await;
    let merged = (
        faulty.0 + healed.0,
        faulty.1 + healed.1,
        faulty.2 + healed.2,
        faulty.3 + healed.3,
        faulty.4 + healed.4,
    );
    let registry = arm.mal.registry();
    let breaker = BreakerLifecycle {
        opened: queue_counter_sum(registry, "/breaker_opened"),
        half_opened: queue_counter_sum(registry, "/breaker_half_open"),
        closed: queue_counter_sum(registry, "/breaker_closed"),
    };
    (stats_from(merged, &hist, registry), breaker)
}

/// The straggler arm: both replicas add [`STRAGGLER_DELAY`] to 5% of
/// batches over a ~1 ms base service time. With the hedge on, a
/// straggling batch races a redispatch to the sibling after ~3× the
/// predicted latency.
async fn run_straggler_arm(hedge: Option<HedgeConfig>, phase: Duration) -> ArmStats {
    let cfg = BatchConfig {
        strategy: BatchStrategy::Fixed { size: 1 },
        slo: Duration::from_millis(200),
        hedge,
        ..BatchConfig::default()
    };
    let base = FaultConfig {
        base_delay: Duration::from_millis(1),
        straggler_prob: STRAGGLER_PROB,
        straggler_delay: STRAGGLER_DELAY,
        ..FaultConfig::default()
    };
    let arm = build_arm(cfg, 2, &base, 0x57A6);
    let hist = Histogram::new();
    let run = drive(&arm, Instant::now() + phase, &hist).await;
    stats_from(run, &hist, arm.mal.registry())
}

#[tokio::main(flavor = "multi_thread", worker_threads = 4)]
async fn main() {
    let args = Args::parse("recovery");
    // The healed half of the drop arm must outlast the breaker cooldown
    // with room for a probe, or the lifecycle can't complete.
    let phase = Duration::from_secs_f64(if args.smoke { 1.0 } else { 2.5 });
    let (min_retried, min_control_errors) = if args.smoke {
        (50.0, 5.0)
    } else {
        (1_000.0, 100.0)
    };
    let mut report = Report::new(&args, "recovery");
    report.param("phase_seconds", phase.as_secs_f64());
    report.param("replicas", 2u64);
    report.param("workers", WORKERS);
    report.param("drop_prob", DROP_PROB);
    report.param("drop_arm_cooldown_ms", DROP_ARM_COOLDOWN.as_millis() as u64);
    report.param("drop_prob_until_pr19", 0.8);
    report.param("drop_arm_cooldown_ms_until_pr19", 500u64);
    report.param("straggler_prob", STRAGGLER_PROB);
    report.param("straggler_delay_ms", STRAGGLER_DELAY.as_millis() as u64);

    println!(
        "drop arm: replica 0 drops {:.0}% of batches…",
        DROP_PROB * 100.0
    );
    let (retry_on, breaker) = run_drop_arm(true, phase).await;
    println!(
        "  retry on : issued {} ok {} upstream {} retried {} (breaker o/h/c {}/{}/{})",
        retry_on.issued,
        retry_on.ok,
        retry_on.upstream_errors,
        retry_on.retried,
        breaker.opened,
        breaker.half_opened,
        breaker.closed
    );
    let (retry_off, _) = run_drop_arm(false, phase).await;
    println!(
        "  retry off: issued {} ok {} upstream {} (the counterfactual)",
        retry_off.issued, retry_off.ok, retry_off.upstream_errors
    );

    println!(
        "straggler arm: {:.0}% of batches +{STRAGGLER_DELAY:?}…",
        STRAGGLER_PROB * 100.0
    );
    let hedge_off = run_straggler_arm(None, phase).await;
    let hedge_on = run_straggler_arm(Some(HedgeConfig::default()), phase).await;
    println!(
        "  hedge off: p50 {:.1}ms p99 {:.1}ms\n  hedge on : p50 {:.1}ms p99 {:.1}ms (hedged {})",
        hedge_off.p50_ms, hedge_off.p99_ms, hedge_on.p50_ms, hedge_on.p99_ms, hedge_on.hedged
    );

    for (name, arm) in [
        ("retry_on", &retry_on),
        ("retry_off", &retry_off),
        ("hedge_off", &hedge_off),
        ("hedge_on", &hedge_on),
    ] {
        report.row(name, arm);
        report.gate_true(&format!("{name}.accounted"), arm.accounted());
    }
    report.row("breaker", &breaker);

    let client_errors = retry_on.upstream_errors + retry_on.other_errors;
    report.gate(
        "retry_on.client_errors",
        client_errors as f64,
        Op::Equals,
        0.0,
    );
    report.gate(
        "retry_on.retried",
        retry_on.retried as f64,
        Op::AtLeast,
        min_retried,
    );
    report.gate(
        "retry_off.upstream_errors",
        retry_off.upstream_errors as f64,
        Op::AtLeast,
        min_control_errors,
    );
    let lifecycle = breaker.opened.min(breaker.half_opened).min(breaker.closed);
    report.gate(
        "breaker.min_transition_count",
        lifecycle as f64,
        Op::AtLeast,
        1.0,
    );
    report.gate("hedge_on.hedged", hedge_on.hedged as f64, Op::AtLeast, 1.0);
    report.gate(
        "hedge_on.p99_ms",
        hedge_on.p99_ms,
        Op::AtMost,
        hedge_off.p99_ms * 0.7,
    );
    report.finish()
}
