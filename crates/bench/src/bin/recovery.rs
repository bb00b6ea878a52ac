//! Failure-recovery bench — the predict-path robustness entry in the
//! repo's bench trajectory (`BENCH_recovery.json`).
//!
//! Exercises the three recovery layers on a two-replica fleet driven
//! straight through the model abstraction layer (no app-level default
//! output, so upstream failures stay client-visible):
//!
//! 1. **Drop arm** — one replica drops 80% of its batches
//!    ([`FaultyTransport`] → `RpcError::Injected`, retryable). With
//!    deadline-budgeted retry on (the default), every failed query is
//!    redispatched onto the healthy sibling: **zero client-visible
//!    errors**. A control run with `retry_max_attempts: 1` shows the
//!    counterfactual: the same fault window surfaces typed
//!    `PredictError::Upstream` errors. The flaky replica's circuit
//!    breaker must also walk its full lifecycle — open under the error
//!    rate, half-open after the cooldown once the fault lifts, closed on
//!    a successful probe.
//! 2. **Straggler arm** — both replicas straggle (5% of batches +40 ms).
//!    With hedged dispatch off, the stragglers own the p99; with the
//!    hedge on, a straggling batch is raced against the sibling and the
//!    p99 collapses toward the base service time.
//!
//! Every arm is zero-loss: each issued query returns exactly one
//! outcome, and `ok + shed + errors == issued` is self-validated from
//! the emitted JSON.
//!
//! Flags: `--smoke` (short phases for CI), `--out <path>` (default
//! `BENCH_recovery.json`). `CLIPPER_BENCH_SECONDS` stretches the phase
//! length. With `RECOVERY_ENFORCE=1` the binary exits non-zero unless:
//! the retry-on drop arm saw zero client-visible errors while the
//! retry-off control saw some, retries actually fired, the breaker
//! completed open → half-open → closed, the hedge fired, and the
//! hedge-on p99 undercuts the hedge-off p99 by at least 30%.

use clipper_core::batching::{BatchStrategy, HedgeConfig};
use clipper_core::{BatchConfig, ModelAbstractionLayer, ModelId, PredictError};
use clipper_metrics::{Histogram, MetricValue, Registry};
use clipper_rpc::faulty::{FaultConfig, FaultyTransport};
use clipper_rpc::message::{PredictReply, WireOutput};
use clipper_rpc::transport::{BatchTransport, FnTransport, Input};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL: &str = "m";
const WORKERS: usize = 8;

/// One closed-loop traffic run against a MAL.
#[derive(Clone, Serialize, Deserialize)]
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
    fn accounted(&self) -> bool {
        self.ok + self.shed + self.upstream_errors + self.other_errors == self.issued
    }
}

#[derive(Clone, Serialize, Deserialize)]
struct BreakerLifecycle {
    opened: u64,
    half_opened: u64,
    closed: u64,
}

#[derive(Serialize, Deserialize)]
struct Report {
    bench: String,
    cores: usize,
    phase_seconds: f64,
    drop_prob: f64,
    straggler_prob: f64,
    straggler_delay_ms: u64,
    retry_on: ArmStats,
    retry_off: ArmStats,
    /// Breaker transition counters observed on the retry-on drop arm
    /// (fault window + recovery traffic past the cooldown).
    breaker: BreakerLifecycle,
    hedge_off: ArmStats,
    hedge_on: ArmStats,
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

/// The drop arm: replica 0 drops `drop_prob` of its batches for
/// `phase`, then heals; traffic continues for another `phase` (past the
/// breaker cooldown) so the breaker can complete its lifecycle.
async fn run_drop_arm(
    retry: bool,
    drop_prob: f64,
    phase: Duration,
) -> (ArmStats, BreakerLifecycle) {
    let cfg = BatchConfig {
        strategy: BatchStrategy::Fixed { size: 1 },
        slo: Duration::from_millis(100),
        retry_max_attempts: if retry { 3 } else { 1 },
        ..BatchConfig::default()
    };
    let arm = build_arm(cfg, 2, &FaultConfig::default(), 0xD20F);
    arm.faults[0].set_config(FaultConfig {
        drop_prob,
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

/// The straggler arm: both replicas add +`delay` to 5% of batches over a
/// ~1 ms base service time. With the hedge on, a straggling batch races
/// a redispatch to the sibling after ~3× the predicted latency.
async fn run_straggler_arm(
    hedge: Option<HedgeConfig>,
    straggler_prob: f64,
    delay: Duration,
    phase: Duration,
) -> ArmStats {
    let cfg = BatchConfig {
        strategy: BatchStrategy::Fixed { size: 1 },
        slo: Duration::from_millis(200),
        hedge,
        ..BatchConfig::default()
    };
    let base = FaultConfig {
        base_delay: Duration::from_millis(1),
        straggler_prob,
        straggler_delay: delay,
        ..FaultConfig::default()
    };
    let arm = build_arm(cfg, 2, &base, 0x57A6);
    let hist = Histogram::new();
    let run = drive(&arm, Instant::now() + phase, &hist).await;
    stats_from(run, &hist, arm.mal.registry())
}

#[tokio::main(flavor = "multi_thread", worker_threads = 4)]
async fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut smoke = false;
    let mut out_path = "BENCH_recovery.json".to_string();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            other => panic!("unknown flag {other:?} (see --smoke/--out)"),
        }
        i += 1;
    }
    let phase: f64 = std::env::var("CLIPPER_BENCH_SECONDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 1.0 } else { 2.5 });
    // The healed half of the drop arm must outlast the breaker cooldown
    // (500 ms) with room for a probe, or the lifecycle can't complete.
    let phase = Duration::from_secs_f64(phase.clamp(0.8, 30.0));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let drop_prob = 0.8;
    let straggler_prob = 0.05;
    let straggler_delay = Duration::from_millis(40);
    println!(
        "== recovery: 2 replicas, {WORKERS} workers, {:.1}s phases, {cores} cores ==\n",
        phase.as_secs_f64()
    );

    println!(
        "drop arm: replica 0 drops {:.0}% of batches…",
        drop_prob * 100.0
    );
    let (retry_on, breaker) = run_drop_arm(true, drop_prob, phase).await;
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
    let (retry_off, _) = run_drop_arm(false, drop_prob, phase).await;
    println!(
        "  retry off: issued {} ok {} upstream {} (the counterfactual)",
        retry_off.issued, retry_off.ok, retry_off.upstream_errors
    );

    println!(
        "straggler arm: {:.0}% of batches +{straggler_delay:?}…",
        straggler_prob * 100.0
    );
    let hedge_off = run_straggler_arm(None, straggler_prob, straggler_delay, phase).await;
    let hedge_on = run_straggler_arm(
        Some(HedgeConfig::default()),
        straggler_prob,
        straggler_delay,
        phase,
    )
    .await;
    println!(
        "  hedge off: p50 {:.1}ms p99 {:.1}ms\n  hedge on : p50 {:.1}ms p99 {:.1}ms (hedged {})",
        hedge_off.p50_ms, hedge_off.p99_ms, hedge_on.p50_ms, hedge_on.p99_ms, hedge_on.hedged
    );

    let out = Report {
        bench: "recovery".into(),
        cores,
        phase_seconds: phase.as_secs_f64(),
        drop_prob,
        straggler_prob,
        straggler_delay_ms: straggler_delay.as_millis() as u64,
        retry_on,
        retry_off,
        breaker,
        hedge_off,
        hedge_on,
    };
    println!(
        "\nretry-on errors {} · retry-off errors {} · retried {} · hedged {} · p99 {:.1}→{:.1}ms",
        out.retry_on.upstream_errors + out.retry_on.other_errors,
        out.retry_off.upstream_errors + out.retry_off.other_errors,
        out.retry_on.retried,
        out.hedge_on.hedged,
        out.hedge_off.p99_ms,
        out.hedge_on.p99_ms
    );

    let json = serde_json::to_string(&out).expect("serialize report");
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");

    // Self-validation: the emitted file must parse back and every arm
    // must account for every issued query — the zero-loss invariant.
    let parsed: Report = serde_json::from_str(&std::fs::read_to_string(&out_path).expect("reread"))
        .expect("emitted JSON must parse back into the report schema");
    for (name, arm) in [
        ("retry_on", &parsed.retry_on),
        ("retry_off", &parsed.retry_off),
        ("hedge_off", &parsed.hedge_off),
        ("hedge_on", &parsed.hedge_on),
    ] {
        assert!(arm.issued > 0, "malformed report: {name} saw no traffic");
        assert!(
            arm.accounted(),
            "malformed report: {name} lost queries ({} issued, {} accounted)",
            arm.issued,
            arm.ok + arm.shed + arm.upstream_errors + arm.other_errors
        );
    }

    if std::env::var("RECOVERY_ENFORCE").as_deref() == Ok("1") {
        let mut ok = true;
        if out.retry_on.upstream_errors + out.retry_on.other_errors > 0 {
            eprintln!(
                "FAIL: retry-on drop arm surfaced {} client-visible errors (want 0)",
                out.retry_on.upstream_errors + out.retry_on.other_errors
            );
            ok = false;
        }
        if out.retry_on.retried == 0 {
            eprintln!("FAIL: drop arm never exercised the retry path");
            ok = false;
        }
        if out.retry_off.upstream_errors == 0 {
            eprintln!("FAIL: retry-off control saw no errors — the fault window is inert");
            ok = false;
        }
        if out.breaker.opened == 0 || out.breaker.half_opened == 0 || out.breaker.closed == 0 {
            eprintln!(
                "FAIL: breaker lifecycle incomplete (opened {} half-open {} closed {})",
                out.breaker.opened, out.breaker.half_opened, out.breaker.closed
            );
            ok = false;
        }
        if out.hedge_on.hedged == 0 {
            eprintln!("FAIL: straggler arm never fired a hedge");
            ok = false;
        }
        if out.hedge_on.p99_ms >= out.hedge_off.p99_ms * 0.7 {
            eprintln!(
                "FAIL: hedged p99 {:.1}ms not under 70% of unhedged {:.1}ms",
                out.hedge_on.p99_ms, out.hedge_off.p99_ms
            );
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "enforce: ok (retry-on clean vs control {} errors, breaker cycled, hedged p99 {:.1}ms < {:.1}ms)",
            out.retry_off.upstream_errors, out.hedge_on.p99_ms, out.hedge_off.p99_ms
        );
    }
}
