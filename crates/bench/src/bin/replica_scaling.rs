//! Replica-scaling benchmark — the scheduler entry in the repo's bench
//! trajectory (`BENCH_replica_scaling.json`).
//!
//! Drives the model abstraction layer open-loop against 1/2/4 simulated
//! replicas, homogeneous and heterogeneous (one replica 10× slower per
//! query), under both scheduler policies:
//!
//! - `rr` — blind round-robin (the pre-scheduler baseline);
//! - `p2c` — depth-aware power-of-two-choices over each replica's
//!   latency-model estimate of its occupancy (raw occupancy while the
//!   model is cold), with fall-through to any replica with room.
//!
//! Replicas are async-sleep transports (a batch of `n` costs
//! `n × per_item`), so the benchmark measures *scheduling*, not model
//! compute, and runs faithfully on a single-core container. Offered load
//! is ~70% of the pool's aggregate homogeneous service capacity, which
//! makes the heterogeneous round-robin rows overload their slow replica —
//! exactly the regime the scheduler exists for.
//!
//! Presets: 2 s phases, `--smoke` 0.8 s. Gates: every run made
//! progress; the heterogeneous 2-replica comparison shows p2c with lower
//! p99 and no more sheds than round-robin; and the §4.4.1 autotuned arm
//! beats the untuned one on p99 and SLO-violation rate, loses nothing,
//! and learns a batch ceiling for the slow replica below the fast one's.

use clipper_bench::harness::{Args, Op, Report};
use clipper_core::abstraction::{ModelAbstractionLayer, SchedulerPolicy};
use clipper_core::batching::QueueConfig;
use clipper_core::{BatchStrategy, Input, ModelId, PredictError};
use clipper_metrics::Registry;
use clipper_rpc::message::{PredictReply, WireOutput};
use clipper_rpc::transport::BatchTransport;
use clipper_workload::{run_open_loop_outcomes, ArrivalProcess, RequestOutcome, Table};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fast replica service time per query.
const FAST_US_PER_ITEM: u64 = 500;
/// Heterogeneity factor: the slow replica is 10× slower.
const SLOW_FACTOR: u32 = 10;
/// Offered load as a fraction of aggregate homogeneous capacity.
const LOAD_FRACTION: f64 = 0.7;
/// Queue capacity per replica — small enough that an overloaded replica
/// visibly sheds within a short phase.
const QUEUE_CAPACITY: usize = 64;
/// SLO for the §4.4.1 autotune A/B arm.
const AUTOTUNE_SLO_MS: u64 = 50;
/// Offered load for the A/B arm, as a fraction of aggregate capacity —
/// the same regime as the heterogeneous headline rows: a blind 1/R share
/// overloads the slow replica.
const AUTOTUNE_LOAD_FRACTION: f64 = 0.7;

#[derive(Serialize)]
struct RunResult {
    replicas: usize,
    mix: String,
    policy: String,
    offered_qps: f64,
    throughput: f64,
    p50_ms: f64,
    p99_ms: f64,
    shed: u64,
    errors: u64,
    /// Fraction of served queries handled by replica 0 (the slow one in
    /// heterogeneous rows).
    replica0_share: f64,
}

/// One arm of the §4.4.1 A/B: the same heterogeneous fleet under p2c at
/// elevated load, with continuous per-replica batch autotuning + SLO-aware
/// admission either on or off.
#[derive(Serialize)]
struct AutotuneArm {
    autotune: bool,
    offered_qps: f64,
    throughput: f64,
    p50_ms: f64,
    p99_ms: f64,
    shed: u64,
    lost: u64,
    errors: u64,
    /// Answered requests that came back later than the SLO. A shed is an
    /// honest, immediate 429 — not a violation.
    slo_violations: u64,
    /// `slo_violations` over all answered requests (completed + shed).
    slo_violation_rate: f64,
    /// Sheds decided up front by SLO-aware admission (subset of `shed`).
    admission_shed: u64,
    /// Learned batch ceiling of the slow replica (0 = never established).
    b_max_slow: usize,
    /// Learned batch ceiling of the fast replica (0 = never established).
    b_max_fast: usize,
}

struct SimReplica {
    per_item: Duration,
    served: Arc<AtomicU64>,
}

impl BatchTransport for SimReplica {
    fn predict_batch(
        &self,
        inputs: &[Input],
    ) -> clipper_rpc::BoxFuture<Result<PredictReply, clipper_rpc::RpcError>> {
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

fn policy_name(p: SchedulerPolicy) -> &'static str {
    match p {
        SchedulerPolicy::RoundRobin => "rr",
        SchedulerPolicy::PowerOfTwoChoices => "p2c",
    }
}

async fn run_once(
    replicas: usize,
    heterogeneous: bool,
    policy: SchedulerPolicy,
    phase: Duration,
) -> RunResult {
    let mal = ModelAbstractionLayer::new(16, Registry::new());
    let m = ModelId::new("bench", 1);
    mal.add_model(
        m.clone(),
        QueueConfig {
            strategy: BatchStrategy::Fixed { size: 64 },
            queue_capacity: QUEUE_CAPACITY,
            pipeline_depth: 1,
            scheduler: policy,
            ..Default::default()
        },
    );
    let mut counters = Vec::new();
    for r in 0..replicas {
        let per_item = if heterogeneous && r == 0 {
            Duration::from_micros(FAST_US_PER_ITEM * SLOW_FACTOR as u64)
        } else {
            Duration::from_micros(FAST_US_PER_ITEM)
        };
        let served = Arc::new(AtomicU64::new(0));
        counters.push(served.clone());
        mal.add_replica(&m, Arc::new(SimReplica { per_item, served }))
            .unwrap();
    }

    // Offered load is a fraction of the pool's *actual* aggregate
    // capacity, so the pool always has slack — but a blind 1/R share
    // still overloads the slow replica (its fair share exceeds its own
    // capacity), which is exactly the regime the scheduler exists for.
    let fast_capacity = 1_000_000.0 / FAST_US_PER_ITEM as f64;
    let aggregate_capacity = if heterogeneous {
        fast_capacity * (replicas - 1) as f64 + fast_capacity / SLOW_FACTOR as f64
    } else {
        fast_capacity * replicas as f64
    };
    let offered_qps = LOAD_FRACTION * aggregate_capacity;

    let mal2 = mal.clone();
    let m2 = m.clone();
    let report = run_open_loop_outcomes(
        ArrivalProcess::Uniform { rate: offered_qps },
        phase,
        11,
        move |seq| {
            let mal = mal2.clone();
            let m = m2.clone();
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

    let served_total: u64 = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    RunResult {
        replicas,
        mix: if heterogeneous {
            "heterogeneous".to_string()
        } else {
            "homogeneous".to_string()
        },
        policy: policy_name(policy).to_string(),
        offered_qps,
        throughput: report.throughput(),
        p50_ms: report.latency.p50() as f64 / 1_000.0,
        p99_ms: report.p99_ms(),
        shed: report.shed,
        errors: report.errors,
        replica0_share: if served_total == 0 {
            0.0
        } else {
            counters[0].load(Ordering::Relaxed) as f64 / served_total as f64
        },
    }
}

/// One §4.4.1 A/B arm: heterogeneous 2-replica fleet (replica 0 is the
/// 10× slow one) under **blind round-robin** with Poisson arrivals at
/// `AUTOTUNE_LOAD_FRACTION` of aggregate capacity. Round-robin isolates
/// what the tentpole adds — depth-aware p2c already routes around the
/// slow replica and masks the batching pathology (the headline rows
/// cover that). With `autotune` off the fleet runs Fixed(64) batching
/// and no admission: the slow replica accumulates oversized batches
/// (64 × 5ms = 320ms service) and blows the SLO for everything it
/// serves. With it on, each replica's online latency model re-derives
/// its own ceiling continuously and SLO-aware admission routes around —
/// or honestly sheds — queries that could not meet the deadline.
async fn run_autotune_arm(autotune: bool, phase: Duration) -> AutotuneArm {
    let mal = ModelAbstractionLayer::new(16, Registry::new());
    let m = ModelId::new("bench", 1);
    let slo = Duration::from_millis(AUTOTUNE_SLO_MS);
    let base = QueueConfig {
        slo,
        queue_capacity: QUEUE_CAPACITY,
        max_batch_cap: 64,
        pipeline_depth: 1,
        ..Default::default()
    };
    let cfg = if autotune {
        QueueConfig {
            strategy: BatchStrategy::Autotune { headroom: 0.1 },
            slo_admission: true,
            ..base
        }
    } else {
        QueueConfig {
            strategy: BatchStrategy::Fixed { size: 64 },
            ..base
        }
    };
    mal.add_model(
        m.clone(),
        QueueConfig {
            scheduler: SchedulerPolicy::RoundRobin,
            ..cfg
        },
    );
    for r in 0..2usize {
        let per_item = if r == 0 {
            Duration::from_micros(FAST_US_PER_ITEM * SLOW_FACTOR as u64)
        } else {
            Duration::from_micros(FAST_US_PER_ITEM)
        };
        let served = Arc::new(AtomicU64::new(0));
        mal.add_replica(&m, Arc::new(SimReplica { per_item, served }))
            .unwrap();
    }

    let fast_capacity = 1_000_000.0 / FAST_US_PER_ITEM as f64;
    let offered_qps = AUTOTUNE_LOAD_FRACTION * (fast_capacity + fast_capacity / SLOW_FACTOR as f64);

    let violations = Arc::new(AtomicU64::new(0));
    let drive = |count: bool| {
        let mal = mal.clone();
        let m = m.clone();
        let violations = violations.clone();
        move |seq: u64| {
            let mal = mal.clone();
            let m = m.clone();
            let violations = violations.clone();
            async move {
                let t0 = Instant::now();
                match mal.predict(&m, Arc::new(vec![seq as f32]), false).await {
                    Ok(_) => {
                        if count && t0.elapsed() > slo {
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                        RequestOutcome::Ok
                    }
                    Err(PredictError::Overloaded) => RequestOutcome::Shed,
                    // Anything that vanished without an honest answer.
                    Err(_) => RequestOutcome::Lost,
                }
            }
        }
    };

    // Unmeasured warmup, identical for both arms: lets the online models
    // establish and the fleet reach its steady state — the A/B compares
    // sustained behavior, not cold-start transients.
    let _ = run_open_loop_outcomes(
        ArrivalProcess::Poisson { rate: offered_qps },
        phase / 2,
        29,
        drive(false),
    )
    .await;
    let report = run_open_loop_outcomes(
        ArrivalProcess::Poisson { rate: offered_qps },
        phase,
        23,
        drive(true),
    )
    .await;

    // Each replica's ceiling, as its queue exports it.
    let b_max_of = |qid: &str| {
        let ceiling = mal.registry().gauge(&format!("queue/{qid}/max_batch"));
        ceiling.get().max(0) as usize
    };
    let slo_violations = violations.load(Ordering::Relaxed);
    let answered = report.completed + report.shed;
    AutotuneArm {
        autotune,
        offered_qps,
        throughput: report.throughput(),
        p50_ms: report.latency.p50() as f64 / 1_000.0,
        p99_ms: report.p99_ms(),
        shed: report.shed,
        lost: report.lost,
        errors: report.errors,
        slo_violations,
        slo_violation_rate: if answered == 0 {
            0.0
        } else {
            slo_violations as f64 / answered as f64
        },
        admission_shed: mal.admission_shed_count(&m),
        b_max_slow: b_max_of("bench:v1:0"),
        b_max_fast: b_max_of("bench:v1:1"),
    }
}

fn find<'a>(results: &'a [RunResult], replicas: usize, mix: &str, policy: &str) -> &'a RunResult {
    results
        .iter()
        .find(|r| r.replicas == replicas && r.mix == mix && r.policy == policy)
        .expect("scenario present")
}

#[tokio::main(flavor = "multi_thread", worker_threads = 4)]
async fn main() {
    let args = Args::parse("replica_scaling");
    let phase = Duration::from_secs_f64(if args.smoke { 0.8 } else { 2.0 });
    let mut report = Report::new(&args, "replica_scaling");
    report.param("fast_us_per_item", FAST_US_PER_ITEM);
    report.param("slow_factor", SLOW_FACTOR);
    report.param("load_fraction", LOAD_FRACTION);
    report.param("queue_capacity", QUEUE_CAPACITY);
    report.param("phase_seconds", phase.as_secs_f64());
    report.param("autotune_slo_ms", AUTOTUNE_SLO_MS);
    report.param("autotune_load_fraction", AUTOTUNE_LOAD_FRACTION);

    let mut table = Table::new(&[
        "replicas",
        "mix",
        "policy",
        "offered qps",
        "throughput",
        "p99 (ms)",
        "shed",
        "slow-replica share",
    ]);
    let mut results = Vec::new();
    for &replicas in &[1usize, 2, 4] {
        for heterogeneous in [false, true] {
            if heterogeneous && replicas < 2 {
                continue; // heterogeneity needs a sibling
            }
            for policy in [
                SchedulerPolicy::RoundRobin,
                SchedulerPolicy::PowerOfTwoChoices,
            ] {
                let r = run_once(replicas, heterogeneous, policy, phase).await;
                table.row(&[
                    format!("{}", r.replicas),
                    r.mix.clone(),
                    r.policy.clone(),
                    format!("{:.0}", r.offered_qps),
                    format!("{:.0}", r.throughput),
                    format!("{:.1}", r.p99_ms),
                    format!("{}", r.shed),
                    format!("{:.0}%", r.replica0_share * 100.0),
                ]);
                results.push(r);
            }
        }
    }
    table.print();

    let rr = find(&results, 2, "heterogeneous", "rr");
    let p2c = find(&results, 2, "heterogeneous", "p2c");
    println!(
        "\nheterogeneous 1 fast + 1 slow (10×): p99 rr {:.1}ms vs p2c {:.1}ms · sheds rr {} vs p2c {}",
        rr.p99_ms, p2c.p99_ms, rr.shed, p2c.shed
    );

    println!(
        "\n== §4.4.1 A/B: per-replica autotune + SLO admission, hetero fleet @ {:.0}% load, slo {}ms ==\n",
        AUTOTUNE_LOAD_FRACTION * 100.0,
        AUTOTUNE_SLO_MS
    );
    let off = run_autotune_arm(false, phase).await;
    let on = run_autotune_arm(true, phase).await;
    let mut ab = Table::new(&[
        "autotune",
        "throughput",
        "p99 (ms)",
        "slo-violation rate",
        "shed",
        "lost",
        "b_max slow/fast",
    ]);
    for arm in [&off, &on] {
        ab.row(&[
            if arm.autotune { "on" } else { "off" }.to_string(),
            format!("{:.0}", arm.throughput),
            format!("{:.1}", arm.p99_ms),
            format!("{:.1}%", arm.slo_violation_rate * 100.0),
            format!("{}", arm.shed),
            format!("{}", arm.lost),
            format!("{}/{}", arm.b_max_slow, arm.b_max_fast),
        ]);
    }
    ab.print();

    for r in &results {
        report.row("run", r);
    }
    report.row("autotune_off", &off);
    report.row("autotune_on", &on);

    let slowest = results
        .iter()
        .map(|r| r.throughput)
        .chain([off.throughput, on.throughput])
        .fold(f64::MAX, f64::min);
    report.gate("min_throughput", slowest, Op::AtLeast, 1.0);
    // With 1 fast + 1 slow replica, depth-aware p2c must yield a lower
    // p99 and no more sheds than round-robin.
    report.gate("hetero_p2c.p99_ms", p2c.p99_ms, Op::AtMost, rr.p99_ms);
    report.gate(
        "hetero_p2c.shed",
        p2c.shed as f64,
        Op::AtMost,
        rr.shed as f64,
    );
    // §4.4.1: the autotuned arm must beat the untuned one on p99 and
    // SLO-violation rate, answer every request it accepts (zero lost),
    // and the slow replica's learned ceiling must come out below the
    // fast one's.
    report.gate("autotune_on.p99_ms", on.p99_ms, Op::AtMost, off.p99_ms);
    report.gate(
        "autotune_on.slo_violation_rate",
        on.slo_violation_rate,
        Op::AtMost,
        off.slo_violation_rate,
    );
    report.gate("autotune_on.lost", on.lost as f64, Op::Equals, 0.0);
    let ordered = 0 < on.b_max_slow && on.b_max_slow < on.b_max_fast;
    report.gate_true("autotune_on.b_max_slow_below_fast", ordered);
    report.finish()
}
