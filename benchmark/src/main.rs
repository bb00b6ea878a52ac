//! The repo's benchmark. See README.md beside Cargo.toml, and
//! BENCHMARK.json at the root of the repo for the contract it runs under.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//! benchmark [--seed N] [--seconds S]        every workload, both passes
//! ```
//!
//! One invocation with `--workload` is one process, one workload, one
//! pass: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. It prints every metric as `workload metric value unit`
//! and, as its last line, one JSON object with the verdict.

mod driver;
mod gen;
mod probes;
mod stack;
mod stats;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use driver::{EnsembleCaller, HttpConn, Ids, Oracle, SegLog, Until};
use gen::Rng;
use stack::Stack;
use stats::{lower_median, percentile, quiet_high, quiet_low};
use trace::now_ns;
use workload::{Driver, Workload, APP, SEGMENT, SETUP_REPS};

/// End-to-end metrics, reported with `--trace 0` for every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("goodput_qps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("slo_ok_share", "share"),
    ("accuracy", "share"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics, reported with `--trace 1` for every workload. A
/// layer a workload does not cross reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.self_us_p50", "us"),
    ("clipper.pre_us_p50", "us"),
    ("clipper.reply_us_p50", "us"),
    ("batching.queue_wait_us_p50", "us"),
    ("batching.queue_wait_us_p99", "us"),
    ("batching.batch_size_mean", "count"),
    ("batching.batches_per_s", "1/s"),
    ("rpc.self_us_p50", "us"),
    ("rpc.self_us_p99", "us"),
    ("containers.compute_us_p50", "us"),
    ("abstraction.slow_share", "share"),
    ("cache.hit_share", "share"),
    ("cache.evictions_per_s", "1/s"),
    ("feedback.p50_us", "us"),
    ("feedback.p99_us", "us"),
    ("cpu.workers_us_per_op", "us"),
    ("cpu.blocking_us_per_op", "us"),
    ("cpu.generator_us_per_op", "us"),
    ("generator.late_us_p99", "us"),
    ("box.stall_ms_total", "ms"),
    ("e2e.tail_ms", "ms"),
    ("e2e.tail_quantile", "share"),
    ("trace.overhead_share", "share"),
    ("trace.residual_share", "share"),
    ("selection.select_ns", "ns"),
    ("selection.combine_ns", "ns"),
    ("selection.observe_ns", "ns"),
    ("cache.key_ns", "ns"),
    ("cache.fetch_hit_ns", "ns"),
    ("cache.fetch_miss_ns", "ns"),
    ("cache.fill_evict_ns", "ns"),
    ("rpc.encode_ns_b1", "ns"),
    ("rpc.decode_ns_b1", "ns"),
    ("rpc.encode_ns_b64", "ns"),
    ("rpc.decode_ns_b64", "ns"),
    ("rpc.rtt_us_b1", "us"),
    ("runtime.wake_us", "us"),
    ("runtime.tcp_echo_us", "us"),
    ("runtime.timer_lag_us", "us"),
    ("metrics.record_ns", "ns"),
];

/// A stalled box is reported when the stalls add up to more than this
/// share of the measured time.
const STALL_FLAG_SHARE: f64 = 0.02;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = Some(number()?.clamp(1, 60)),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Read `BENCHMARK.json` from the working directory and check that it
/// names exactly the workloads and metrics this binary produces, with
/// the same units. Returns its `run_seconds`.
fn check_manifest() -> Result<u64, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the root of the repo)"))?;
    let manifest: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    // Every entry as "name" or "name [unit]", in the file's order.
    let listed = |key: &str, unit: bool| -> Result<Vec<String>, String> {
        let list = manifest[key]
            .as_array()
            .ok_or(format!("BENCHMARK.json: no list {key}"))?;
        list.iter()
            .map(|e| match (e["name"].as_str(), e["unit"].as_str()) {
                (Some(name), Some(u)) if unit => Ok(format!("{name} [{u}]")),
                (Some(name), _) if !unit => Ok(name.to_string()),
                _ => Err(format!(
                    "BENCHMARK.json: an entry of {key} lacks name or unit"
                )),
            })
            .collect()
    };
    let ours = |metrics: &[(&str, &str)]| -> Vec<String> {
        metrics
            .iter()
            .map(|(name, unit)| format!("{name} [{unit}]"))
            .collect()
    };
    let workloads: Vec<String> = workload::all().iter().map(|w| w.name.to_string()).collect();
    for (what, theirs, ours) in [
        ("workloads", listed("workloads", false)?, workloads),
        ("end_to_end", listed("end_to_end", true)?, ours(END_TO_END)),
        ("per_layer", listed("per_layer", true)?, ours(PER_LAYER)),
    ] {
        if theirs != ours {
            return Err(format!(
                "BENCHMARK.json {what} {theirs:?} differ from the binary's {ours:?}"
            ));
        }
    }
    manifest["run_seconds"]
        .as_u64()
        .ok_or("BENCHMARK.json: no run_seconds".to_string())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let run_seconds = check_manifest()?;
        let seconds = args.seconds.unwrap_or(run_seconds);
        match &args.workload {
            None => run_every_workload(args.seed, seconds),
            Some(name) => {
                let w = workload::all()
                    .into_iter()
                    .find(|w| w.name == name)
                    .ok_or(format!("unknown workload {name}"))?;
                run_one(&w, args.seed, seconds, args.trace);
                Ok(())
            }
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Each workload and pass in a fresh child process, so that set-up time
/// and peak memory are per workload and nothing leaks from one into the
/// next. Fails if any child fails or reports incorrect output.
fn run_every_workload(seed: u64, seconds: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut bad = Vec::new();
    for w in workload::all() {
        for trace in ["0", "1"] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            let verdict = stdout
                .lines()
                .last()
                .and_then(|l| serde_json::from_str(l).ok());
            let correct = verdict.is_some_and(|v: serde_json::Value| v["correct"] == true);
            if !out.status.success() || !correct {
                bad.push(format!("{} --trace {trace}", w.name));
            }
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("failed or incorrect: {}", bad.join(", ")))
    }
}

/// The generators' state that outlives warm-up: warm connections, and
/// where each id sequence continues.
enum Gen {
    Http(Vec<(HttpConn, Ids)>),
    Open { next_id: u64, rng: Rng },
    Ensemble(Vec<EnsembleCaller>),
}

struct Live {
    stack: Stack,
    gen: Gen,
}

struct Ctx<'a> {
    w: &'a Workload,
    seed: u64,
    rt: tokio::runtime::Runtime,
    tail: Arc<Vec<f32>>,
    oracle: Arc<Oracle>,
}

/// Build the stack, let the containers dial in, and warm it up.
fn set_up(c: &Ctx) -> Live {
    let stack = c.rt.block_on(Stack::build(c.w, c.seed));
    let base = driver::id_base(c.seed);
    let gen = match c.w.driver {
        Driver::Http { conns, zipf } => {
            let addr = stack
                .frontend
                .as_ref()
                .expect("http workload has a frontend")
                .local_addr();
            let zipf = zipf.map(|(keys, s)| {
                prewarm_keys(c, &stack, base, keys as u64);
                Arc::new(gen::Zipf::new(keys, s))
            });
            let mut gens: Vec<(HttpConn, Ids)> = (0..conns as u64)
                .map(|i| {
                    let ids = match &zipf {
                        Some(z) => Ids::Zipf {
                            base,
                            zipf: z.clone(),
                            rng: Rng::new(c.seed ^ (i + 1) << 32),
                        },
                        None => Ids::Distinct {
                            next: base + i,
                            stride: conns as u64,
                        },
                    };
                    (HttpConn::connect(addr, &c.tail), ids)
                })
                .collect();
            std::thread::scope(|s| {
                for (conn, ids) in gens.iter_mut() {
                    s.spawn(|| {
                        let until = Until::Count(c.w.warmup);
                        driver::http_loop(conn, ids, until, &c.oracle, &mut SegLog::discard())
                    });
                }
            });
            Gen::Http(gens)
        }
        Driver::Open { rate } => {
            let mut rng = Rng::new(c.seed);
            let horizon = (c.w.warmup as f64 / rate * 1e9) as u64;
            let due = gen::poisson_schedule(&mut rng, rate, horizon);
            let log = SegLog::discard();
            driver::open_loop(
                &stack.clipper,
                &c.tail,
                base,
                now_ns(),
                &due,
                &c.oracle,
                log,
            );
            Gen::Open {
                next_id: base + due.len() as u64,
                rng,
            }
        }
        Driver::Ensemble {
            callers,
            contexts,
            feedback,
            lag,
        } => {
            let contexts = Arc::new(
                (0..contexts)
                    .map(|u| format!("user-{u}"))
                    .collect::<Vec<_>>(),
            );
            let fresh = (0..callers as u64)
                .map(|i| EnsembleCaller {
                    ids: Ids::Distinct {
                        next: base + i,
                        stride: callers as u64,
                    },
                    rng: Rng::new(c.seed ^ (i + 1) << 32),
                    contexts: contexts.clone(),
                    feedback,
                    lag,
                    recent: Default::default(),
                })
                .collect();
            let until = Until::Count(c.w.warmup);
            let (warm, _) = run_callers(c, &stack, fresh, until, |_| SegLog::discard());
            Gen::Ensemble(warm)
        }
    };
    Live { stack, gen }
}

/// Ask for every key of the universe once, in process and all at once,
/// so that the first measured request already hits.
fn prewarm_keys(c: &Ctx, stack: &Stack, base: u64, keys: u64) {
    c.rt.block_on(async {
        let tasks: Vec<_> = (0..keys)
            .map(|k| {
                let (clipper, x) = (
                    stack.clipper.clone(),
                    Arc::new(gen::input(base + k, &c.tail)),
                );
                tokio::spawn(async move { clipper.predict(APP, None, x).await.is_ok() })
            })
            .collect();
        for t in tasks {
            assert!(t.await.expect("prewarm task"), "prewarm predict failed");
        }
    });
}

fn run_callers(
    c: &Ctx,
    stack: &Stack,
    callers: Vec<EnsembleCaller>,
    until: Until,
    log: impl Fn(usize) -> SegLog,
) -> (Vec<EnsembleCaller>, Vec<SegLog>) {
    c.rt.block_on(async {
        let tasks: Vec<_> = callers
            .into_iter()
            .enumerate()
            .map(|(i, caller)| {
                tokio::spawn(driver::ensemble_loop(
                    stack.clipper.clone(),
                    c.tail.clone(),
                    caller,
                    until,
                    c.oracle.clone(),
                    log(i),
                ))
            })
            .collect();
        let mut done = (Vec::new(), Vec::new());
        for t in tasks {
            let (caller, log) = t.await.expect("caller task");
            done.0.push(caller);
            done.1.push(log);
        }
        done
    })
}

/// What the measured phase leaves for the metrics.
struct Measured {
    log: SegLog,
    late_ns: Vec<u64>,
    t0: u64,
    segments: usize,
    cpu_ns: BTreeMap<&'static str, u64>,
    cache: (clipper_core::CacheStats, clipper_core::CacheStats),
    /// When the box stood still, `(from, to)` in `now_ns` time.
    stalls: Vec<(u64, u64)>,
}

impl Measured {
    fn stall_ms(&self) -> f64 {
        ms(self.stalls.iter().map(|(from, to)| to - from).sum())
    }
}

/// In a traced run the decorators record in the even segments only; the
/// odd ones are the untraced control for `trace.overhead_share`.
fn segment_is_traced(segment: usize) -> bool {
    segment.is_multiple_of(2)
}

fn measure(c: &Ctx, live: &mut Live, seconds: u64, traced: bool) -> Measured {
    let segments = seconds as usize;
    let seg_ns = SEGMENT.as_nanos() as u64;
    let stack = &live.stack;
    for h in stack.queue_wait_histograms() {
        h.reset();
    }
    let cache0 = stack.clipper.abstraction().cache().stats();
    let cpu0 = sys::cpu_ns_by_group();
    let ticker = sys::StallTicker::start();
    let t0 = now_ns() + 2_000_000;
    let until = Until::Time(t0 + segments as u64 * seg_ns);
    let mut late_ns = Vec::new();
    let mut generator_cpu_ns = 0;

    let log = std::thread::scope(|s| {
        if traced {
            let recorder = stack.recorder.clone();
            s.spawn(move || {
                for seg in 0..segments {
                    let starts = t0 + seg as u64 * seg_ns;
                    std::thread::sleep(std::time::Duration::from_nanos(
                        starts.saturating_sub(now_ns()),
                    ));
                    recorder.set_recording(segment_is_traced(seg));
                }
                let ends = t0 + segments as u64 * seg_ns;
                std::thread::sleep(std::time::Duration::from_nanos(
                    ends.saturating_sub(now_ns()),
                ));
                recorder.set_recording(false);
            });
        }
        match &mut live.gen {
            Gen::Http(gens) => {
                let threads: Vec<_> = gens
                    .iter_mut()
                    .enumerate()
                    .map(|(i, (conn, ids))| {
                        let oracle = &c.oracle;
                        std::thread::Builder::new()
                            .name(format!("bench-gen-{i}"))
                            .spawn_scoped(s, move || {
                                let mut log = SegLog::new(t0, segments, 48_000, traced);
                                let cpu0 = sys::thread_cpu_ns();
                                driver::http_loop(conn, ids, until, oracle, &mut log);
                                (log, sys::thread_cpu_ns() - cpu0)
                            })
                            .expect("spawn generator thread")
                    })
                    .collect();
                let (logs, cpu): (Vec<_>, Vec<_>) = threads
                    .into_iter()
                    .map(|t| t.join().expect("generator thread"))
                    .unzip();
                generator_cpu_ns = cpu.iter().sum();
                SegLog::merge(logs)
            }
            Gen::Open { next_id, rng } => {
                let Driver::Open { rate } = c.w.driver else {
                    unreachable!()
                };
                let due = gen::poisson_schedule(rng, rate, segments as u64 * seg_ns);
                let log = SegLog::new(t0, segments, (rate * 1.5) as usize, traced);
                let first_id = *next_id;
                *next_id += due.len() as u64;
                let r =
                    driver::open_loop(&stack.clipper, &c.tail, first_id, t0, &due, &c.oracle, log);
                late_ns = r.late_ns;
                generator_cpu_ns = r.generator_cpu_ns;
                r.log
            }
            Gen::Ensemble(callers) => {
                let new_log = |_| SegLog::new(t0, segments, 8_000, traced);
                let (back, logs) = run_callers(c, stack, std::mem::take(callers), until, new_log);
                *callers = back;
                SegLog::merge(logs)
            }
        }
    });

    let stalls = ticker.finish();
    let cpu1 = sys::cpu_ns_by_group();
    let mut cpu_ns: BTreeMap<_, _> = cpu1
        .iter()
        .map(|(g, ns)| (*g, ns - cpu0.get(g).copied().unwrap_or(0)))
        .collect();
    cpu_ns.insert("generator", generator_cpu_ns);
    let cache = (cache0, stack.clipper.abstraction().cache().stats());
    Measured {
        log,
        late_ns,
        t0,
        segments,
        cpu_ns,
        cache,
        stalls,
    }
}

type Metrics = BTreeMap<&'static str, f64>;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Median and p99 of each segment that has samples, in milliseconds.
fn segment_timings(segments: &[Vec<u64>], keep: impl Fn(usize) -> bool) -> (Vec<f64>, Vec<f64>) {
    segments
        .iter()
        .enumerate()
        .filter(|(i, seg)| keep(*i) && !seg.is_empty())
        .map(|(_, seg)| (ms(percentile(seg, 0.5)), ms(percentile(seg, 0.99))))
        .unzip()
}

fn end_to_end(m: &Measured, setup_s: &[f64]) -> Metrics {
    let segments = m.log.sorted_segments();
    let (p50, p99) = segment_timings(&segments, |_| true);
    let seg_s = SEGMENT.as_secs_f64();
    let good: Vec<f64> = m
        .log
        .good_per_segment()
        .iter()
        .map(|&g| g as f64 / seg_s)
        .collect();
    let predicts = m.log.predicts.max(1) as f64;
    // A stall of the box is not the program's miss: the share is over the
    // segments the box ran through (all of them if it never did).
    let mut counted = sys::stalled_segments(&m.stalls, m.t0, SEGMENT.as_nanos() as u64, m.segments);
    if counted.iter().all(|stalled| *stalled) {
        counted.fill(false);
    }
    let over_counted = |per_segment: &[u32]| -> f64 {
        per_segment
            .iter()
            .zip(&counted)
            .filter(|(_, stalled)| !**stalled)
            .map(|(n, _)| *n as f64)
            .sum()
    };
    Metrics::from([
        ("setup_s", lower_median(setup_s)),
        ("goodput_qps", quiet_high(&good)),
        ("p50_ms", quiet_low(&p50)),
        ("p99_ms", quiet_low(&p99)),
        (
            "slo_ok_share",
            over_counted(m.log.good_per_segment())
                / over_counted(m.log.sent_per_segment()).max(1.0),
        ),
        ("accuracy", m.log.accurate as f64 / predicts),
        ("rss_peak_mb", sys::rss_peak_mb()),
    ])
}

fn per_layer(c: &Ctx, live: &Live, m: &Measured) -> Metrics {
    let seg_ns = SEGMENT.as_nanos() as u64;
    let traced_segments = (0..m.segments).filter(|s| segment_is_traced(*s)).count();
    let over_http = matches!(c.w.driver, Driver::Http { .. });

    // Roots that lie inside one traced segment: their batches, if any,
    // started while the decorators were recording.
    let roots: Vec<_> = m
        .log
        .roots
        .iter()
        .flatten()
        .filter(|r| {
            let seg = (r.start.saturating_sub(m.t0) / seg_ns) as usize;
            r.start >= m.t0
                && segment_is_traced(seg)
                && (r.end - m.t0) / seg_ns == seg as u64
                && seg < m.segments
        })
        .copied()
        .collect();
    let (transport, container) = live.stack.recorder.take();
    let mut l = trace::join(&roots, &transport, &container, over_http);
    let mut root_ns: Vec<u64> = roots.iter().map(|r| r.end - r.start).collect();
    for v in [
        &mut l.frontend,
        &mut l.pre,
        &mut l.rpc,
        &mut l.compute,
        &mut l.reply,
        &mut root_ns,
    ] {
        v.sort_unstable();
    }
    let p = |v: &[u64], q: f64| us(percentile(v, q));
    let layer_sum: f64 = [&l.frontend, &l.pre, &l.rpc, &l.compute, &l.reply]
        .iter()
        .map(|v| p(v, 0.5))
        .sum();

    // Queue wait is the program's own per-queue histogram; replicas are
    // combined by their share of the queries.
    let queues: Vec<_> = live
        .stack
        .queue_wait_histograms()
        .iter()
        .map(|h| h.snapshot())
        .collect();
    let queued: f64 = queues
        .iter()
        .map(|s| s.count() as f64)
        .sum::<f64>()
        .max(1.0);
    let queue_wait = |q: f64| {
        queues
            .iter()
            .map(|s| s.quantile(q) as f64 * s.count() as f64)
            .sum::<f64>()
            / queued
    };

    let misses = l.rpc.len().max(1) as f64;
    let last_replica = live.stack.queue_ids.len() as u32 - 1;
    let slow = if c.w.models[0].replicas.len() > 1 {
        l.by_replica.get(&last_replica).copied().unwrap_or(0) as f64 / misses
    } else {
        0.0
    };

    let (before, after) = m.cache;
    let probes = (after.probes() - before.probes()).max(1) as f64;
    let served = (after.hits + after.pending_joins) - (before.hits + before.pending_joins);
    let seconds = m.segments as f64 * SEGMENT.as_secs_f64();
    let ops = (m.log.predicts + m.log.feedbacks).max(1) as f64;
    let cpu = |group: &str| us(m.cpu_ns.get(group).copied().unwrap_or(0)) / ops;

    let segments = m.log.sorted_segments();
    let (p50_on, _) = segment_timings(&segments, segment_is_traced);
    let (p50_off, _) = segment_timings(&segments, |s| !segment_is_traced(s));
    let off = quiet_low(&p50_off);
    let mut all: Vec<u64> = segments.concat();
    all.sort_unstable();
    let tail_q = stats::highest_supported_quantile(all.len());
    let feedback = m.log.sorted_feedback();
    let mut late = m.late_ns.clone();
    late.sort_unstable();
    let carried: usize = transport.iter().map(|t| t.ids.len()).sum();

    let mut out = Metrics::from([
        ("frontend.self_us_p50", p(&l.frontend, 0.5)),
        ("clipper.pre_us_p50", p(&l.pre, 0.5)),
        ("clipper.reply_us_p50", p(&l.reply, 0.5)),
        ("batching.queue_wait_us_p50", queue_wait(0.5)),
        ("batching.queue_wait_us_p99", queue_wait(0.99)),
        (
            "batching.batch_size_mean",
            carried as f64 / transport.len().max(1) as f64,
        ),
        (
            "batching.batches_per_s",
            transport.len() as f64 / traced_segments.max(1) as f64,
        ),
        ("rpc.self_us_p50", p(&l.rpc, 0.5)),
        ("rpc.self_us_p99", p(&l.rpc, 0.99)),
        ("containers.compute_us_p50", p(&l.compute, 0.5)),
        ("abstraction.slow_share", slow),
        ("cache.hit_share", served as f64 / probes),
        (
            "cache.evictions_per_s",
            (after.evictions - before.evictions) as f64 / seconds,
        ),
        ("feedback.p50_us", p(&feedback, 0.5)),
        ("feedback.p99_us", p(&feedback, 0.99)),
        ("cpu.workers_us_per_op", cpu("workers")),
        ("cpu.blocking_us_per_op", cpu("blocking")),
        ("cpu.generator_us_per_op", cpu("generator")),
        ("generator.late_us_p99", p(&late, 0.99)),
        ("box.stall_ms_total", m.stall_ms()),
        ("e2e.tail_ms", ms(percentile(&all, tail_q))),
        ("e2e.tail_quantile", tail_q),
        (
            "trace.overhead_share",
            if off > 0.0 {
                (quiet_low(&p50_on) - off) / off
            } else {
                0.0
            },
        ),
        (
            "trace.residual_share",
            1.0 - layer_sum / p(&root_ns, 0.5).max(f64::MIN_POSITIVE),
        ),
    ]);
    eprintln!(
        "{}: traced {} roots ({} from the cache), {} batches",
        c.w.name,
        roots.len(),
        l.hits,
        transport.len()
    );
    out.extend(probes::run_all());
    out
}

fn run_one(w: &Workload, seed: u64, seconds: u64, traced: bool) {
    let c = Ctx {
        w,
        seed,
        rt: tokio::runtime::Runtime::new().expect("runtime handle"),
        tail: Arc::new(gen::feature_tail(seed)),
        oracle: Arc::new(Oracle::of(w)),
    };
    let mut setup_s = Vec::new();
    let mut live: Option<Live> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = live.take() {
            previous.stack.teardown();
        }
        let started = Instant::now();
        live = Some(set_up(&c));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up");
    let m = measure(&c, &mut live, seconds, traced);

    let e2e = end_to_end(&m, &setup_s);
    let (names, metrics) = if traced {
        (PER_LAYER, per_layer(&c, &live, &m))
    } else {
        (END_TO_END, e2e.clone())
    };
    live.stack.teardown();

    if m.stall_ms() / 1e3 > STALL_FLAG_SHARE * seconds as f64 {
        eprintln!(
            "{}: STALLED BOX: {:.0} ms of {seconds} s stood still",
            w.name,
            m.stall_ms()
        );
    }
    // An ensemble that does not beat its best member has no purpose.
    let beats_best_single = w.models.len() == 1 || m.log.accurate > m.log.best_single_accurate;
    let attempted = m.log.predicts + m.log.feedbacks;
    let correct = m.log.failed == 0 && e2e["goodput_qps"] > 0.0 && beats_best_single;

    println!(
        "{} ops_sent {attempted} count\n{} ops_failed {} count\n{} ops_missed_slo {} count",
        w.name, w.name, m.log.failed, w.name, m.log.missed_slo
    );
    if traced {
        // The traced pass perturbs them; printed for orientation only.
        for (name, unit) in END_TO_END {
            println!("{} traced.{name} {} {unit}", w.name, e2e[name]);
        }
    }
    let mut json = Vec::new();
    for (name, unit) in names {
        let value = metrics[name];
        println!("{} {name} {value} {unit}", w.name);
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.log.failed,
        json.join(", ")
    );
}
