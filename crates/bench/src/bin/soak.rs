//! Multi-frontend fan-in soak — the chaos entry in the repo's bench
//! trajectory (`BENCH_soak.json`).
//!
//! Runs the [`clipper_workload::soak`] harness at full tilt: N
//! in-process frontends over one statestore and one shared
//! fault-injectable replica fleet, a sustained open-loop mixed workload
//! (predict + feedback + control-plane churn), and the standard
//! adversarial timeline — rollout v1→v2 with cross-frontend
//! `sync_config()`, a transiently flaky replica that the retry path must
//! absorb invisibly, a frontend crash, a `sync_config()` restart, a
//! black-holed replica that the schedulers must mark suspect and drain,
//! and a rollback. The verdict the file exists to carry: **zero lost
//! queries** — every accepted query completes or fail-fills; sheds and
//! down-frontend refusals are answered, counted, and tolerated.
//!
//! The report also carries the measured cross-frontend cache story:
//! per-frontend version-keyed caches need no rollout invalidation (old
//! entries become unreachable and CLOCK reclaims them), and the
//! per-frontend hit/miss/eviction counters show what that costs.
//!
//! Presets: 3 frontends at 10,000 qps for 12 s; `--smoke` 2 frontends at
//! 600 qps for 4 s. Gates: the run was lossless (zero lost, every
//! timeline action — including the crash and the `sync_config()` restart —
//! landed, every arrival accounted, every cache drained), the frontends
//! converged on the statestore's version, and the whole-run p99 stayed
//! under the bound.

use clipper_bench::harness::{Args, Op, Report};
use clipper_workload::soak::{run_soak, SoakSpec};
use clipper_workload::Table;
use serde::Serialize;
use std::time::Duration;

/// Whole-run p99 ceiling the `p99_ms` gate enforces. Generous
/// against the 50 ms SLO (straggler substitution returns predictions by
/// the deadline) but far below the 2 s lost detector, so a wedged tail
/// cannot hide inside "lossless".
const ENFORCE_P99_MS: f64 = 500.0;

#[derive(Serialize)]
struct PhaseRow {
    name: String,
    seconds: f64,
    completed: u64,
    shed: u64,
    refused: u64,
    lost: u64,
    p50_ms: f64,
    p99_ms: f64,
    throughput: f64,
}

#[derive(Serialize)]
struct FrontendRow {
    index: usize,
    ok: u64,
    degraded: u64,
    shed: u64,
    refused: u64,
    lost: u64,
    retried: u64,
    hedged: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_pending_joins: u64,
    pending_len: usize,
    current_version: Option<u32>,
    alive: bool,
}

#[derive(Serialize)]
struct ActionRow {
    label: String,
    fired_at_s: f64,
    took_ms: f64,
    ok: bool,
    detail: String,
}

#[derive(Serialize)]
struct Totals {
    issued: u64,
    completed: u64,
    shed: u64,
    refused: u64,
    lost: u64,
    retried: u64,
    hedged: u64,
    p50_ms: f64,
    p99_ms: f64,
    throughput: f64,
    lossless: bool,
    converged: bool,
}

#[tokio::main(flavor = "multi_thread", worker_threads = 4)]
async fn main() {
    let args = Args::parse("soak");
    let (frontends, rate, seconds) = if args.smoke {
        (2, 600.0, 4.0)
    } else {
        (3, 10_000.0, 12.0)
    };
    let mut out = Report::new(&args, "soak");
    let spec =
        SoakSpec::new(frontends, rate, Duration::from_secs_f64(seconds)).with_standard_timeline();
    out.param("frontends", frontends);
    out.param("replicas_per_version", spec.replicas_per_version);
    out.param("offered_qps", rate);
    out.param("seconds", seconds);
    let report = run_soak(spec).await;

    let mut phase_table = Table::new(&[
        "phase",
        "seconds",
        "completed",
        "shed",
        "refused",
        "lost",
        "p50 (ms)",
        "p99 (ms)",
        "qps",
    ]);
    for p in report.phases.iter().chain(std::iter::once(&report.totals)) {
        let row = PhaseRow {
            name: p.name.clone(),
            seconds: p.duration.as_secs_f64(),
            completed: p.completed,
            shed: p.shed,
            refused: p.refused,
            lost: p.lost,
            p50_ms: p.latency.p50() as f64 / 1_000.0,
            p99_ms: p.p99_ms(),
            throughput: p.throughput(),
        };
        phase_table.row(&[
            row.name.clone(),
            format!("{:.2}", row.seconds),
            format!("{}", row.completed),
            format!("{}", row.shed),
            format!("{}", row.refused),
            format!("{}", row.lost),
            format!("{:.1}", row.p50_ms),
            format!("{:.1}", row.p99_ms),
            format!("{:.0}", row.throughput),
        ]);
        if p.name != "total" {
            out.row("phase", &row);
        }
    }
    phase_table.print();

    println!();
    let mut fe_table = Table::new(&[
        "frontend",
        "ok",
        "degraded",
        "shed",
        "refused",
        "lost",
        "retried",
        "cache hit/miss",
        "pending",
        "version",
        "alive",
    ]);
    let per_frontend: Vec<FrontendRow> = report
        .frontends
        .iter()
        .enumerate()
        .map(|(index, f)| FrontendRow {
            index,
            ok: f.ok,
            degraded: f.degraded,
            shed: f.shed,
            refused: f.refused,
            lost: f.lost,
            retried: f.retried,
            hedged: f.hedged,
            cache_hits: f.cache.hits,
            cache_misses: f.cache.misses,
            cache_evictions: f.cache.evictions,
            cache_pending_joins: f.cache.pending_joins,
            pending_len: f.pending_len,
            current_version: f.current_version,
            alive: f.alive,
        })
        .collect();
    for f in &per_frontend {
        fe_table.row(&[
            format!("f{}", f.index),
            format!("{}", f.ok),
            format!("{}", f.degraded),
            format!("{}", f.shed),
            format!("{}", f.refused),
            format!("{}", f.lost),
            format!("{}", f.retried),
            format!("{}/{}", f.cache_hits, f.cache_misses),
            format!("{}", f.pending_len),
            f.current_version.map_or("-".into(), |v| format!("v{v}")),
            format!("{}", f.alive),
        ]);
        out.row("frontend", f);
    }
    fe_table.print();

    println!();
    let actions: Vec<ActionRow> = report
        .actions
        .iter()
        .map(|a| ActionRow {
            label: a.label.clone(),
            fired_at_s: a.fired_at.as_secs_f64(),
            took_ms: a.took.as_secs_f64() * 1_000.0,
            ok: a.result.is_ok(),
            detail: match &a.result {
                Ok(s) => s.clone(),
                Err(e) => e.clone(),
            },
        })
        .collect();
    for a in &actions {
        println!(
            "  t={:6.2}s {:32} {:5.1}ms  {}",
            a.fired_at_s,
            a.label,
            a.took_ms,
            if a.ok {
                "ok".to_string()
            } else {
                format!("FAILED: {}", a.detail)
            }
        );
        out.row("action", a);
    }

    let totals = Totals {
        issued: report.issued,
        completed: report.totals.completed,
        shed: report.totals.shed,
        refused: report.totals.refused,
        lost: report.totals.lost,
        retried: report.retried(),
        hedged: report.hedged(),
        p50_ms: report.totals.latency.p50() as f64 / 1_000.0,
        p99_ms: report.totals.p99_ms(),
        throughput: report.totals.throughput(),
        lossless: report.is_lossless(),
        converged: report.converged,
    };
    out.row("totals", &totals);

    // The acceptance gates: the soak survived its timeline losslessly.
    out.gate("issued", totals.issued as f64, Op::AtLeast, 1.0);
    out.gate("lost", totals.lost as f64, Op::Equals, 0.0);
    let failed_actions = actions.iter().filter(|a| !a.ok).count();
    out.gate("failed_actions", failed_actions as f64, Op::Equals, 0.0);
    let landed = |prefix: &str| actions.iter().any(|a| a.ok && a.label.starts_with(prefix));
    out.gate_true(
        "crash_and_restart_landed",
        landed("crash") && landed("restart"),
    );
    out.gate_true("lossless", totals.lossless);
    out.gate_true("converged", totals.converged);
    out.gate("p99_ms", totals.p99_ms, Op::AtMost, ENFORCE_P99_MS);
    out.finish()
}
