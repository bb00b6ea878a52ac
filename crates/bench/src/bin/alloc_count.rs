//! Allocations-per-request harness (`BENCH_alloc_count.json`).
//!
//! A counting `#[global_allocator]` wraps `std::alloc::System` and
//! counts every `alloc` / `alloc_zeroed` / `realloc` in the process.
//! Each scenario runs a fixed closed-loop iteration count over real
//! localhost TCP and reports the per-iteration allocation delta, plus
//! the per-iteration TCP write-op delta from the vendored runtime's
//! write counters (one request–response round trip should cost one
//! kernel write per direction — two ops total) and the per-iteration
//! count of tasks started on the vendored runtime
//! (`tokio::runtime::spawned_total`; the request path's hop counter).
//!
//! Scenarios:
//!
//! - `echo` — 64-byte TCP echo RTT (floor: the runtime itself);
//! - `rpc_predict1` — clipper-rpc `predict_batch` b=1 against a No-Op
//!   container (frame codec + writer task + oneshot completion);
//! - `http_predict` — keep-alive HTTP predict against an in-process echo
//!   transport (head parse, routing, JSON in/out — the paper's §4 predict
//!   hot path end to end);
//! - `control_get` — keep-alive `GET /api/v1/apps` (control-plane read).
//!
//! `baseline_allocs_per_iter` rows carry the numbers recorded
//! immediately **before** the wire-speed data-plane rework (buffer
//! reuse, writev coalescing, zero-alloc routing) so the reduction is
//! visible in one file. With `ALLOC_COUNT_ENFORCE=1` the binary exits
//! non-zero if the emitted JSON fails to parse back, any scenario
//! regresses above its ceiling, the predict-b=1 RPC-path reduction vs
//! baseline falls under 50%, a request-response round trip costs more
//! than one write syscall per direction, or a scenario starts more
//! tasks per iteration than its ceiling. (`http_predict` crosses
//! the full model abstraction layer — batching, cache, policy — whose
//! allocations are out of scope for the wire rework, so its reduction
//! is reported but the 50% gate applies to the RPC predict path.)
//!
//! Flags: `--smoke` (fewer iterations for CI), `--out <path>` (default
//! `BENCH_alloc_count.json`).

use clipper_bench::http_bench::{get_request, predict_request, start_echo_frontend, HttpClient};
use clipper_metrics::Histogram;
use clipper_rpc::message::{PredictReply, WireOutput};
use clipper_rpc::transport::BatchTransport;
use clipper_rpc::{serve_container, ContainerClientConfig, RpcServer};
use clipper_workload::Table;
use serde::{Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};

/// Allocation events since process start (alloc + alloc_zeroed + realloc).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counter
// update has no allocation side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `[allocations, tcp write ops, tasks spawned]` so far, for
/// before/after deltas.
fn counters() -> [u64; 3] {
    let (w, wv) = tokio::net::tcp_write_op_counts();
    [
        ALLOCS.load(Ordering::Relaxed),
        w + wv,
        tokio::runtime::spawned_total(),
    ]
}

#[derive(Serialize, Deserialize)]
struct Scenario {
    name: String,
    iters: u64,
    allocs_per_iter: f64,
    write_ops_per_iter: f64,
    /// Tasks started on the runtime per iteration (`spawn` and
    /// `spawn_blocking`).
    spawns_per_iter: f64,
    /// Same measurement recorded before the wire-speed rework.
    baseline_allocs_per_iter: f64,
}

impl Scenario {
    /// The per-iteration deltas between two [`counters`] readings.
    fn measured(name: &str, iters: u64, before: [u64; 3], after: [u64; 3]) -> Scenario {
        let per_iter = |i: usize| (after[i] - before[i]) as f64 / iters as f64;
        Scenario {
            name: name.into(),
            iters,
            allocs_per_iter: per_iter(0),
            write_ops_per_iter: per_iter(1),
            spawns_per_iter: per_iter(2),
            baseline_allocs_per_iter: baseline_for(name),
        }
    }
}

#[derive(Serialize, Deserialize)]
struct Report {
    bench: String,
    cores: usize,
    reactor_active: bool,
    scenarios: Vec<Scenario>,
    /// `1 - after/before` on the `rpc_predict1` scenario (the gated
    /// predict-path number).
    predict_alloc_reduction: f64,
    /// `1 - after/before` on the end-to-end `http_predict` scenario.
    http_alloc_reduction: f64,
}

/// Per-iteration allocation counts recorded immediately before the
/// wire-speed data-plane rework, same host class and iteration counts.
const BASELINE_ALLOCS_PER_ITER: [(&str, f64); 4] = [
    ("echo", 0.0),
    ("rpc_predict1", 27.0),
    ("http_predict", 46.5),
    ("control_get", 50.0),
];

/// Regression ceilings on allocations/iteration (measured value —
/// 0.0 / 12.0 / 15.0 / 10.0 — plus headroom for executor scheduling
/// noise). `http_predict` ratcheted from 33.0 when the selection state's
/// per-predict JSON decode stopped building an intermediate tree (18
/// allocations → 4, the state's own vectors) and took the row from 29.0
/// to 15.0.
const ALLOC_CEILINGS: [(&str, f64); 4] = [
    ("echo", 2.0),
    ("rpc_predict1", 18.0),
    ("http_predict", 19.0),
    ("control_get", 15.0),
];

/// Regression ceilings on tasks started per iteration: measured value
/// (0.0 / 1.0 / 0.0 / 0.0) plus one.
const SPAWN_CEILINGS: [(&str, f64); 4] = [
    ("echo", 1.0),
    ("rpc_predict1", 2.0),
    ("http_predict", 1.0),
    ("control_get", 1.0),
];

fn baseline_for(name: &str) -> f64 {
    BASELINE_ALLOCS_PER_ITER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0.0)
}

async fn run_echo(iters: u64) -> Scenario {
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap();
    let server = tokio::spawn(async move {
        let (mut conn, _) = listener.accept().await.unwrap();
        conn.set_nodelay(true).unwrap();
        let mut buf = [0u8; 64];
        while conn.read_exact(&mut buf).await.is_ok() {
            if conn.write_all(&buf).await.is_err() {
                break;
            }
        }
    });
    let mut client = TcpStream::connect(addr).await.unwrap();
    client.set_nodelay(true).unwrap();
    let msg = [0x5au8; 64];
    let mut buf = [0u8; 64];
    for _ in 0..200 {
        client.write_all(&msg).await.unwrap();
        client.read_exact(&mut buf).await.unwrap();
    }
    let before = counters();
    for _ in 0..iters {
        client.write_all(&msg).await.unwrap();
        client.read_exact(&mut buf).await.unwrap();
    }
    let after = counters();
    drop(client);
    server.abort();
    Scenario::measured("echo", iters, before, after)
}

async fn run_rpc_predict1(iters: u64) -> Scenario {
    let mut server = RpcServer::bind("127.0.0.1:0").await.unwrap();
    let addr = server.local_addr();
    let container = tokio::spawn(async move {
        let _ = serve_container(
            addr,
            ContainerClientConfig {
                container_name: "noop-0".into(),
                model_name: "noop".into(),
                model_version: 1,
            },
            Arc::new(|inputs: Vec<clipper_rpc::Input>| {
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(0); inputs.len()],
                    queue_us: 0,
                    compute_us: 0,
                })
            }),
        )
        .await;
    });
    let (_info, handle) = server.next_container().await.expect("container registers");
    let inputs: Vec<clipper_rpc::Input> = vec![Arc::new(vec![1.0f32; 8])];
    for _ in 0..200 {
        handle.predict_batch(&inputs).await.unwrap();
    }
    let before = counters();
    for _ in 0..iters {
        handle.predict_batch(&inputs).await.unwrap();
    }
    let after = counters();
    container.abort();
    Scenario::measured("rpc_predict1", iters, before, after)
}

async fn run_http(name: &str, request: Vec<u8>, iters: u64) -> Scenario {
    let (frontend, _clipper) = start_echo_frontend().await;
    let mut client = HttpClient::connect(frontend.local_addr()).await;
    for _ in 0..200 {
        assert_eq!(client.call(&request).await, 200);
    }
    let before = counters();
    for _ in 0..iters {
        client.call(&request).await;
    }
    Scenario::measured(name, iters, before, counters())
}

#[tokio::main(flavor = "multi_thread", worker_threads = 4)]
async fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut iters: u64 = 3000;
    let mut out_path = "BENCH_alloc_count.json".to_string();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => iters = 500,
            "--iters" => {
                i += 1;
                iters = args[i].parse().expect("--iters <u64>");
            }
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            other => panic!("unknown flag {other:?} (see --smoke/--iters/--out)"),
        }
        i += 1;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reactor_active = tokio::net::io_mode() == tokio::net::IoMode::Reactor;

    // Touch the Histogram type once so its lazy internals are warm before
    // any measured loop (the metrics registry allocates on first use).
    let warm = Histogram::new();
    warm.record(1);

    println!("== alloc_count: allocations/request, {cores} cores, {iters} iters/scenario ==\n");

    let scenarios = vec![
        run_echo(iters).await,
        run_rpc_predict1(iters).await,
        run_http("http_predict", predict_request(7), iters).await,
        run_http("control_get", get_request("/api/v1/apps"), iters).await,
    ];

    let mut table = Table::new(&[
        "scenario",
        "iters",
        "allocs/iter",
        "writes/iter",
        "spawns/iter",
        "baseline allocs/iter",
    ]);
    for s in &scenarios {
        table.row(&[
            s.name.clone(),
            format!("{}", s.iters),
            format!("{:.1}", s.allocs_per_iter),
            format!("{:.2}", s.write_ops_per_iter),
            format!("{:.2}", s.spawns_per_iter),
            format!("{:.1}", s.baseline_allocs_per_iter),
        ]);
    }
    table.print();

    let reduction_for = |name: &str| -> f64 {
        let s = scenarios
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} scenario"));
        if s.baseline_allocs_per_iter > 0.0 {
            1.0 - s.allocs_per_iter / s.baseline_allocs_per_iter
        } else {
            0.0
        }
    };
    let predict_alloc_reduction = reduction_for("rpc_predict1");
    let http_alloc_reduction = reduction_for("http_predict");
    for name in ["rpc_predict1", "http_predict"] {
        let s = scenarios.iter().find(|s| s.name == name).unwrap();
        println!(
            "\n{name}: {:.1} allocs/iter vs {:.1} baseline ({:.0}% reduction), {:.2} write ops/iter",
            s.allocs_per_iter,
            s.baseline_allocs_per_iter,
            reduction_for(name) * 100.0,
            s.write_ops_per_iter,
        );
    }

    let report = Report {
        bench: "alloc_count".to_string(),
        cores,
        reactor_active,
        scenarios,
        predict_alloc_reduction,
        http_alloc_reduction,
    };
    let json = serde_json::to_string(&report).expect("serialize report");
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");

    // Self-validation: the emitted file must parse back.
    let parsed: Report = serde_json::from_str(&std::fs::read_to_string(&out_path).expect("reread"))
        .expect("emitted JSON must parse back into the report schema");
    assert!(
        parsed.scenarios.iter().all(|s| s.iters > 0),
        "malformed report: a scenario recorded zero iterations"
    );

    if std::env::var("ALLOC_COUNT_ENFORCE").as_deref() == Ok("1") {
        let mut ok = true;
        let ceiling_in = |table: &[(&str, f64)], name: &str| {
            table
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::MAX, |(_, v)| *v)
        };
        for s in &parsed.scenarios {
            let ceiling = ceiling_in(&ALLOC_CEILINGS, &s.name);
            if s.allocs_per_iter > ceiling {
                eprintln!(
                    "FAIL: {} allocates {:.1}/iter, above the {ceiling:.1} ceiling",
                    s.name, s.allocs_per_iter
                );
                ok = false;
            }
            let ceiling = ceiling_in(&SPAWN_CEILINGS, &s.name);
            if s.spawns_per_iter > ceiling {
                eprintln!(
                    "FAIL: {} starts {:.2} tasks/iter, above the {ceiling:.1} ceiling",
                    s.name, s.spawns_per_iter
                );
                ok = false;
            }
        }
        if predict_alloc_reduction < 0.5 {
            eprintln!(
                "FAIL: rpc_predict1 allocation reduction {:.0}% is below the 50% gate",
                predict_alloc_reduction * 100.0
            );
            ok = false;
        }
        // One kernel write per response direction: a request–response
        // round trip is one client write + one server write. Allow a
        // little headroom for stray background traffic.
        for name in ["rpc_predict1", "http_predict", "control_get"] {
            let s = parsed.scenarios.iter().find(|s| s.name == name).unwrap();
            if s.write_ops_per_iter > 2.5 {
                eprintln!(
                    "FAIL: {} costs {:.2} write syscalls/iter (want ≤ 2 + noise headroom)",
                    name, s.write_ops_per_iter
                );
                ok = false;
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "enforce: ok (alloc and spawn ceilings held; predict reduction {:.0}% ≥ 50%; ≤1 write/direction)",
            predict_alloc_reduction * 100.0
        );
    }
}
