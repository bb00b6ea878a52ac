//! Allocations-per-request bench (`BENCH_alloc_count.json`).
//!
//! A counting `#[global_allocator]` wraps `std::alloc::System` and
//! counts every `alloc` / `alloc_zeroed` / `realloc` in the process.
//! Each scenario runs a fixed closed-loop iteration count over real
//! localhost TCP and reports the per-iteration allocation delta, plus
//! the per-iteration TCP write-op delta from the vendored runtime's
//! write counters (one request–response round trip should cost one
//! kernel write per direction — two ops total; a TCP container answers
//! with a plain `std` write, which those counters do not see, so
//! `rpc_predict1` reads 1.0), the per-iteration count
//! of tasks `tokio::spawn` started on the vendored runtime
//! (`tokio::runtime::spawned_total`), the per-iteration count of
//! hand-offs that woke a parked task or thread
//! (`tokio::runtime::wakes_total`; the request path's hop counter) and
//! the per-iteration count of calls in which a runtime thread may have
//! slept in the kernel (`tokio::runtime::parks_total`) and the
//! per-iteration count of times one thread interrupted another runtime
//! thread's park (`tokio::runtime::cross_thread_wakes_total`; a socket's
//! readiness, which wakes the worker parked in `epoll_wait` itself, is
//! not one).
//!
//! Scenarios:
//!
//! - `echo` — 64-byte TCP echo RTT (floor: the runtime itself);
//! - `rpc_predict1` — clipper-rpc `predict_batch` b=1 against a No-Op
//!   container (frame codec, each side writing its own frame, oneshot
//!   completion; the container's execution thread reads, runs and answers
//!   on a blocking socket, so the kernel wakes it and the runtime counts
//!   two wakes — server reader, caller);
//! - `http_predict` — keep-alive HTTP predict of one repeated input
//!   against an in-process echo transport (head parse, routing, JSON
//!   in/out, selection, a prediction-cache hit: after the first request
//!   nothing reaches a replica queue);
//! - `http_predict_cold` — the same with a distinct input per request, so
//!   every request misses the cache and crosses the model abstraction
//!   layer to the transport — replica queue, batch of one, cache fill
//!   (the paper's §4 predict path end to end);
//! - `control_get` — keep-alive `GET /api/v1/apps` (control-plane read).
//!
//! `baseline_allocs_per_iter` carries the numbers recorded immediately
//! **before** the wire-speed data-plane rework (buffer reuse, writev
//! coalescing, zero-alloc routing) so the reduction is visible in one
//! file. Gates: every scenario under its allocation, spawn, wake, park
//! and cross-thread wake ceiling, the
//! predict-b=1 RPC-path reduction vs baseline at least 50%, and at most
//! one write syscall per direction on every request–response scenario.
//! (`http_predict` runs selection and the prediction cache, whose
//! allocations are out of scope for the wire rework, so its reduction is
//! recorded but the 50% gate applies to the RPC predict path.)
//!
//! Presets: 3,000 iterations per scenario, `--smoke` 500.

use clipper_bench::harness::{Args, Op, Report};
use clipper_bench::http_bench::{get_request, predict_request, start_echo_frontend, HttpClient};
use clipper_metrics::Histogram;
use clipper_rpc::message::{PredictReply, WireOutput};
use clipper_rpc::transport::BatchTransport;
use clipper_rpc::{serve_container, ContainerClientConfig, RpcServer};
use clipper_workload::Table;
use serde::Serialize;
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

/// `[allocations, tcp write ops, tasks spawned, wakes, parks,
/// cross-thread wakes]` so far, for before/after deltas.
fn counters() -> [u64; 6] {
    let (w, wv) = tokio::net::tcp_write_op_counts();
    [
        ALLOCS.load(Ordering::Relaxed),
        w + wv,
        tokio::runtime::spawned_total(),
        tokio::runtime::wakes_total(),
        tokio::runtime::parks_total(),
        tokio::runtime::cross_thread_wakes_total(),
    ]
}

#[derive(Serialize)]
struct Scenario {
    name: String,
    iters: u64,
    allocs_per_iter: f64,
    write_ops_per_iter: f64,
    /// Tasks `tokio::spawn` started per iteration.
    spawns_per_iter: f64,
    /// Parked tasks or threads woken per iteration.
    wakes_per_iter: f64,
    /// Runtime-thread waits that may sleep in the kernel, per iteration.
    parks_per_iter: f64,
    /// Times a thread interrupted another runtime thread's park, per
    /// iteration.
    xthread_wakes_per_iter: f64,
    /// Same measurement recorded before the wire-speed rework.
    baseline_allocs_per_iter: f64,
    /// `1 - allocs_per_iter / baseline_allocs_per_iter`.
    alloc_reduction: f64,
}

impl Scenario {
    /// The per-iteration deltas between two [`counters`] readings.
    fn measured(name: &str, iters: u64, before: [u64; 6], after: [u64; 6]) -> Scenario {
        let per_iter = |i: usize| (after[i] - before[i]) as f64 / iters as f64;
        let baseline = lookup(&BASELINE_ALLOCS_PER_ITER, name);
        Scenario {
            name: name.into(),
            iters,
            allocs_per_iter: per_iter(0),
            write_ops_per_iter: per_iter(1),
            spawns_per_iter: per_iter(2),
            wakes_per_iter: per_iter(3),
            parks_per_iter: per_iter(4),
            xthread_wakes_per_iter: per_iter(5),
            baseline_allocs_per_iter: baseline,
            alloc_reduction: if baseline > 0.0 {
                1.0 - per_iter(0) / baseline
            } else {
                0.0
            },
        }
    }
}

/// Per-iteration allocation counts recorded immediately before the
/// wire-speed data-plane rework, same host class and iteration counts
/// (`http_predict_cold` was not measured then: 0 = no baseline).
const BASELINE_ALLOCS_PER_ITER: [(&str, f64); 5] = [
    ("echo", 0.0),
    ("rpc_predict1", 27.0),
    ("http_predict", 46.5),
    ("http_predict_cold", 0.0),
    ("control_get", 50.0),
];

/// Regression ceilings on allocations/iteration (measured value —
/// 0.0 / 8.0 / 15.0 / 20.0 / 10.0 — plus headroom for executor
/// scheduling noise; `http_predict_cold`, added when the replica queue
/// stopped spawning a task per batch (24.5 → 21.0, 20.4 in some runs),
/// gets measured + 1).
/// `http_predict` ratcheted from 33.0 when the selection state's
/// per-predict JSON decode stopped building an intermediate tree (18
/// allocations → 4, the state's own vectors), and from 19.0 to
/// measured + 1 when the state lost its per-model `counts` vector (one
/// decoded vector fewer per predict: 16 → 15, and `http_predict_cold`
/// 21.0 → 20.0, 19.8–20.0 over ten runs); `rpc_predict1` from 18.0
/// when `spawn_blocking` stopped scheduling a placeholder task (12 → 10;
/// 8 since the container runs every batch on one execution thread).
const ALLOC_CEILINGS: [(&str, f64); 5] = [
    ("echo", 2.0),
    ("rpc_predict1", 14.0),
    ("http_predict", 16.0),
    ("http_predict_cold", 21.0),
    ("control_get", 15.0),
];

/// Regression ceilings on tasks started per iteration: measured value
/// (0.0 on every scenario) plus one. (`tests/request_path.rs` pins the
/// cold predict's exact zero.)
const SPAWN_CEILINGS: [(&str, f64); 5] = [
    ("echo", 1.0),
    ("rpc_predict1", 1.0),
    ("http_predict", 1.0),
    ("http_predict_cold", 1.0),
    ("control_get", 1.0),
];

/// Regression ceilings on wakes per iteration: measured value plus one.
/// `rpc_predict1` measured 7.93 before each side wrote its own frames
/// and the container's reader handed batches straight to its execution
/// thread, 4.00 after, and 2.00 since that thread reads its own frames.
const WAKE_CEILINGS: [(&str, f64); 5] = [
    ("echo", 3.0),
    ("rpc_predict1", 3.0),
    ("http_predict", 3.0),
    ("http_predict_cold", 5.0),
    ("control_get", 3.0),
];

/// Regression ceilings on parks per iteration: measured value plus one.
/// Ratcheted when idle workers began parking in `epoll_wait` themselves,
/// so a socket's readiness stopped costing a reactor-thread park on top
/// of the worker's: 1.87–2.00 / 2.69–3.00 / 2.87–3.34 / 2.71–3.43 over
/// twenty runs, ten at each preset (3.00 / 4.00 / 5.02 / 4.01 before,
/// when the ceilings were 4 / 5 / 6 / 5). `rpc_predict1` was 6.00 while the container had its own async
/// reader task; `http_predict_cold` measured 6.98 with the pool's old
/// floor of four workers. `echo`, ungated while its count ranged
/// 3.06–4.00, now reads 2.58–2.97 over twenty runs and is gated too.
const PARK_CEILINGS: [(&str, f64); 5] = [
    ("echo", 4.0),
    ("rpc_predict1", 3.0),
    ("http_predict", 4.0),
    ("http_predict_cold", 4.0),
    ("control_get", 4.0),
];

/// Regression ceilings on cross-thread wakes per iteration: measured
/// value plus one. Every scenario reads at most 1.00 (0.59–1.00 over
/// twenty runs): the harness's own `block_on` thread, unparked once a
/// reply lands (less when the reply beats it to the park). A socket's
/// readiness reaches the worker parked in `epoll_wait` with no
/// thread-to-thread hop, so the reactor-to-worker wakes are gone.
const XTHREAD_WAKE_CEILINGS: [(&str, f64); 5] = [
    ("echo", 2.0),
    ("rpc_predict1", 2.0),
    ("http_predict", 2.0),
    ("http_predict_cold", 2.0),
    ("control_get", 2.0),
];

fn lookup(table: &[(&str, f64)], name: &str) -> f64 {
    let row = table.iter().find(|(n, _)| *n == name);
    row.unwrap_or_else(|| panic!("no {name} row in the table"))
        .1
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

/// Warm-up calls before an HTTP scenario's measured loop.
const HTTP_WARMUP: u64 = 200;

/// `request(i)` is the `i`-th call's bytes; every buffer is built before
/// the counters are read, so none of them is charged to the server.
async fn run_http(name: &str, request: impl Fn(u64) -> Vec<u8>, iters: u64) -> Scenario {
    let (frontend, _clipper) = start_echo_frontend().await;
    let mut client = HttpClient::connect(frontend.local_addr()).await;
    let requests: Vec<Vec<u8>> = (0..HTTP_WARMUP + iters).map(request).collect();
    let (warmup, measured) = requests.split_at(HTTP_WARMUP as usize);
    for request in warmup {
        assert_eq!(client.call(request).await, 200);
    }
    let before = counters();
    for request in measured {
        client.call(request).await;
    }
    Scenario::measured(name, iters, before, counters())
}

#[tokio::main(flavor = "multi_thread", worker_threads = 4)]
async fn main() {
    let args = Args::parse("alloc_count");
    let iters: u64 = if args.smoke { 500 } else { 3_000 };
    let mut report = Report::new(&args, "alloc_count");
    report.param("iters", iters);

    // Touch the Histogram type once so its lazy internals are warm before
    // any measured loop (the metrics registry allocates on first use).
    let warm = Histogram::new();
    warm.record(1);

    let scenarios = vec![
        run_echo(iters).await,
        run_rpc_predict1(iters).await,
        run_http("http_predict", |_| predict_request(7), iters).await,
        run_http("http_predict_cold", |i| predict_request(i as u32), iters).await,
        run_http("control_get", |_| get_request("/api/v1/apps"), iters).await,
    ];

    let mut table = Table::new(&[
        "scenario",
        "allocs/iter",
        "writes/iter",
        "spawns/iter",
        "wakes/iter",
        "parks/iter",
        "xthread/iter",
        "baseline allocs/iter",
        "reduction",
    ]);
    for s in &scenarios {
        table.row(&[
            s.name.clone(),
            format!("{:.1}", s.allocs_per_iter),
            format!("{:.2}", s.write_ops_per_iter),
            format!("{:.2}", s.spawns_per_iter),
            format!("{:.2}", s.wakes_per_iter),
            format!("{:.2}", s.parks_per_iter),
            format!("{:.2}", s.xthread_wakes_per_iter),
            format!("{:.1}", s.baseline_allocs_per_iter),
            format!("{:.0}%", s.alloc_reduction * 100.0),
        ]);
        report.row("scenario", s);
        let gate = |metric: &str| format!("{}.{metric}", s.name);
        let ceiling = lookup(&ALLOC_CEILINGS, &s.name);
        report.gate(
            &gate("allocs_per_iter"),
            s.allocs_per_iter,
            Op::AtMost,
            ceiling,
        );
        let ceiling = lookup(&SPAWN_CEILINGS, &s.name);
        report.gate(
            &gate("spawns_per_iter"),
            s.spawns_per_iter,
            Op::AtMost,
            ceiling,
        );
        let ceiling = lookup(&WAKE_CEILINGS, &s.name);
        report.gate(
            &gate("wakes_per_iter"),
            s.wakes_per_iter,
            Op::AtMost,
            ceiling,
        );
        let ceiling = lookup(&XTHREAD_WAKE_CEILINGS, &s.name);
        report.gate(
            &gate("xthread_wakes_per_iter"),
            s.xthread_wakes_per_iter,
            Op::AtMost,
            ceiling,
        );
        let ceiling = lookup(&PARK_CEILINGS, &s.name);
        report.gate(
            &gate("parks_per_iter"),
            s.parks_per_iter,
            Op::AtMost,
            ceiling,
        );
        // One kernel write per direction: a request–response round trip
        // is one client write + one server write, plus a little headroom
        // for stray background traffic. (`echo` is a raw ping-pong with
        // no request–response framing to bound.)
        if s.name != "echo" {
            report.gate(
                &gate("write_ops_per_iter"),
                s.write_ops_per_iter,
                Op::AtMost,
                2.5,
            );
        }
        if s.name == "rpc_predict1" {
            report.gate(
                &gate("alloc_reduction"),
                s.alloc_reduction,
                Op::AtLeast,
                0.5,
            );
        }
    }
    table.print();
    report.finish()
}
