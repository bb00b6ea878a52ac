//! RPC latency benchmark — the reactor entry in the repo's bench
//! trajectory (`BENCH_rpc_latency.json`).
//!
//! Closed-loop round-trip latency over real localhost TCP on the
//! vendored runtime's epoll reactor, one ladder from the raw socket
//! wakeup to the full frontend:
//!
//! - `echo` — 64-byte echo ping-pong (the raw socket wakeup path);
//! - `predict1` / `predict8` — clipper-rpc `predict_batch` of batch 1
//!   and 8 against a No-Op container over the real RPC server/client
//!   (frame codec, each side writing its own frames, the container's
//!   one blocking execution thread reading, running and answering each
//!   frame, oneshot completion — the paper's Figure 3d overhead path);
//! - `http_predict` — a full HTTP frontend round trip (keep-alive POST
//!   predict against an in-process echo transport: head parse, routing,
//!   JSON body in and out — the wire-speed-frontier path).
//!
//! The RTT rows are recorded, not gated: this guest's idle-wake latency
//! is bimodal by thread placement (`benchmark/README.md`, "Box facts"),
//! and the paired runs of `benchmark/` are where latency is judged.
//!
//! Gates: every measurement made progress and
//! `idle_timer_registrations == 0`: with a blocked accept parked and no
//! traffic for a quiet window, the timer heap must see no new
//! registration (socket readiness comes from the reactor alone, never a
//! timer retry). The idle window runs first, before any traffic.
//!
//! Presets: 2 s per rung, `--smoke` 0.5 s.

use clipper_bench::harness::{Args, Op, Report};
use clipper_metrics::Histogram;
use clipper_rpc::message::{PredictReply, WireOutput};
use clipper_rpc::transport::BatchTransport;
use clipper_rpc::{serve_container, ContainerClientConfig, RpcServer};
use clipper_workload::Table;
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};

/// Echo message size: a small-RPC-sized payload.
const MSG_BYTES: usize = 64;

#[derive(Serialize)]
struct RttStats {
    path: &'static str,
    iters: u64,
    mean_us: f64,
    p50_us: u64,
    p99_us: u64,
}

fn stats(path: &'static str, hist: &Histogram, iters: u64) -> RttStats {
    let snap = hist.snapshot();
    RttStats {
        path,
        iters,
        mean_us: snap.mean(),
        p50_us: snap.p50(),
        p99_us: snap.p99(),
    }
}

/// Closed-loop 64-byte echo ping-pong over localhost TCP.
async fn run_echo(phase: Duration) -> RttStats {
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap();
    let server = tokio::spawn(async move {
        let (mut conn, _) = listener.accept().await.unwrap();
        conn.set_nodelay(true).unwrap();
        let mut buf = [0u8; MSG_BYTES];
        while conn.read_exact(&mut buf).await.is_ok() {
            if conn.write_all(&buf).await.is_err() {
                break;
            }
        }
    });

    let mut client = TcpStream::connect(addr).await.unwrap();
    client.set_nodelay(true).unwrap();
    let msg = [0x5au8; MSG_BYTES];
    let mut buf = [0u8; MSG_BYTES];
    // Warmup.
    for _ in 0..100 {
        client.write_all(&msg).await.unwrap();
        client.read_exact(&mut buf).await.unwrap();
    }
    let hist = Histogram::new();
    let mut iters = 0u64;
    let t_end = Instant::now() + phase;
    while Instant::now() < t_end {
        let t0 = Instant::now();
        client.write_all(&msg).await.unwrap();
        client.read_exact(&mut buf).await.unwrap();
        hist.record(t0.elapsed().as_micros() as u64);
        iters += 1;
    }
    drop(client);
    server.abort();
    stats("echo", &hist, iters)
}

/// Closed-loop `predict_batch` RTT against a No-Op container over the
/// real RPC server/client pair.
async fn run_predict(path: &'static str, batch: usize, phase: Duration) -> RttStats {
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

    let inputs: Vec<clipper_rpc::Input> = (0..batch).map(|i| Arc::new(vec![i as f32; 8])).collect();
    for _ in 0..50 {
        handle.predict_batch(&inputs).await.unwrap();
    }
    let hist = Histogram::new();
    let mut iters = 0u64;
    let t_end = Instant::now() + phase;
    while Instant::now() < t_end {
        let t0 = Instant::now();
        let reply = handle.predict_batch(&inputs).await.unwrap();
        hist.record(t0.elapsed().as_micros() as u64);
        assert_eq!(reply.outputs.len(), batch);
        iters += 1;
    }
    container.abort();
    stats(path, &hist, iters)
}

/// Closed-loop keep-alive predict over the real HTTP frontend: head
/// parse, routing, JSON decode/encode — the full data-plane path.
async fn run_http_predict(phase: Duration) -> RttStats {
    let (frontend, _clipper) = clipper_bench::http_bench::start_echo_frontend().await;
    let mut client = clipper_bench::http_bench::HttpClient::connect(frontend.local_addr()).await;
    let req = clipper_bench::http_bench::predict_request(7);
    for _ in 0..100 {
        assert_eq!(client.call(&req).await, 200);
    }
    let hist = Histogram::new();
    let mut iters = 0u64;
    let t_end = Instant::now() + phase;
    while Instant::now() < t_end {
        let t0 = Instant::now();
        let status = client.call(&req).await;
        hist.record(t0.elapsed().as_micros() as u64);
        assert_eq!(status, 200);
        iters += 1;
    }
    stats("http_predict", &hist, iters)
}

/// Park a blocked accept, then count timer registrations over a quiet
/// window. This must be zero: readiness never touches the timer heap.
async fn measure_idle_timer_registrations(window: Duration) -> u64 {
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    let blocked = tokio::spawn(async move {
        let _ = listener.accept().await;
    });
    tokio::time::sleep(Duration::from_millis(20)).await; // reach the park
    let before = tokio::time::timer_registration_count();
    // std sleep: we must not register timers ourselves while measuring.
    std::thread::sleep(window);
    let regs = tokio::time::timer_registration_count() - before;
    blocked.abort();
    regs
}

#[tokio::main(flavor = "multi_thread", worker_threads = 4)]
async fn main() {
    let args = Args::parse("rpc_latency");
    let phase = Duration::from_secs_f64(if args.smoke { 0.5 } else { 2.0 });
    let idle_window = Duration::from_millis(300);
    let mut report = Report::new(&args, "rpc_latency");
    report.param("phase_seconds", phase.as_secs_f64());
    report.param("msg_bytes", MSG_BYTES);
    report.param("idle_window_ms", idle_window.as_millis() as u64);

    let regs = measure_idle_timer_registrations(idle_window).await;
    report.gate("idle_timer_registrations", regs as f64, Op::Equals, 0.0);
    let ladder = [
        run_echo(phase).await,
        run_predict("predict1", 1, phase).await,
        run_predict("predict8", 8, phase).await,
        run_http_predict(phase).await,
    ];

    let mut table = Table::new(&["path", "iters", "mean (µs)", "p50 (µs)", "p99 (µs)"]);
    for s in &ladder {
        table.row(&[
            s.path.to_string(),
            format!("{}", s.iters),
            format!("{:.1}", s.mean_us),
            format!("{}", s.p50_us),
            format!("{}", s.p99_us),
        ]);
        report.row("rtt", s);
    }
    table.print();
    let fewest = ladder.iter().map(|s| s.iters).min().unwrap_or(0);
    report.gate("min_iters", fewest as f64, Op::AtLeast, 1.0);
    report.finish()
}
