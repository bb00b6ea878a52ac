//! Direct probes: a tight loop over one layer's public functions, for a
//! fixed short time each. They say what a layer's own code costs with
//! nothing queued in front of it, which the trace of a loaded run cannot.

use clipper_core::selection::SelectionPolicy;
use clipper_core::{CacheKey, Exp4Policy, Feedback, ModelId, Output, PolicyState, PredictionCache};
use clipper_metrics::Histogram;
use clipper_rpc::codec::HEADER_LEN;
use clipper_rpc::message::{Message, PredictReply};
use clipper_rpc::server::RpcServer;
use clipper_rpc::transport::{BatchTransport, Input};
use clipper_rpc::{serve_container, ContainerClientConfig};
use std::collections::HashMap;
use std::future::Future;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::io::{AsyncReadExt, AsyncWriteExt};

use crate::gen::{feature_tail, input};

/// How long each probe loops.
const PROBE: Duration = Duration::from_millis(60);

/// Mean nanoseconds per call of `op` over `PROBE`.
fn time_ns(mut op: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < PROBE {
        for _ in 0..64 {
            op(calls);
            calls += 1;
        }
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Mean nanoseconds per round of an async `op`, run as a task on the
/// pool, as the layers it stands for are.
fn time_async_ns<F, Fut>(mut op: F) -> f64
where
    F: FnMut() -> Fut + Send + 'static,
    Fut: Future<Output = ()> + Send,
{
    let task = tokio::spawn(async move {
        let start = Instant::now();
        let mut rounds = 0u64;
        while start.elapsed() < PROBE {
            op().await;
            rounds += 1;
        }
        start.elapsed().as_nanos() as f64 / rounds as f64
    });
    tokio::runtime::Runtime::new()
        .expect("runtime handle")
        .block_on(task)
        .expect("probe task")
}

fn inputs(n: u64) -> Vec<Input> {
    let tail = feature_tail(0);
    (0..n).map(|id| Arc::new(input(id, &tail))).collect()
}

fn class_reply(n: usize) -> PredictReply {
    PredictReply {
        outputs: vec![Output::Class(3); n],
        queue_us: 1,
        compute_us: 2,
    }
}

/// Every probe, as `(metric name, value)`; units are in `PER_LAYER`.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    selection(&mut out);
    cache(&mut out);
    codec(&mut out);
    out.push(("rpc.rtt_us_b1", rpc_rtt_ns() / 1e3));
    out.push(("runtime.wake_us", wake_ns() / 1e3));
    out.push(("runtime.tcp_echo_us", tcp_echo_ns() / 1e3));
    out.push(("runtime.timer_lag_us", timer_lag_ns() / 1e3));
    let h = Histogram::new();
    out.push((
        "metrics.record_ns",
        time_ns(|i| h.record(black_box(i & 0xFFFF))),
    ));
    out
}

fn selection(out: &mut Vec<(&'static str, f64)>) {
    let models: Vec<ModelId> = (0..4).map(|m| ModelId::new(&format!("m{m}"), 1)).collect();
    let policy = Exp4Policy::new(0.02);
    let mut state = PolicyState::uniform(&models, 1);
    let x = inputs(1).remove(0);
    let preds: HashMap<ModelId, Output> = models
        .iter()
        .enumerate()
        .map(|(i, m)| (m.clone(), Output::Class(i as u32 % 2)))
        .collect();
    out.push((
        "selection.select_ns",
        time_ns(|_| {
            black_box(policy.select(black_box(&state), &x));
        }),
    ));
    out.push((
        "selection.combine_ns",
        time_ns(|_| {
            black_box(policy.combine(black_box(&state), &x, &preds));
        }),
    ));
    let feedback = Feedback::class(0);
    out.push((
        "selection.observe_ns",
        time_ns(|_| policy.observe(black_box(&mut state), &x, &feedback, &preds)),
    ));
}

fn cache(out: &mut Vec<(&'static str, f64)>) {
    let model = ModelId::new("m", 1);
    let x = inputs(1).remove(0);
    out.push((
        "cache.key_ns",
        time_ns(|_| {
            black_box(CacheKey::new(black_box(&model), black_box(&x)));
        }),
    ));

    let cache = PredictionCache::new(32_768);
    let key = |i: u64| CacheKey::from_fingerprint(crate::gen::mix64(i), i);
    let insert = |i: u64| {
        drop(cache.lookup_or_pending(key(i)));
        cache.fill(key(i), Ok(Output::Class(1)));
    };
    (0..4096).for_each(insert);
    out.push((
        "cache.fetch_hit_ns",
        time_ns(|i| {
            black_box(cache.fetch(key(i % 4096)));
        }),
    ));
    out.push((
        "cache.fetch_miss_ns",
        time_ns(|i| {
            black_box(cache.fetch(key(1 << 40 | i)));
        }),
    ));
    // Twice the capacity, so every shard is full and each insert evicts.
    (4096..2 * 32_768).for_each(insert);
    out.push(("cache.fill_evict_ns", time_ns(|i| insert(1 << 41 | i))));
}

fn codec(out: &mut Vec<(&'static str, f64)>) {
    for (b, encode_name, decode_name) in [
        (1, "rpc.encode_ns_b1", "rpc.decode_ns_b1"),
        (64, "rpc.encode_ns_b64", "rpc.decode_ns_b64"),
    ] {
        // One round is a request and its reply, as one batch costs.
        let request = Message::PredictRequest { inputs: inputs(b) };
        let reply = Message::PredictResponse(class_reply(b as usize));
        let mut buf = Vec::with_capacity(request.wire_size() + reply.wire_size());
        let encode = time_ns(|i| {
            buf.clear();
            black_box(&request).encode_into(i, &mut buf);
            black_box(&reply).encode_into(i, &mut buf);
            black_box(&buf);
        });
        out.push((encode_name, encode));
        let (req_frame, reply_frame) = (request.encode(0), reply.encode(0));
        let decode = time_ns(|_| {
            black_box(Message::decode(3, black_box(&req_frame[HEADER_LEN..])).expect("request"));
            black_box(Message::decode(4, black_box(&reply_frame[HEADER_LEN..])).expect("reply"));
        });
        out.push((decode_name, decode));
    }
}

/// `predict_batch` of one input against a handler that does nothing,
/// over a real localhost connection.
fn rpc_rtt_ns() -> f64 {
    let rt = tokio::runtime::Runtime::new().expect("runtime handle");
    let handle = rt.block_on(async {
        let mut server = RpcServer::bind("127.0.0.1:0")
            .await
            .expect("bind rpc listener");
        let cfg = ContainerClientConfig {
            container_name: "noop:0".into(),
            model_name: "noop".into(),
            model_version: 1,
        };
        let addr = server.local_addr();
        tokio::spawn(async move {
            let handler = Arc::new(|inputs: Vec<Input>| Ok(class_reply(inputs.len())));
            let _ = serve_container(addr, cfg, handler).await;
        });
        Arc::new(
            server
                .next_container()
                .await
                .expect("container registers")
                .1,
        )
    });
    let batch = inputs(1);
    time_async_ns(move || {
        let reply = handle.predict_batch(&batch);
        async move {
            reply.await.expect("no-op reply");
        }
    })
}

/// One task waking another: half a ping-pong between two tasks.
fn wake_ns() -> f64 {
    let (ping_tx, mut ping_rx) = tokio::sync::mpsc::unbounded_channel::<()>();
    let (pong_tx, pong_rx) = tokio::sync::mpsc::unbounded_channel::<()>();
    tokio::spawn(async move {
        while ping_rx.recv().await.is_some() {
            if pong_tx.send(()).is_err() {
                break;
            }
        }
    });
    let pong_rx = Arc::new(tokio::sync::Mutex::new(pong_rx));
    time_async_ns(move || {
        let (ping_tx, pong_rx) = (ping_tx.clone(), pong_rx.clone());
        async move {
            ping_tx.send(()).expect("echo task alive");
            pong_rx.lock().await.recv().await.expect("echo task alive");
        }
    }) / 2.0
}

/// 64 bytes to an echo task and back over localhost.
fn tcp_echo_ns() -> f64 {
    let rt = tokio::runtime::Runtime::new().expect("runtime handle");
    let conn = rt.block_on(async {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0")
            .await
            .expect("bind echo");
        let addr = listener.local_addr().expect("echo address");
        tokio::spawn(async move {
            let (mut s, _) = listener.accept().await.expect("accept echo client");
            s.set_nodelay(true).expect("set nodelay");
            let mut buf = [0u8; 64];
            while s.read_exact(&mut buf).await.is_ok() {
                if s.write_all(&buf).await.is_err() {
                    break;
                }
            }
        });
        let conn = tokio::net::TcpStream::connect(addr)
            .await
            .expect("connect echo");
        conn.set_nodelay(true).expect("set nodelay");
        conn
    });
    let conn = Arc::new(tokio::sync::Mutex::new(conn));
    time_async_ns(move || {
        let conn = conn.clone();
        async move {
            let mut conn = conn.lock().await;
            let mut buf = [7u8; 64];
            conn.write_all(&buf).await.expect("echo write");
            conn.read_exact(&mut buf).await.expect("echo read");
        }
    })
}

/// How far past a 1 ms deadline `sleep_until` wakes a task.
fn timer_lag_ns() -> f64 {
    const STEP: Duration = Duration::from_millis(1);
    time_async_ns(|| async {
        tokio::time::sleep_until(tokio::time::Instant::now() + STEP).await;
    }) - STEP.as_nanos() as f64
}
