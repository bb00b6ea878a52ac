//! Clipper-side RPC server.
//!
//! Containers dial in, register their model, and the server yields a
//! [`TcpContainerHandle`] per registration — a multiplexed, concurrent
//! batch-prediction channel. The model abstraction layer treats the handle
//! as just another [`BatchTransport`].
//!
//! The submitting task writes a batch's request frame itself (through
//! the connection's `Outbox`) and the reader task completes its
//! oneshot, so a round trip wakes three parties: the container's
//! execution thread (straight from its blocking `read`), this reader,
//! and the caller.

use crate::codec::{FrameReader, Outbox};
use crate::error::RpcError;
use crate::message::{Message, PredictReply};
use crate::transport::{BatchTransport, BoxFuture, Input};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::io::AsyncWriteExt;
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::{mpsc, oneshot};

/// Metadata announced by a container at registration.
#[derive(Clone, Debug)]
pub struct ContainerInfo {
    /// Container instance name.
    pub container_name: String,
    /// Model the container serves.
    pub model_name: String,
    /// Model version.
    pub model_version: u32,
    /// Peer address.
    pub remote_addr: SocketAddr,
}

type Pending = Arc<Mutex<HashMap<u64, oneshot::Sender<Result<PredictReply, RpcError>>>>>;

/// A handle to one connected container: submit batches, await replies.
///
/// Requests are multiplexed by id, so many batches can be in flight at
/// once (the container decides its own execution order).
pub struct TcpContainerHandle {
    id: String,
    out: Outbox,
    pending: Pending,
    next_id: AtomicU64,
    healthy: Arc<AtomicBool>,
    last_seen: Arc<Mutex<Instant>>,
}

impl TcpContainerHandle {
    /// Start active liveness probing: send a heartbeat every `interval`
    /// and mark the container unhealthy if nothing (acks, replies) has
    /// been heard for `grace`. A hung container — connection open but not
    /// reading — is detected this way; a closed connection is already
    /// detected passively. Health recovers automatically if the container
    /// resumes responding. The probe stops when the connection dies.
    pub fn start_heartbeats(&self, interval: Duration, grace: Duration) {
        let out = self.out.clone();
        let healthy = self.healthy.clone();
        let last_seen = self.last_seen.clone();
        let pending = self.pending.clone();
        tokio::spawn(async move {
            loop {
                tokio::time::sleep(interval).await;
                if out.send(&Message::Heartbeat, 0).is_err() {
                    healthy.store(false, Ordering::Release);
                    return;
                }
                let silent_for = last_seen.lock().elapsed();
                if silent_for > grace {
                    // Hung: fail what's in flight and flag the replica so
                    // the routing layer skips it.
                    if healthy.swap(false, Ordering::AcqRel) {
                        let mut p = pending.lock();
                        for (_, otx) in p.drain() {
                            let _ = otx.send(Err(RpcError::Timeout));
                        }
                    }
                } else if !healthy.load(Ordering::Acquire) && silent_for < grace {
                    // The container answered again: it may have been
                    // temporarily wedged (GC pause); readmit it.
                    healthy.store(true, Ordering::Release);
                }
            }
        });
    }
}

impl TcpContainerHandle {
    /// Register a reply slot and write the request frame from here; a
    /// failed write marks the replica unhealthy and fails the slot.
    fn submit(&self, inputs: Vec<Input>) -> oneshot::Receiver<Result<PredictReply, RpcError>> {
        let (otx, orx) = oneshot::channel();
        if !self.healthy.load(Ordering::Acquire) {
            let _ = otx.send(Err(RpcError::ConnectionClosed));
            return orx;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.pending.lock().insert(id, otx);
        if let Err(e) = self.out.send(&Message::PredictRequest { inputs }, id) {
            self.healthy.store(false, Ordering::Release);
            if let Some(otx) = self.pending.lock().remove(&id) {
                let _ = otx.send(Err(e));
            }
        }
        orx
    }
}

impl BatchTransport for TcpContainerHandle {
    fn predict_batch(&self, inputs: &[Input]) -> BoxFuture<Result<PredictReply, RpcError>> {
        // `to_vec` clones `Arc` pointers; the feature data is read out of
        // the shared vectors only when the frame is encoded.
        let rx = self.submit(inputs.to_vec());
        Box::pin(async move {
            match rx.await {
                Ok(r) => r,
                Err(_) => Err(RpcError::ConnectionClosed),
            }
        })
    }

    fn id(&self) -> String {
        self.id.clone()
    }

    fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }
}

/// The Clipper-side listener: accepts container connections and yields
/// registered containers.
pub struct RpcServer {
    local_addr: SocketAddr,
    registrations: mpsc::UnboundedReceiver<(ContainerInfo, TcpContainerHandle)>,
}

impl RpcServer {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"`) and start accepting
    /// container connections in the background.
    pub async fn bind(addr: &str) -> Result<Self, RpcError> {
        let listener = TcpListener::bind(addr).await?;
        let local_addr = listener.local_addr()?;
        let (reg_tx, registrations) = mpsc::unbounded_channel();
        tokio::spawn(accept_loop(listener, reg_tx));
        Ok(RpcServer {
            local_addr,
            registrations,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Wait for the next container to register. Returns `None` if the
    /// accept loop has shut down.
    pub async fn next_container(&mut self) -> Option<(ContainerInfo, TcpContainerHandle)> {
        self.registrations.recv().await
    }
}

async fn accept_loop(
    listener: TcpListener,
    reg_tx: mpsc::UnboundedSender<(ContainerInfo, TcpContainerHandle)>,
) {
    loop {
        let (stream, peer) = match listener.accept().await {
            Ok(x) => x,
            Err(_) => break,
        };
        let reg_tx = reg_tx.clone();
        tokio::spawn(async move {
            // Errors here just drop the connection; the container retries.
            let _ = handle_connection(stream, peer, reg_tx).await;
        });
    }
}

async fn handle_connection(
    stream: TcpStream,
    peer: SocketAddr,
    reg_tx: mpsc::UnboundedSender<(ContainerInfo, TcpContainerHandle)>,
) -> Result<(), RpcError> {
    stream.set_nodelay(true)?;
    let (rd, mut wr) = stream.into_split();
    let mut rd = FrameReader::new(rd);

    // First frame must be a registration.
    let (reg_id, msg) = rd.next().await?;
    let info = match msg {
        Message::Register {
            container_name,
            model_name,
            model_version,
        } => ContainerInfo {
            container_name,
            model_name,
            model_version,
            remote_addr: peer,
        },
        other => {
            return Err(RpcError::Protocol(format!(
                "expected Register, got {other:?}"
            )));
        }
    };
    wr.write_all(&Message::RegisterAck.encode(reg_id)).await?;

    let pending: Pending = Arc::new(Mutex::new(HashMap::new()));
    let healthy = Arc::new(AtomicBool::new(true));
    let last_seen = Arc::new(Mutex::new(Instant::now()));
    let out = Outbox::new(wr);

    let handle = TcpContainerHandle {
        id: format!("{}/{}", info.model_name, info.container_name),
        out: out.clone(),
        pending: pending.clone(),
        next_id: AtomicU64::new(1),
        healthy: healthy.clone(),
        last_seen: last_seen.clone(),
    };
    // If Clipper is no longer listening for containers, drop quietly.
    if reg_tx.send((info, handle)).is_err() {
        return Ok(());
    }

    // Reader loop: complete pending requests, answer heartbeats.
    loop {
        *last_seen.lock() = Instant::now();
        match rd.next().await {
            Ok((id, Message::PredictResponse(reply))) => {
                if let Some(otx) = pending.lock().remove(&id) {
                    let _ = otx.send(Ok(reply));
                }
            }
            Ok((id, Message::Error { message })) => {
                if let Some(otx) = pending.lock().remove(&id) {
                    let _ = otx.send(Err(RpcError::Remote(message)));
                }
            }
            Ok((id, Message::Heartbeat)) => {
                let _ = out.send(&Message::HeartbeatAck, id);
            }
            Ok((_, Message::HeartbeatAck)) => {}
            Ok((_, Message::Shutdown)) | Err(_) => break,
            Ok((_, other)) => {
                // Unexpected but non-fatal; log-worthy in a real deployment.
                let _ = other;
            }
        }
    }

    // Connection is gone: fail everything still pending, and every
    // later send (which also stops the heartbeat prober).
    healthy.store(false, Ordering::Release);
    out.close();
    let mut p = pending.lock();
    for (_, otx) in p.drain() {
        let _ = otx.send(Err(RpcError::ConnectionClosed));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{serve_container, BatchHandler, ContainerClientConfig};
    use crate::message::WireOutput;
    use crate::transport::as_inputs;
    use std::time::Duration;

    struct Doubler;
    impl BatchHandler for Doubler {
        fn handle_batch(&self, inputs: Vec<Input>) -> Result<PredictReply, String> {
            Ok(PredictReply {
                outputs: inputs
                    .iter()
                    .map(|x| WireOutput::Class((x.len() * 2) as u32))
                    .collect(),
                queue_us: 0,
                compute_us: 10,
            })
        }
    }

    async fn start_pair() -> (RpcServer, tokio::task::JoinHandle<()>) {
        serve_with(Arc::new(Doubler)).await
    }

    async fn serve_with(
        handler: Arc<dyn BatchHandler>,
    ) -> (RpcServer, tokio::task::JoinHandle<()>) {
        let server = RpcServer::bind("127.0.0.1:0").await.unwrap();
        let addr = server.local_addr();
        let cfg = ContainerClientConfig {
            container_name: "c0".into(),
            model_name: "doubler".into(),
            model_version: 1,
        };
        let client = tokio::spawn(async move {
            let _ = serve_container(addr, cfg, handler).await;
        });
        (server, client)
    }

    #[tokio::test]
    async fn container_registers_and_serves_batches() {
        let (mut server, _client) = start_pair().await;
        let (info, handle) = server.next_container().await.unwrap();
        assert_eq!(info.model_name, "doubler");
        assert_eq!(info.container_name, "c0");

        let reply = handle
            .predict_batch(&as_inputs(vec![vec![0.0; 3], vec![0.0; 5]]))
            .await
            .unwrap();
        assert_eq!(
            reply.outputs,
            vec![WireOutput::Class(6), WireOutput::Class(10)]
        );
        assert!(handle.is_healthy());
    }

    #[tokio::test]
    async fn concurrent_requests_multiplex() {
        let (mut server, _client) = start_pair().await;
        let (_, handle) = server.next_container().await.unwrap();
        let handle = Arc::new(handle);
        let mut tasks = Vec::new();
        for i in 0..32usize {
            let h = handle.clone();
            tasks.push(tokio::spawn(async move {
                let r = h
                    .predict_batch(&as_inputs(vec![vec![0.0; i]]))
                    .await
                    .unwrap();
                assert_eq!(r.outputs[0], WireOutput::Class((i * 2) as u32));
            }));
        }
        for t in tasks {
            t.await.unwrap();
        }
    }

    #[tokio::test]
    async fn concurrent_senders_write_only_whole_frames() {
        let (mut server, client) = start_pair().await;
        let (_, handle) = server.next_container().await.unwrap();
        // Millisecond heartbeats: the prober writes beside 16 submitting
        // tasks, and the container answers acks and batches in frame
        // order. A torn or interleaved frame would kill the connection.
        handle.start_heartbeats(Duration::from_millis(1), Duration::from_secs(5));
        let handle = Arc::new(handle);
        let tasks: Vec<_> = (0..16usize)
            .map(|t| {
                let h = handle.clone();
                tokio::spawn(async move {
                    for i in 0..100 {
                        let n = t * 100 + i;
                        let r = h.predict_batch(&as_inputs(vec![vec![0.0; n]])).await;
                        assert_eq!(r.unwrap().outputs, vec![WireOutput::Class(2 * n as u32)]);
                    }
                })
            })
            .collect();
        for t in tasks {
            t.await.unwrap();
        }
        assert!(handle.is_healthy());
        client.abort();
    }

    #[tokio::test]
    async fn a_predict_dropped_after_its_first_poll_leaves_the_connection_usable() {
        // The dropped batch's reply arrives after the drop.
        let slow_first = |inputs: Vec<Input>| {
            if inputs[0].len() == 4 {
                std::thread::sleep(Duration::from_millis(30));
            }
            Doubler.handle_batch(inputs)
        };
        let (mut server, _client) = serve_with(Arc::new(slow_first)).await;
        let (_, handle) = server.next_container().await.unwrap();
        let mut dropped = handle.predict_batch(&as_inputs(vec![vec![0.0; 4]]));
        std::future::poll_fn(|cx| {
            assert!(dropped.as_mut().poll(cx).is_pending());
            std::task::Poll::Ready(())
        })
        .await;
        drop(dropped);
        let r = handle
            .predict_batch(&as_inputs(vec![vec![0.0; 3]]))
            .await
            .unwrap();
        assert_eq!(r.outputs, vec![WireOutput::Class(6)]);
        assert!(handle.is_healthy());
    }

    #[tokio::test]
    async fn dead_container_fails_pending_and_future_requests() {
        let (mut server, client) = start_pair().await;
        let (_, handle) = server.next_container().await.unwrap();
        // Kill the container task abruptly.
        client.abort();
        // Give the reader a moment to notice the close.
        tokio::time::sleep(Duration::from_millis(50)).await;
        let err = handle
            .predict_batch(&as_inputs(vec![vec![1.0]]))
            .await
            .unwrap_err();
        assert!(matches!(err, RpcError::ConnectionClosed | RpcError::Io(_)));
        assert!(!handle.is_healthy());
    }

    #[tokio::test]
    async fn aborting_the_container_mid_batch_kills_it() {
        let calls = Arc::new(AtomicU64::new(0));
        let seen = calls.clone();
        let slow = move |inputs: Vec<Input>| {
            seen.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(100));
            Doubler.handle_batch(inputs)
        };
        let (mut server, client) = serve_with(Arc::new(slow)).await;
        let (_, handle) = server.next_container().await.unwrap();
        let in_flight = handle.predict_batch(&as_inputs(vec![vec![1.0]]));
        while calls.load(Ordering::SeqCst) == 0 {
            tokio::time::sleep(Duration::from_millis(1)).await;
        }

        client.abort();
        let aborted = Instant::now();
        let late = handle.predict_batch(&as_inputs(vec![vec![2.0]]));
        for result in [in_flight.await, late.await] {
            let err = result.unwrap_err();
            assert!(
                matches!(err, RpcError::ConnectionClosed | RpcError::Io(_)),
                "{err:?}"
            );
        }
        assert!(
            aborted.elapsed() < Duration::from_millis(200),
            "the abort took {:?} to reach Clipper",
            aborted.elapsed()
        );
        assert!(!handle.is_healthy());
        // Outlive the batch that was running: the one sent after the
        // abort never reached the handler.
        tokio::time::sleep(Duration::from_millis(150)).await;
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[tokio::test]
    async fn heartbeats_detect_a_hung_container() {
        // A "container" that registers, then never reads again — the
        // connection stays open, so only active probing can catch it.
        let mut server = RpcServer::bind("127.0.0.1:0").await.unwrap();
        let addr = server.local_addr();
        tokio::spawn(async move {
            let stream = tokio::net::TcpStream::connect(addr).await.unwrap();
            let (rd, mut wr) = stream.into_split();
            let register = Message::Register {
                container_name: "hung".into(),
                model_name: "m".into(),
                model_version: 1,
            };
            wr.write_all(&register.encode(0)).await.unwrap();
            // Read the RegisterAck, then wedge: hold the socket open but
            // never read or write again.
            let mut rd = FrameReader::new(rd);
            let _ = rd.next().await;
            std::future::pending::<()>().await;
        });
        let (_, handle) = server.next_container().await.unwrap();
        assert!(handle.is_healthy());
        handle.start_heartbeats(Duration::from_millis(20), Duration::from_millis(60));
        // A request gets stuck in the hung container...
        let pending = handle.predict_batch(&as_inputs(vec![vec![1.0]]));
        // ...and the prober flags the replica and fails the request.
        let err = tokio::time::timeout(Duration::from_millis(500), pending)
            .await
            .expect("prober must fail the pending request")
            .unwrap_err();
        assert!(matches!(err, RpcError::Timeout));
        assert!(!handle.is_healthy());
    }

    #[tokio::test]
    async fn heartbeats_keep_a_live_container_healthy() {
        let (mut server, _client) = start_pair().await;
        let (_, handle) = server.next_container().await.unwrap();
        handle.start_heartbeats(Duration::from_millis(10), Duration::from_millis(40));
        tokio::time::sleep(Duration::from_millis(120)).await;
        assert!(handle.is_healthy(), "responsive container stays healthy");
        let r = handle
            .predict_batch(&as_inputs(vec![vec![0.0; 2]]))
            .await
            .unwrap();
        assert_eq!(r.outputs.len(), 1);
    }

    #[tokio::test]
    async fn multiple_containers_register_independently() {
        let mut server = RpcServer::bind("127.0.0.1:0").await.unwrap();
        let addr = server.local_addr();
        for i in 0..3 {
            let cfg = ContainerClientConfig {
                container_name: format!("c{i}"),
                model_name: "m".into(),
                model_version: 1,
            };
            tokio::spawn(async move {
                let _ = serve_container(addr, cfg, Arc::new(Doubler)).await;
            });
        }
        let mut seen = Vec::new();
        for _ in 0..3 {
            let (info, _) = server.next_container().await.unwrap();
            seen.push(info.container_name);
        }
        seen.sort();
        assert_eq!(seen, vec!["c0", "c1", "c2"]);
    }
}
