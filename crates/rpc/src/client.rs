//! Container-side RPC client.
//!
//! A model container connects to Clipper, registers, and then serves batch
//! prediction requests until shutdown. A container is one thread: its
//! execution thread reads a frame from a plain blocking socket, runs it if
//! it is a batch or answers it if it is a heartbeat, writes the reply with
//! one `write_all`, and reads the next frame. The socket is not registered
//! with the runtime's reactor, so the kernel wakes that thread straight
//! from `read`. Batches therefore run **serially** in
//! arrival order — a container is a serially-shared resource (one model,
//! one device), which is exactly the property the adaptive batching layer
//! (§4.3) is tuned against — and a heartbeat is answered in frame order,
//! after the batch ahead of it, so a wedged handler stops the acks and
//! reads as silence to Clipper's prober.

use crate::codec::{parse_header, HEADER_LEN, INITIAL_BUF, MAX_RETAINED};
use crate::error::RpcError;
use crate::message::{Message, PredictReply};
use crate::transport::Input;
use std::any::Any;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Computes predictions for batches inside a container.
///
/// `handle_batch` runs on the execution thread; it fills in
/// [`PredictReply::compute_us`] with its own measure of model time and
/// [`PredictReply::queue_us`] with any wait of its own (a device queue, a
/// lock); both reach Clipper unchanged.
pub trait BatchHandler: Send + Sync + 'static {
    /// Evaluate one batch of shared feature vectors. `Err` strings become
    /// [`RpcError::Remote`] on the Clipper side and fail only that batch,
    /// not the connection.
    fn handle_batch(&self, inputs: Vec<Input>) -> Result<PredictReply, String>;
}

impl<F> BatchHandler for F
where
    F: Fn(Vec<Input>) -> Result<PredictReply, String> + Send + Sync + 'static,
{
    fn handle_batch(&self, inputs: Vec<Input>) -> Result<PredictReply, String> {
        self(inputs)
    }
}

/// Registration parameters for [`serve_container`].
#[derive(Clone, Debug)]
pub struct ContainerClientConfig {
    /// Unique container instance name.
    pub container_name: String,
    /// Model name to register under.
    pub model_name: String,
    /// Model version.
    pub model_version: u32,
}

/// Connect to Clipper at `addr`, register, and serve batches until the
/// connection closes or a `Shutdown` frame arrives.
///
/// The serving loop is one blocking job; dropping this future (aborting
/// its task) shuts the socket down, so the job exits at its next read or
/// write and Clipper sees EOF.
pub async fn serve_container(
    addr: SocketAddr,
    cfg: ContainerClientConfig,
    handler: Arc<dyn BatchHandler>,
) -> Result<(), RpcError> {
    let joined = |e: tokio::task::JoinError| RpcError::Io(std::io::Error::other(e));
    let conn = tokio::task::spawn_blocking(move || register(addr, &cfg))
        .await
        .map_err(joined)??;
    let _kill = ShutdownOnDrop(conn.try_clone()?);
    tokio::task::spawn_blocking(move || serve(conn, &*handler))
        .await
        .map_err(joined)?
}

/// Shuts the connection down in both directions when dropped.
struct ShutdownOnDrop(TcpStream);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

fn register(addr: SocketAddr, cfg: &ContainerClientConfig) -> Result<TcpStream, RpcError> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    let register = Message::Register {
        container_name: cfg.container_name.clone(),
        model_name: cfg.model_name.clone(),
        model_version: cfg.model_version,
    };
    conn.write_all(&register.encode(0))?;
    match read_frame(&mut conn, &mut Vec::new())? {
        (_, Message::RegisterAck) => Ok(conn),
        (_, other) => Err(RpcError::Protocol(format!(
            "expected RegisterAck, got {other:?}"
        ))),
    }
}

/// The execution thread: read a frame, run or answer it, write the reply,
/// read the next. `buf` holds each frame's payload, then its reply.
fn serve(mut conn: TcpStream, handler: &dyn BatchHandler) -> Result<(), RpcError> {
    let mut buf = Vec::with_capacity(INITIAL_BUF);
    loop {
        let (id, reply) = match read_frame(&mut conn, &mut buf) {
            Ok((id, Message::PredictRequest { inputs })) => (id, run_batch(handler, inputs)),
            Ok((id, Message::Heartbeat)) => (id, Message::HeartbeatAck),
            Ok((_, Message::HeartbeatAck)) => continue,
            Ok((_, Message::Shutdown)) | Err(RpcError::ConnectionClosed) => return Ok(()),
            Ok((_, other)) => return Err(RpcError::Protocol(format!("unexpected {other:?}"))),
            Err(e) => return Err(e),
        };
        buf.clear();
        reply.encode_into(id, &mut buf);
        conn.write_all(&buf)?;
        if buf.capacity() > MAX_RETAINED {
            buf = Vec::with_capacity(INITIAL_BUF);
        }
    }
}

/// Read one frame, its payload into `buf`; EOF is
/// [`RpcError::ConnectionClosed`].
fn read_frame(conn: &mut TcpStream, buf: &mut Vec<u8>) -> Result<(u64, Message), RpcError> {
    let mut header = [0u8; HEADER_LEN];
    conn.read_exact(&mut header).map_err(map_eof)?;
    let (msg_type, request_id, payload_len) = parse_header(&header)?;
    buf.resize(payload_len, 0);
    conn.read_exact(buf).map_err(map_eof)?;
    Ok((request_id, Message::decode(msg_type, buf)?))
}

fn map_eof(e: std::io::Error) -> RpcError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        RpcError::ConnectionClosed
    } else {
        RpcError::Io(e)
    }
}

/// Run one batch; an `Err` or a panic becomes that batch's `Error` reply.
fn run_batch(handler: &dyn BatchHandler, inputs: Vec<Input>) -> Message {
    match catch_unwind(AssertUnwindSafe(|| handler.handle_batch(inputs))) {
        Ok(Ok(reply)) => Message::PredictResponse(reply),
        Ok(Err(message)) => Message::Error { message },
        Err(panic) => Message::Error {
            message: format!("handler panicked: {}", panic_message(&*panic)),
        },
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    text.or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FrameReader;
    use crate::message::WireOutput;
    use crate::server::RpcServer;
    use crate::transport::{as_inputs, BatchTransport};
    use std::time::{Duration, Instant};
    use tokio::io::AsyncWriteExt;
    use tokio::net::tcp::{OwnedReadHalf, OwnedWriteHalf};
    use tokio::net::TcpListener;

    fn cfg(model: &str) -> ContainerClientConfig {
        ContainerClientConfig {
            container_name: "c".into(),
            model_name: model.into(),
            model_version: 1,
        }
    }

    /// Accept one container on `listener` and acknowledge its
    /// registration, speaking the Clipper side of the protocol by hand so
    /// the order in which the container's frames arrive is visible.
    async fn accept_registered(
        listener: &TcpListener,
    ) -> (FrameReader<OwnedReadHalf>, OwnedWriteHalf) {
        let (conn, _) = listener.accept().await.unwrap();
        let (rd, mut wr) = conn.into_split();
        let mut rd = FrameReader::new(rd);
        assert!(matches!(
            rd.next().await.unwrap(),
            (_, Message::Register { .. })
        ));
        wr.write_all(&Message::RegisterAck.encode(0)).await.unwrap();
        (rd, wr)
    }

    #[tokio::test]
    async fn handler_errors_fail_only_that_batch() {
        let mut server = RpcServer::bind("127.0.0.1:0").await.unwrap();
        let addr = server.local_addr();
        tokio::spawn(async move {
            let handler = |inputs: Vec<Input>| -> Result<PredictReply, String> {
                if inputs.len() == 13 {
                    Err("unlucky batch".into())
                } else {
                    Ok(PredictReply {
                        outputs: vec![WireOutput::Class(0); inputs.len()],
                        queue_us: 0,
                        compute_us: 1,
                    })
                }
            };
            let _ = serve_container(addr, cfg("flaky"), Arc::new(handler)).await;
        });
        let (_, handle) = server.next_container().await.unwrap();

        let err = handle
            .predict_batch(&as_inputs(vec![vec![0.0]; 13]))
            .await
            .unwrap_err();
        assert!(matches!(err, RpcError::Remote(ref m) if m.contains("unlucky")));

        // The connection survives: the next batch succeeds.
        let ok = handle
            .predict_batch(&as_inputs(vec![vec![0.0]; 2]))
            .await
            .unwrap();
        assert_eq!(ok.outputs.len(), 2);
    }

    #[tokio::test]
    async fn handler_queue_time_passes_through_and_batches_run_serially() {
        let mut server = RpcServer::bind("127.0.0.1:0").await.unwrap();
        let addr = server.local_addr();
        tokio::spawn(async move {
            let handler = |inputs: Vec<Input>| -> Result<PredictReply, String> {
                std::thread::sleep(Duration::from_millis(30));
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(0); inputs.len()],
                    queue_us: 4_242,
                    compute_us: 30_000,
                })
            };
            let _ = serve_container(addr, cfg("slow"), Arc::new(handler)).await;
        });
        let (_, handle) = server.next_container().await.unwrap();

        // Pipeline two batches (`predict_batch` writes its frame when
        // called): the second runs only after the first (serial
        // container), so its round trip covers both computes.
        let first = handle.predict_batch(&as_inputs(vec![vec![0.0]]));
        let sent = Instant::now();
        let second = handle
            .predict_batch(&as_inputs(vec![vec![0.0]]))
            .await
            .unwrap();
        let round_trip = sent.elapsed();
        let first = first.await.unwrap();
        assert!(
            round_trip >= Duration::from_millis(55),
            "the second batch must wait out the first's compute, came back in {round_trip:?}"
        );
        // The handler's own queue time reaches Clipper unchanged.
        assert_eq!((first.queue_us, second.queue_us), (4_242, 4_242));
    }

    #[tokio::test]
    async fn a_panicking_handler_fails_only_that_batch() {
        let mut server = RpcServer::bind("127.0.0.1:0").await.unwrap();
        let addr = server.local_addr();
        tokio::spawn(async move {
            let handler = |inputs: Vec<Input>| -> Result<PredictReply, String> {
                assert_ne!(inputs.len(), 13, "unlucky batch");
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(0); inputs.len()],
                    queue_us: 0,
                    compute_us: 1,
                })
            };
            let _ = serve_container(addr, cfg("panicky"), Arc::new(handler)).await;
        });
        let (_, handle) = server.next_container().await.unwrap();

        let err = handle
            .predict_batch(&as_inputs(vec![vec![0.0]; 13]))
            .await
            .unwrap_err();
        assert!(
            matches!(err, RpcError::Remote(ref m) if m.contains("panicked") && m.contains("unlucky")),
            "{err:?}"
        );
        let ok = handle
            .predict_batch(&as_inputs(vec![vec![0.0]; 2]))
            .await
            .unwrap();
        assert_eq!(ok.outputs.len(), 2);
    }

    #[tokio::test]
    async fn a_heartbeat_is_answered_after_the_batch_ahead_of_it() {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            // A one-input batch takes 200 ms; any other is instant.
            let handler = |inputs: Vec<Input>| -> Result<PredictReply, String> {
                if inputs.len() == 1 {
                    std::thread::sleep(Duration::from_millis(200));
                }
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(0); inputs.len()],
                    queue_us: 0,
                    compute_us: 0,
                })
            };
            let _ = serve_container(addr, cfg("slow"), Arc::new(handler)).await;
        });
        let (mut rd, mut wr) = accept_registered(&listener).await;

        let batch = |n: usize| Message::PredictRequest {
            inputs: as_inputs(vec![vec![0.0]; n]),
        };
        wr.write_all(&batch(1).encode(1)).await.unwrap();
        tokio::time::sleep(Duration::from_millis(20)).await;
        wr.write_all(&Message::Heartbeat.encode(2)).await.unwrap();
        wr.write_all(&batch(2).encode(3)).await.unwrap();

        // Frame order: the slow batch, then the ack, then the batch
        // queued behind the heartbeat.
        assert!(matches!(
            rd.next().await.unwrap(),
            (1, Message::PredictResponse(_))
        ));
        let replied = Instant::now();
        assert_eq!(rd.next().await.unwrap(), (2, Message::HeartbeatAck));
        assert!(
            replied.elapsed() < Duration::from_millis(50),
            "the ack came {:?} after the batch reply",
            replied.elapsed()
        );
        assert!(matches!(
            rd.next().await.unwrap(),
            (3, Message::PredictResponse(_))
        ));
    }

    #[tokio::test]
    async fn a_shutdown_frame_ends_the_loop_with_ok() {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let handler =
            |_: Vec<Input>| -> Result<PredictReply, String> { Ok(PredictReply::default()) };
        let container = tokio::spawn(serve_container(addr, cfg("m"), Arc::new(handler)));
        let (mut rd, mut wr) = accept_registered(&listener).await;

        wr.write_all(&Message::Heartbeat.encode(1)).await.unwrap();
        assert_eq!(rd.next().await.unwrap(), (1, Message::HeartbeatAck));
        wr.write_all(&Message::Shutdown.encode(0)).await.unwrap();
        let served = tokio::time::timeout(Duration::from_secs(2), container)
            .await
            .expect("the loop ends on Shutdown")
            .unwrap();
        assert!(served.is_ok(), "{served:?}");
        // The container has let go of the connection.
        assert!(matches!(rd.next().await, Err(RpcError::ConnectionClosed)));
    }
}
