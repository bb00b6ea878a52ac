//! Container-side RPC client.
//!
//! A model container connects to Clipper, registers, and then serves batch
//! prediction requests until shutdown. Batches are executed **serially** in
//! arrival order on one execution thread per connection — a container is a
//! serially-shared resource (one model, one device), which is exactly the
//! property the adaptive batching layer (§4.3) is tuned against. The reader
//! hands each batch to that thread, which runs it and writes the reply
//! through the connection's [`Outbox`] itself: one hand-off in, none out.
//! Time a batch spends waiting for the execution thread is reported as
//! `queue_us` so the Figure-11 decomposition can separate queueing from
//! compute.

use crate::codec::{write_frame, FrameReader, Outbox};
use crate::error::RpcError;
use crate::message::{Message, PredictReply};
use crate::transport::Input;
use std::any::Any;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use tokio::net::TcpStream;
use tokio::sync::mpsc;

/// Computes predictions for batches inside a container.
///
/// `handle_batch` runs on the execution thread; it should fill in
/// [`PredictReply::compute_us`] with its own measure of model time (the
/// serving loop fills in `queue_us`).
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
pub async fn serve_container(
    addr: SocketAddr,
    cfg: ContainerClientConfig,
    handler: Arc<dyn BatchHandler>,
) -> Result<(), RpcError> {
    let stream = TcpStream::connect(addr).await?;
    stream.set_nodelay(true)?;
    let (rd, mut wr) = stream.into_split();
    let mut rd = FrameReader::new(rd);

    write_frame(
        &mut wr,
        &Message::Register {
            container_name: cfg.container_name.clone(),
            model_name: cfg.model_name.clone(),
            model_version: cfg.model_version,
        },
        0,
    )
    .await?;
    match rd.next().await? {
        (_, Message::RegisterAck) => {}
        (_, other) => {
            return Err(RpcError::Protocol(format!(
                "expected RegisterAck, got {other:?}"
            )));
        }
    }
    let out = Outbox::new(wr);

    // The execution thread: one blocking job for the connection's life,
    // running batches serially in arrival order and writing each reply
    // itself. It parks its thread in `block_on` on the vendored channel,
    // so the reader's hand-off is one counted wake.
    let (work_tx, mut work_rx) = mpsc::unbounded_channel::<(u64, Vec<Input>, Instant)>();
    let job_out = out.clone();
    let job = tokio::task::spawn_blocking(move || {
        tokio::runtime::block_on(async move {
            while let Some((id, inputs, enqueued)) = work_rx.recv().await {
                let queue_us = enqueued.elapsed().as_micros() as u64;
                let msg = match catch_unwind(AssertUnwindSafe(|| handler.handle_batch(inputs))) {
                    Ok(Ok(mut reply)) => {
                        reply.queue_us = queue_us;
                        Message::PredictResponse(reply)
                    }
                    Ok(Err(e)) => Message::Error { message: e },
                    Err(panic) => Message::Error {
                        message: format!("handler panicked: {}", panic_message(&*panic)),
                    },
                };
                if job_out.send(&msg, id).is_err() {
                    break;
                }
            }
        })
    });

    // Reader loop: batches go to the execution thread; heartbeats are
    // acked here, so they never wait behind compute.
    let result = loop {
        match rd.next().await {
            Ok((id, Message::PredictRequest { inputs })) => {
                if work_tx.send((id, inputs, Instant::now())).is_err() {
                    break Ok(());
                }
            }
            Ok((id, Message::Heartbeat)) => {
                let _ = out.send(&Message::HeartbeatAck, id);
            }
            Ok((_, Message::HeartbeatAck)) => {}
            Ok((_, Message::Shutdown)) => break Ok(()),
            Ok((_, other)) => {
                break Err(RpcError::Protocol(format!("unexpected {other:?}")));
            }
            Err(RpcError::ConnectionClosed) => break Ok(()),
            Err(e) => break Err(e),
        }
    };

    drop(work_tx);
    let _ = job.await;
    result
}

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    text.or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::WireOutput;
    use crate::server::RpcServer;

    #[tokio::test]
    async fn handler_errors_fail_only_that_batch() {
        let mut server = RpcServer::bind("127.0.0.1:0").await.unwrap();
        let addr = server.local_addr();
        let cfg = ContainerClientConfig {
            container_name: "c".into(),
            model_name: "flaky".into(),
            model_version: 1,
        };
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
            let _ = serve_container(addr, cfg, Arc::new(handler)).await;
        });
        let (_, handle) = server.next_container().await.unwrap();
        use crate::transport::BatchTransport;

        let err = handle
            .predict_batch(&crate::transport::as_inputs(vec![vec![0.0]; 13]))
            .await
            .unwrap_err();
        assert!(matches!(err, RpcError::Remote(ref m) if m.contains("unlucky")));

        // The connection survives: the next batch succeeds.
        let ok = handle
            .predict_batch(&crate::transport::as_inputs(vec![vec![0.0]; 2]))
            .await
            .unwrap();
        assert_eq!(ok.outputs.len(), 2);
    }

    #[tokio::test]
    async fn queue_time_is_reported() {
        let mut server = RpcServer::bind("127.0.0.1:0").await.unwrap();
        let addr = server.local_addr();
        let cfg = ContainerClientConfig {
            container_name: "c".into(),
            model_name: "slow".into(),
            model_version: 1,
        };
        tokio::spawn(async move {
            let handler = |inputs: Vec<Input>| -> Result<PredictReply, String> {
                std::thread::sleep(std::time::Duration::from_millis(30));
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(0); inputs.len()],
                    queue_us: 0,
                    compute_us: 30_000,
                })
            };
            let _ = serve_container(addr, cfg, Arc::new(handler)).await;
        });
        let (_, handle) = server.next_container().await.unwrap();
        use crate::transport::BatchTransport;
        let handle = Arc::new(handle);

        // Send two batches back to back: the second must queue behind the
        // first (serial container), so its queue_us reflects the wait.
        let h1 = handle.clone();
        let first =
            tokio::spawn(async move { h1.predict_batch(&[std::sync::Arc::new(vec![0.0])]).await });
        tokio::time::sleep(std::time::Duration::from_millis(5)).await;
        let second = handle
            .predict_batch(&[std::sync::Arc::new(vec![0.0])])
            .await
            .unwrap();
        first.await.unwrap().unwrap();
        assert!(
            second.queue_us >= 10_000,
            "second batch should have queued ≥10ms, got {}µs",
            second.queue_us
        );
    }

    #[tokio::test]
    async fn a_panicking_handler_fails_only_that_batch() {
        let mut server = RpcServer::bind("127.0.0.1:0").await.unwrap();
        let addr = server.local_addr();
        let cfg = ContainerClientConfig {
            container_name: "c".into(),
            model_name: "panicky".into(),
            model_version: 1,
        };
        tokio::spawn(async move {
            let handler = |inputs: Vec<Input>| -> Result<PredictReply, String> {
                assert_ne!(inputs.len(), 13, "unlucky batch");
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(0); inputs.len()],
                    queue_us: 0,
                    compute_us: 1,
                })
            };
            let _ = serve_container(addr, cfg, Arc::new(handler)).await;
        });
        let (_, handle) = server.next_container().await.unwrap();
        use crate::transport::BatchTransport;

        let err = handle
            .predict_batch(&crate::transport::as_inputs(vec![vec![0.0]; 13]))
            .await
            .unwrap_err();
        assert!(
            matches!(err, RpcError::Remote(ref m) if m.contains("panicked") && m.contains("unlucky")),
            "{err:?}"
        );
        let ok = handle
            .predict_batch(&crate::transport::as_inputs(vec![vec![0.0]; 2]))
            .await
            .unwrap();
        assert_eq!(ok.outputs.len(), 2);
    }

    #[tokio::test]
    async fn heartbeats_are_acked_while_a_batch_runs() {
        // Speak the Clipper side of the protocol by hand, so the order in
        // which the container's frames arrive is visible.
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = ContainerClientConfig {
            container_name: "c".into(),
            model_name: "slow".into(),
            model_version: 1,
        };
        tokio::spawn(async move {
            let handler = |inputs: Vec<Input>| -> Result<PredictReply, String> {
                std::thread::sleep(std::time::Duration::from_millis(200));
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(0); inputs.len()],
                    queue_us: 0,
                    compute_us: 200_000,
                })
            };
            let _ = serve_container(addr, cfg, Arc::new(handler)).await;
        });
        let (conn, _) = listener.accept().await.unwrap();
        let (rd, mut wr) = conn.into_split();
        let mut rd = FrameReader::new(rd);
        assert!(matches!(
            rd.next().await.unwrap(),
            (_, Message::Register { .. })
        ));
        write_frame(&mut wr, &Message::RegisterAck, 0)
            .await
            .unwrap();

        let batch = Message::PredictRequest {
            inputs: crate::transport::as_inputs(vec![vec![0.0]]),
        };
        write_frame(&mut wr, &batch, 1).await.unwrap();
        tokio::time::sleep(std::time::Duration::from_millis(20)).await;
        let sent = Instant::now();
        write_frame(&mut wr, &Message::Heartbeat, 2).await.unwrap();
        assert_eq!(rd.next().await.unwrap(), (2, Message::HeartbeatAck));
        assert!(
            sent.elapsed() < std::time::Duration::from_millis(100),
            "the ack waited {:?} for the batch",
            sent.elapsed()
        );
        assert!(matches!(
            rd.next().await.unwrap(),
            (1, Message::PredictResponse(_))
        ));
    }
}
