//! Shared HTTP-frontend harness for the wire-speed benches.
//!
//! Used by `rpc_latency`'s `http_predict` phase and the `alloc_count`
//! allocations-per-request harness: a Clipper + [`HttpFrontend`] backed
//! by an in-process echo transport, and a buffer-reusing keep-alive
//! client whose steady-state loop performs no allocation of its own (so
//! per-request allocation counts measure the server, not the harness).

use clipper_core::batching::QueueConfig;
use clipper_core::{AppConfig, Clipper, HttpFrontend, ModelId, PolicyKind};
use clipper_rpc::message::{PredictReply, WireOutput};
use clipper_rpc::transport::FnTransport;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::TcpStream;

/// App name served by [`start_echo_frontend`].
pub const APP: &str = "bench";

/// Clipper + HTTP frontend serving app [`APP`] from an in-process echo
/// transport: the first input feature comes back as the class label.
pub async fn start_echo_frontend() -> (HttpFrontend, Clipper) {
    let clipper = Clipper::builder().build();
    let m = ModelId::new("m", 1);
    clipper.add_model(m.clone(), QueueConfig::default());
    clipper
        .add_replica(
            &m,
            Arc::new(FnTransport::new(
                "echo",
                |inputs: &[clipper_rpc::Input]| {
                    Ok(PredictReply {
                        outputs: inputs
                            .iter()
                            .map(|x| WireOutput::Class(x.first().copied().unwrap_or(0.0) as u32))
                            .collect(),
                        queue_us: 0,
                        compute_us: 0,
                    })
                },
            )),
        )
        .unwrap();
    clipper.register_app(
        AppConfig::new(APP, vec![m])
            .with_policy(PolicyKind::Static { model_index: 0 })
            .with_slo(Duration::from_millis(100)),
    );
    let frontend = HttpFrontend::bind("127.0.0.1:0", clipper.clone())
        .await
        .unwrap();
    (frontend, clipper)
}

/// A keep-alive HTTP/1.1 client that reuses one response buffer across
/// calls. After warmup its per-call path allocates nothing.
pub struct HttpClient {
    conn: TcpStream,
    buf: Vec<u8>,
    filled: usize,
}

/// First index of `\r\n\r\n` in `buf`, or `None`.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parse the `content-length` value out of a response head (the frontend
/// always emits the header, lowercase).
fn content_length(head: &[u8]) -> usize {
    const NEEDLE: &[u8] = b"content-length:";
    let mut i = 0;
    while i + NEEDLE.len() <= head.len() {
        if head[i..i + NEEDLE.len()].eq_ignore_ascii_case(NEEDLE) {
            let mut n = 0usize;
            for &b in &head[i + NEEDLE.len()..] {
                match b {
                    b' ' if n == 0 => {}
                    b'0'..=b'9' => n = n * 10 + (b - b'0') as usize,
                    _ => break,
                }
            }
            return n;
        }
        i += 1;
    }
    0
}

impl HttpClient {
    /// Connect to `addr` with `TCP_NODELAY` set.
    pub async fn connect(addr: SocketAddr) -> HttpClient {
        let conn = TcpStream::connect(addr).await.unwrap();
        conn.set_nodelay(true).unwrap();
        HttpClient {
            conn,
            buf: vec![0u8; 16 * 1024],
            filled: 0,
        }
    }

    /// Send one pre-built request and read exactly one response, which
    /// stays in the internal buffer; returns the HTTP status code.
    pub async fn call(&mut self, request: &[u8]) -> u16 {
        self.conn.write_all(request).await.unwrap();
        self.filled = 0;
        let total = loop {
            if let Some(head_end) = find_head_end(&self.buf[..self.filled]) {
                break head_end + 4 + content_length(&self.buf[..head_end]);
            }
            self.fill().await;
        };
        while self.filled < total {
            self.fill().await;
        }
        // "HTTP/1.1 NNN ..."
        let s = &self.buf[9..12];
        (s[0] - b'0') as u16 * 100 + (s[1] - b'0') as u16 * 10 + (s[2] - b'0') as u16
    }

    /// The last response's bytes.
    pub fn last_response(&self) -> &[u8] {
        &self.buf[..self.filled]
    }

    async fn fill(&mut self) {
        if self.filled == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = self.conn.read(&mut self.buf[self.filled..]).await.unwrap();
        assert!(n > 0, "connection closed mid-response");
        self.filled += n;
    }
}

/// Build a predict POST for [`APP`] (keep-alive).
pub fn predict_request(feature: u32) -> Vec<u8> {
    let body = format!("{{\"input\": [{feature}.0]}}");
    format!(
        "POST /api/v1/apps/{APP}/predict HTTP/1.1\r\nhost: x\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Build a control-plane GET (keep-alive).
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: x\r\n\r\n").into_bytes()
}
