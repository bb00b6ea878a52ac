//! Async client for the statestore protocol.

use crate::resp::{encode_command, RespValue};
use crate::store::CasOutcome;
use bytes::BytesMut;
use std::net::SocketAddr;
use std::time::Duration;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::TcpStream;
use tokio::sync::Mutex;

/// Largest encode buffer kept alive between calls; one oversized SET
/// shouldn't pin its value's worth of memory on the connection forever.
const RETAINED_BUF: usize = 64 * 1024;

/// Reconnect budget for retryable calls: redials with exponential
/// backoff starting at [`RETRY_BACKOFF_FLOOR`], doubling up to
/// [`RETRY_BACKOFF_CAP`], at most this many retries per call.
const MAX_RETRIES: u32 = 5;
const RETRY_BACKOFF_FLOOR: Duration = Duration::from_millis(10);
const RETRY_BACKOFF_CAP: Duration = Duration::from_millis(200);

/// A connection to a [`crate::StateStoreServer`]. Requests are serialized
/// per connection (clone-free; wrap in `Arc` and share, or open several).
/// Both wire buffers are retained across calls, so a steady-state request
/// allocates nothing on the encode side.
///
/// The connection self-heals: when the server drops it (restart, crash,
/// network blip), *retryable* calls — reads, plus at-least-once-safe
/// writes like `SET` — transparently redial with capped exponential
/// backoff and re-issue the command. `CAS` never auto-retries (a replayed
/// CAS whose first application succeeded would misreport `Conflict`), but
/// even a non-retryable failure leaves the client usable: the dead stream
/// is discarded and the next call dials fresh.
pub struct StateStoreClient {
    addr: SocketAddr,
    conn: Mutex<ConnState>,
}

struct ConnState {
    /// `None` after a disconnect — the next call redials lazily.
    stream: Option<TcpStream>,
    inbuf: BytesMut,
    outbuf: BytesMut,
}

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure.
    Io(std::io::Error),
    /// Server replied with an error we don't model.
    Server(String),
    /// Protocol violation.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server(m) => write!(f, "server: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Whether an error means the connection is gone (as opposed to the
/// server answering with an application error): redialing may help.
fn is_disconnect(e: &ClientError) -> bool {
    match e {
        ClientError::Io(_) => true,
        ClientError::Protocol(m) => m == "server closed",
        ClientError::Server(_) => false,
    }
}

impl StateStoreClient {
    /// Connect to a server.
    pub async fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        let stream = Self::dial(addr).await?;
        Ok(StateStoreClient {
            addr,
            conn: Mutex::new(ConnState {
                stream: Some(stream),
                inbuf: BytesMut::with_capacity(4096),
                outbuf: BytesMut::with_capacity(4096),
            }),
        })
    }

    async fn dial(addr: SocketAddr) -> Result<TcpStream, ClientError> {
        let stream = TcpStream::connect(addr).await?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Issue one command. `retryable` calls redial and replay on
    /// disconnect (capped exponential backoff, [`MAX_RETRIES`] retries);
    /// non-retryable calls fail fast but still discard the dead stream so
    /// the *next* call starts from a fresh dial.
    async fn call(&self, parts: &[&[u8]], retryable: bool) -> Result<RespValue, ClientError> {
        let mut guard = self.conn.lock().await;
        let mut backoff = RETRY_BACKOFF_FLOOR;
        let mut attempt: u32 = 0;
        loop {
            let result = if guard.stream.is_some() {
                Self::exchange(&mut guard, parts).await
            } else {
                match Self::dial(self.addr).await {
                    Ok(s) => {
                        // A fresh connection can't have bytes of an old
                        // reply in flight.
                        guard.inbuf.clear();
                        guard.stream = Some(s);
                        Self::exchange(&mut guard, parts).await
                    }
                    Err(e) => Err(e),
                }
            };
            match result {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if is_disconnect(&e) {
                        guard.stream = None;
                    }
                    if !retryable || !is_disconnect(&e) || attempt >= MAX_RETRIES {
                        return Err(e);
                    }
                    attempt += 1;
                    tokio::time::sleep(backoff).await;
                    backoff = (backoff * 2).min(RETRY_BACKOFF_CAP);
                }
            }
        }
    }

    async fn exchange(conn: &mut ConnState, parts: &[&[u8]]) -> Result<RespValue, ClientError> {
        let stream = conn.stream.as_mut().expect("exchange requires a stream");
        let (inbuf, outbuf) = (&mut conn.inbuf, &mut conn.outbuf);
        outbuf.clear();
        encode_command(outbuf, parts);
        let sent = stream.write_all(outbuf).await;
        if outbuf.len() > RETAINED_BUF {
            *outbuf = BytesMut::with_capacity(4096);
        }
        sent?;
        loop {
            match RespValue::parse(inbuf).map_err(ClientError::Protocol)? {
                Some(v) => return Ok(v),
                None => {
                    let n = stream.read_buf(inbuf).await?;
                    if n == 0 {
                        return Err(ClientError::Protocol("server closed".into()));
                    }
                }
            }
        }
    }

    /// `PING` → server liveness.
    pub async fn ping(&self) -> Result<(), ClientError> {
        match self.call(&[b"PING"], true).await? {
            RespValue::Simple(s) if s == "PONG" => Ok(()),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// `GET key`.
    pub async fn get(&self, key: &str) -> Result<Option<Vec<u8>>, ClientError> {
        match self.call(&[b"GET", key.as_bytes()], true).await? {
            RespValue::Bulk(v) => Ok(Some(v)),
            RespValue::Null => Ok(None),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// `GETV key` → value and version.
    pub async fn get_versioned(&self, key: &str) -> Result<Option<(Vec<u8>, u64)>, ClientError> {
        match self.call(&[b"GETV", key.as_bytes()], true).await? {
            RespValue::Array(items) => match items.as_slice() {
                [RespValue::Bulk(v), RespValue::Integer(ver)] => Ok(Some((v.clone(), *ver as u64))),
                other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
            },
            RespValue::Null => Ok(None),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// `SET key value` → new version.
    pub async fn set(&self, key: &str, value: Vec<u8>) -> Result<u64, ClientError> {
        match self.call(&[b"SET", key.as_bytes(), &value], true).await? {
            RespValue::Integer(v) => Ok(v as u64),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// `CAS key version value`.
    pub async fn cas(
        &self,
        key: &str,
        expected_version: u64,
        value: Vec<u8>,
    ) -> Result<CasOutcome, ClientError> {
        let mut tmp = [0u8; 20];
        let ver = crate::resp::u64_digits(&mut tmp, expected_version);
        let reply = self
            .call(&[b"CAS", key.as_bytes(), ver, &value], false)
            .await?;
        match reply {
            RespValue::Integer(v) => Ok(CasOutcome::Stored(v as u64)),
            RespValue::Error(e) if e.starts_with("CONFLICT") => {
                let ver = e
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ClientError::Protocol(format!("bad conflict: {e}")))?;
                Ok(CasOutcome::Conflict(ver))
            }
            RespValue::Error(e) if e == "MISSING" => Ok(CasOutcome::Missing),
            RespValue::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// `DEL key` → whether it existed.
    pub async fn del(&self, key: &str) -> Result<bool, ClientError> {
        match self.call(&[b"DEL", key.as_bytes()], true).await? {
            RespValue::Integer(n) => Ok(n == 1),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// `DBSIZE` → live key count.
    pub async fn dbsize(&self) -> Result<usize, ClientError> {
        match self.call(&[b"DBSIZE"], true).await? {
            RespValue::Integer(n) => Ok(n as usize),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// `KEYS prefix` → sorted live keys under the prefix (config-plane
    /// scan used for registry rehydration).
    pub async fn keys(&self, prefix: &str) -> Result<Vec<String>, ClientError> {
        match self.call(&[b"KEYS", prefix.as_bytes()], true).await? {
            RespValue::Array(items) => items
                .into_iter()
                .map(|v| match v {
                    RespValue::Bulk(b) => Ok(String::from_utf8_lossy(&b).into_owned()),
                    other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
                })
                .collect(),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::StateStoreServer;
    use crate::store::StateStore;
    use std::sync::Arc;

    async fn pair() -> (StateStoreServer, StateStoreClient) {
        let server = StateStoreServer::bind("127.0.0.1:0", Arc::new(StateStore::new()))
            .await
            .unwrap();
        let client = StateStoreClient::connect(server.local_addr())
            .await
            .unwrap();
        (server, client)
    }

    #[tokio::test]
    async fn ping_get_set_roundtrip() {
        let (_server, client) = pair().await;
        client.ping().await.unwrap();
        assert!(client.get("k").await.unwrap().is_none());
        let v = client.set("k", b"value".to_vec()).await.unwrap();
        assert_eq!(v, 1);
        assert_eq!(client.get("k").await.unwrap().unwrap(), b"value");
        assert_eq!(client.dbsize().await.unwrap(), 1);
        assert_eq!(client.keys("k").await.unwrap(), vec!["k".to_string()]);
        assert!(client.keys("nope").await.unwrap().is_empty());
        assert!(client.del("k").await.unwrap());
    }

    #[tokio::test]
    async fn cas_over_the_wire() {
        let (_server, client) = pair().await;
        let v1 = client.set("s", b"a".to_vec()).await.unwrap();
        let outcome = client.cas("s", v1, b"b".to_vec()).await.unwrap();
        assert_eq!(outcome, CasOutcome::Stored(v1 + 1));
        let stale = client.cas("s", v1, b"c".to_vec()).await.unwrap();
        assert_eq!(stale, CasOutcome::Conflict(v1 + 1));
        let missing = client.cas("nope", 1, b"x".to_vec()).await.unwrap();
        assert_eq!(missing, CasOutcome::Missing);
    }

    #[tokio::test]
    async fn get_versioned_over_the_wire() {
        let (_server, client) = pair().await;
        client.set("k", b"v1".to_vec()).await.unwrap();
        client.set("k", b"v2".to_vec()).await.unwrap();
        let (val, ver) = client.get_versioned("k").await.unwrap().unwrap();
        assert_eq!(val, b"v2");
        assert_eq!(ver, 2);
        assert!(client.get_versioned("absent").await.unwrap().is_none());
    }

    #[tokio::test]
    async fn client_redials_after_its_connection_is_severed() {
        let (server, client) = pair().await;
        client.set("k", b"v1".to_vec()).await.unwrap();
        // Simulated crash/restart: every established connection dies;
        // the listener (the "restarted" process) accepts fresh dials.
        server.sever_connections();
        // Retryable calls must heal transparently — no visible error.
        assert_eq!(client.get("k").await.unwrap().unwrap(), b"v1");
        server.sever_connections();
        let v2 = client.set("k", b"v2".to_vec()).await.unwrap();
        assert_eq!(v2, 2);
        client.ping().await.unwrap();
    }

    #[tokio::test]
    async fn client_survives_repeated_severing_mid_traffic() {
        // Kill the connection every few operations while a mixed
        // read/write workload flows; zero client-visible failures.
        let (server, client) = pair().await;
        for i in 0..30u32 {
            if i % 5 == 0 {
                server.sever_connections();
            }
            let key = format!("k:{}", i % 3);
            client.set(&key, i.to_string().into_bytes()).await.unwrap();
            let got = client.get(&key).await.unwrap().unwrap();
            assert_eq!(got, i.to_string().into_bytes());
        }
        assert_eq!(client.dbsize().await.unwrap(), 3);
    }

    #[tokio::test]
    async fn cas_fails_fast_on_disconnect_but_the_client_recovers() {
        let (server, client) = pair().await;
        let v1 = client.set("s", b"a".to_vec()).await.unwrap();
        let addr = server.local_addr();
        drop(server);
        // The server's tasks are aborted at their next yield: wait until
        // the listener is really closed (a redial can't succeed either),
        // and let a connection poll that is still running serve its last
        // request before the disconnect surfaces.
        while TcpStream::connect(addr).await.is_ok() {
            tokio::task::yield_now().await;
        }
        let err = loop {
            match client.cas("s", v1, b"b".to_vec()).await {
                Ok(_) => tokio::task::yield_now().await,
                Err(e) => break e,
            }
        };
        assert!(
            super::is_disconnect(&err),
            "CAS must surface the disconnect, got {err:?}"
        );
        // A new server on a fresh port is out of reach for this client
        // (fixed addr), but the dead stream must have been discarded so
        // the next call attempts a clean dial rather than reusing it.
        let err2 = client.ping().await.unwrap_err();
        assert!(matches!(err2, ClientError::Io(_)));
    }

    #[tokio::test]
    async fn many_clients_share_one_server() {
        let server = StateStoreServer::bind("127.0.0.1:0", Arc::new(StateStore::new()))
            .await
            .unwrap();
        let addr = server.local_addr();
        let mut tasks = Vec::new();
        for i in 0..8 {
            tasks.push(tokio::spawn(async move {
                let c = StateStoreClient::connect(addr).await.unwrap();
                c.set(&format!("user:{i}"), vec![i as u8]).await.unwrap();
                c.get(&format!("user:{i}")).await.unwrap().unwrap()
            }));
        }
        for (i, t) in tasks.into_iter().enumerate() {
            assert_eq!(t.await.unwrap(), vec![i as u8]);
        }
        assert_eq!(server.store().len(), 8);
    }
}
