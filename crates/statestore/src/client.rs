//! Async client for the statestore protocol.

use crate::resp::{encode_command, RespValue};
use std::net::SocketAddr;
use std::time::Duration;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::TcpStream;
use tokio::sync::Mutex;

/// Reconnect budget per call: redials with exponential
/// backoff starting at [`RETRY_BACKOFF_FLOOR`], doubling up to
/// [`RETRY_BACKOFF_CAP`], at most this many retries per call.
const MAX_RETRIES: u32 = 5;
const RETRY_BACKOFF_FLOOR: Duration = Duration::from_millis(10);
const RETRY_BACKOFF_CAP: Duration = Duration::from_millis(200);

/// A read-only connection to a [`crate::StateStoreServer`]: an
/// out-of-process peek at the selection state Clipper keeps there.
/// Requests are serialized per connection (clone-free; wrap in `Arc` and
/// share, or open several). Both wire buffers are retained across calls,
/// so a steady-state request allocates nothing on the encode side.
///
/// The connection self-heals: when the server drops it (restart, crash,
/// network blip), a call transparently redials with capped exponential
/// backoff and re-issues the command. A call that runs out of retries
/// still leaves the client usable: the dead stream is discarded and the
/// next call dials fresh.
pub struct StateStoreClient {
    addr: SocketAddr,
    conn: Mutex<ConnState>,
}

struct ConnState {
    /// `None` after a disconnect — the next call redials lazily.
    stream: Option<TcpStream>,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
}

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure.
    Io(std::io::Error),
    /// Protocol violation.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
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
/// server answering with something unexpected): redialing may help.
fn is_disconnect(e: &ClientError) -> bool {
    match e {
        ClientError::Io(_) => true,
        ClientError::Protocol(m) => m == "server closed",
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
                inbuf: Vec::with_capacity(4096),
                outbuf: Vec::with_capacity(4096),
            }),
        })
    }

    async fn dial(addr: SocketAddr) -> Result<TcpStream, ClientError> {
        let stream = TcpStream::connect(addr).await?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Issue one command, redialing and replaying it on disconnect
    /// (capped exponential backoff, [`MAX_RETRIES`] retries). A failed
    /// call discards the dead stream, so the next one starts from a fresh
    /// dial.
    async fn call(&self, parts: &[&[u8]]) -> Result<RespValue, ClientError> {
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
                    if !is_disconnect(&e) || attempt >= MAX_RETRIES {
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
        stream.write_all(outbuf).await?;
        loop {
            match RespValue::parse(inbuf).map_err(ClientError::Protocol)? {
                Some((v, used)) => {
                    inbuf.drain(..used);
                    return Ok(v);
                }
                None => {
                    let n = stream.read_buf(inbuf).await?;
                    if n == 0 {
                        return Err(ClientError::Protocol("server closed".into()));
                    }
                }
            }
        }
    }

    /// `GET key`.
    pub async fn get(&self, key: &str) -> Result<Option<Vec<u8>>, ClientError> {
        match self.call(&[b"GET", key.as_bytes()]).await? {
            RespValue::Bulk(v) => Ok(Some(v)),
            RespValue::Null => Ok(None),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// `DBSIZE` → key count.
    pub async fn dbsize(&self) -> Result<usize, ClientError> {
        match self.call(&[b"DBSIZE"]).await? {
            RespValue::Integer(n) => Ok(n as usize),
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

    async fn pair() -> (Arc<StateStore>, StateStoreServer, StateStoreClient) {
        let store = Arc::new(StateStore::new());
        let server = StateStoreServer::bind("127.0.0.1:0", store.clone())
            .await
            .unwrap();
        let client = StateStoreClient::connect(server.local_addr())
            .await
            .unwrap();
        (store, server, client)
    }

    #[tokio::test]
    async fn get_and_dbsize_read_the_served_store() {
        let (store, _server, client) = pair().await;
        assert!(client.get("k").await.unwrap().is_none());
        assert_eq!(client.dbsize().await.unwrap(), 0);
        store.set("k", b"value".to_vec());
        assert_eq!(client.get("k").await.unwrap().unwrap(), b"value");
        assert_eq!(client.dbsize().await.unwrap(), 1);
    }

    #[tokio::test]
    async fn client_redials_after_its_connection_is_severed() {
        let (store, server, client) = pair().await;
        store.set("k", b"v1".to_vec());
        assert_eq!(client.get("k").await.unwrap().unwrap(), b"v1");
        // Simulated crash/restart: every established connection dies;
        // the listener (the "restarted" process) accepts fresh dials.
        server.sever_connections();
        // Calls must heal transparently — no visible error.
        assert_eq!(client.get("k").await.unwrap().unwrap(), b"v1");
        server.sever_connections();
        store.set("k", b"v2".to_vec());
        assert_eq!(client.get("k").await.unwrap().unwrap(), b"v2");
        assert_eq!(client.dbsize().await.unwrap(), 1);
    }

    #[tokio::test]
    async fn client_survives_repeated_severing_mid_traffic() {
        // Kill the connection every few operations while the store
        // changes under the reader; zero client-visible failures.
        let (store, server, client) = pair().await;
        for i in 0..30u32 {
            if i % 5 == 0 {
                server.sever_connections();
            }
            let key = format!("k:{}", i % 3);
            store.set(&key, i.to_string().into_bytes());
            let got = client.get(&key).await.unwrap().unwrap();
            assert_eq!(got, i.to_string().into_bytes());
        }
        assert_eq!(client.dbsize().await.unwrap(), 3);
    }

    #[tokio::test]
    async fn a_call_past_its_retries_fails_and_the_next_one_redials() {
        let (store, server, client) = pair().await;
        store.set("s", b"a".to_vec());
        assert_eq!(client.get("s").await.unwrap().unwrap(), b"a");
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
            match client.get("s").await {
                Ok(_) => tokio::task::yield_now().await,
                Err(e) => break e,
            }
        };
        assert!(
            super::is_disconnect(&err),
            "the call must surface the disconnect, got {err:?}"
        );
        // The dead stream was discarded: the next call dials afresh (and,
        // with nothing listening, fails to connect).
        let err2 = client.dbsize().await.unwrap_err();
        assert!(matches!(err2, ClientError::Io(_)));
        assert!(client.conn.lock().await.stream.is_none());
    }

    #[tokio::test]
    async fn many_clients_share_one_server() {
        let (store, server, _) = pair().await;
        let addr = server.local_addr();
        let mut tasks = Vec::new();
        for i in 0..8u8 {
            store.set(&format!("user:{i}"), vec![i]);
            tasks.push(tokio::spawn(async move {
                let c = StateStoreClient::connect(addr).await.unwrap();
                c.get(&format!("user:{i}")).await.unwrap().unwrap()
            }));
        }
        for (i, t) in tasks.into_iter().enumerate() {
            assert_eq!(t.await.unwrap(), vec![i as u8]);
        }
    }
}
