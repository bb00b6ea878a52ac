//! TCP server exposing a [`StateStore`] over the RESP protocol.
//!
//! Supported commands (case-insensitive):
//! `PING`, `GET k`, `SET k v`, `SETNX k v`, `DEL k`,
//! `CAS k version v`, `GETV k` (returns `[value, version]`), `DBSIZE`,
//! `KEYS prefix`.

use crate::resp::{drain_values, RespValue};
use crate::store::{CasOutcome, StateStore};
use std::net::SocketAddr;
use std::sync::Arc;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};

/// A running statestore listener.
pub struct StateStoreServer {
    local_addr: SocketAddr,
    accept_task: tokio::task::JoinHandle<()>,
    /// Live per-connection tasks, so shutdown (and crash injection via
    /// [`sever_connections`](Self::sever_connections)) actually drops
    /// established connections instead of leaking them past the server.
    conns: Arc<parking_lot::Mutex<Vec<tokio::task::JoinHandle<()>>>>,
}

impl StateStoreServer {
    /// Bind to `addr` and serve `store` in the background.
    pub async fn bind(addr: &str, store: Arc<StateStore>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr).await?;
        let local_addr = listener.local_addr()?;
        let conns: Arc<parking_lot::Mutex<Vec<tokio::task::JoinHandle<()>>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let conns_for_accept = conns.clone();
        let accept_task = tokio::spawn(async move {
            while let Ok((conn, _)) = listener.accept().await {
                let store = store.clone();
                // Lock before spawning: a connection must be in the list
                // by the time it can serve a request, or a
                // `sever_connections` racing this accept would miss it.
                let mut live = conns_for_accept.lock();
                live.retain(|t| !t.is_finished());
                live.push(tokio::spawn(async move {
                    let _ = serve_conn(conn, store).await;
                }));
            }
        });
        Ok(StateStoreServer {
            local_addr,
            accept_task,
            conns,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Drop every established connection (the listener keeps accepting).
    /// Crash injection for reconnect tests: clients observe exactly what
    /// a server restart looks like — their connection dies mid-stream and
    /// a fresh dial succeeds.
    pub(crate) fn sever_connections(&self) {
        for task in self.conns.lock().drain(..) {
            task.abort();
        }
    }
}

impl Drop for StateStoreServer {
    fn drop(&mut self) {
        self.accept_task.abort();
        self.sever_connections();
    }
}

async fn serve_conn(mut conn: TcpStream, store: Arc<StateStore>) -> std::io::Result<()> {
    conn.set_nodelay(true)?;
    let mut inbuf = Vec::with_capacity(4096);
    let mut outbuf = Vec::with_capacity(4096);
    loop {
        // Answer every complete pipelined request already buffered.
        let parsed = drain_values(&mut inbuf, |req| execute(&store, req).encode(&mut outbuf));
        if let Err(e) = parsed {
            RespValue::Error(format!("ERR protocol: {e}")).encode(&mut outbuf);
            conn.write_all(&outbuf).await?;
            return Ok(()); // drop connection on protocol error
        }
        if !outbuf.is_empty() {
            conn.write_all(&outbuf).await?;
            outbuf.clear();
        }
        let n = conn.read_buf(&mut inbuf).await?;
        if n == 0 {
            return Ok(());
        }
    }
}

fn execute(store: &StateStore, req: RespValue) -> RespValue {
    let parts = match req {
        RespValue::Array(items) => items,
        _ => return RespValue::Error("ERR expected array request".into()),
    };
    let mut args: Vec<Vec<u8>> = Vec::with_capacity(parts.len());
    for p in parts {
        match p {
            RespValue::Bulk(b) => args.push(b),
            RespValue::Simple(s) => args.push(s.into_bytes()),
            _ => return RespValue::Error("ERR arguments must be bulk strings".into()),
        }
    }
    if args.is_empty() {
        return RespValue::Error("ERR empty command".into());
    }
    let cmd = String::from_utf8_lossy(&args[0]).to_uppercase();
    let key = |i: usize| String::from_utf8_lossy(&args[i]).into_owned();

    match (cmd.as_str(), args.len()) {
        ("PING", 1) => RespValue::Simple("PONG".into()),
        ("GET", 2) => match store.get(&key(1)) {
            Some(v) => RespValue::Bulk(v),
            None => RespValue::Null,
        },
        ("GETV", 2) => match store.get_versioned(&key(1)) {
            Some((v, ver)) => {
                RespValue::Array(vec![RespValue::Bulk(v), RespValue::Integer(ver as i64)])
            }
            None => RespValue::Null,
        },
        ("SET", 3) => {
            let ver = store.set(&key(1), args[2].clone());
            RespValue::Integer(ver as i64)
        }
        ("SETNX", 3) => {
            let stored = store.set_nx(&key(1), args[2].clone());
            RespValue::Integer(stored as i64)
        }
        ("DEL", 2) => RespValue::Integer(store.del(&key(1)) as i64),
        ("CAS", 4) => {
            let ver: u64 = match String::from_utf8_lossy(&args[2]).parse() {
                Ok(v) => v,
                Err(_) => return RespValue::Error("ERR CAS wants integer version".into()),
            };
            match store.cas(&key(1), ver, args[3].clone()) {
                CasOutcome::Stored(v) => RespValue::Integer(v as i64),
                CasOutcome::Conflict(v) => RespValue::Error(format!("CONFLICT {v}")),
                CasOutcome::Missing => RespValue::Error("MISSING".into()),
            }
        }
        ("DBSIZE", 1) => RespValue::Integer(store.len() as i64),
        ("KEYS", 2) => RespValue::Array(
            store
                .keys_with_prefix(&key(1))
                .into_iter()
                .map(|k| RespValue::Bulk(k.into_bytes()))
                .collect(),
        ),
        _ => RespValue::Error(format!("ERR unknown command {cmd}/{}", args.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_handles_all_commands() {
        let store = StateStore::new();
        let cmd = |parts: &[&[u8]]| {
            RespValue::Array(parts.iter().map(|p| RespValue::Bulk(p.to_vec())).collect())
        };
        assert_eq!(
            execute(&store, cmd(&[b"PING"])),
            RespValue::Simple("PONG".into())
        );
        assert_eq!(execute(&store, cmd(&[b"GET", b"k"])), RespValue::Null);
        assert_eq!(
            execute(&store, cmd(&[b"SET", b"k", b"v"])),
            RespValue::Integer(1)
        );
        assert_eq!(
            execute(&store, cmd(&[b"GET", b"k"])),
            RespValue::Bulk(b"v".to_vec())
        );
        assert_eq!(
            execute(&store, cmd(&[b"SETNX", b"k", b"w"])),
            RespValue::Integer(0)
        );
        assert_eq!(
            execute(&store, cmd(&[b"CAS", b"k", b"1", b"w"])),
            RespValue::Integer(2)
        );
        assert!(matches!(
            execute(&store, cmd(&[b"CAS", b"k", b"1", b"x"])),
            RespValue::Error(_)
        ));
        assert_eq!(execute(&store, cmd(&[b"DBSIZE"])), RespValue::Integer(1));
        assert_eq!(
            execute(&store, cmd(&[b"KEYS", b"k"])),
            RespValue::Array(vec![RespValue::Bulk(b"k".to_vec())]),
            "KEYS returns live keys under the prefix"
        );
        assert_eq!(
            execute(&store, cmd(&[b"KEYS", b"zzz"])),
            RespValue::Array(vec![])
        );
        assert_eq!(execute(&store, cmd(&[b"DEL", b"k"])), RespValue::Integer(1));
        assert!(matches!(
            execute(&store, cmd(&[b"BOGUS"])),
            RespValue::Error(_)
        ));
    }

    /// One buffer of pipelined values — every command `execute` accepts,
    /// and the reply it gave to each (simple, error, integer, bulk, null
    /// and the nested `GETV` / `KEYS` arrays) — fed to the server's
    /// buffer path split at every byte: each half yields exactly the
    /// values that end inside it, and together the same sequence as the
    /// whole buffer.
    #[test]
    fn resp_parses_the_same_split_at_every_byte() {
        let store = StateStore::new();
        let commands: [&[&[u8]]; 14] = [
            &[b"PING"],
            &[b"GET", b"k"],
            &[b"GETV", b"k"],
            &[b"SET", b"k", b"v\r\n$3\r\n*"],
            &[b"SETNX", b"k", b"w"],
            &[b"SETNX", b"j", b""],
            &[b"GET", b"k"],
            &[b"GETV", b"k"],
            &[b"CAS", b"k", b"1", b"x"],
            &[b"CAS", b"k", b"1", b"y"],
            &[b"CAS", b"k", b"x", b"y"],
            &[b"KEYS", b""],
            &[b"DBSIZE"],
            &[b"DEL", b"k"],
        ];
        let mut buf = Vec::new();
        let mut ends = Vec::new();
        let mut expected = Vec::new();
        for parts in commands {
            crate::resp::encode_command(&mut buf, parts);
            ends.push(buf.len());
            let request =
                RespValue::Array(parts.iter().map(|p| RespValue::Bulk(p.to_vec())).collect());
            let reply = execute(&store, request.clone());
            reply.encode(&mut buf);
            ends.push(buf.len());
            expected.extend([request, reply]);
        }
        for shape in ["Simple", "Error", "Integer", "Bulk", "Null", "Array"] {
            assert!(
                expected.iter().any(|v| format!("{v:?}").starts_with(shape)),
                "no {shape} value in the buffer"
            );
        }
        assert!(
            expected.iter().any(|v| matches!(v, RespValue::Array(items)
                if matches!(items.as_slice(), [RespValue::Bulk(_), RespValue::Integer(_)]))),
            "a GETV reply nests in the buffer"
        );

        let mut whole = Vec::new();
        let mut all = buf.clone();
        drain_values(&mut all, |v| whole.push(v)).unwrap();
        assert!(all.is_empty());
        assert_eq!(whole, expected);

        for split in 0..=buf.len() {
            let mut inbuf = buf[..split].to_vec();
            let mut got = Vec::new();
            drain_values(&mut inbuf, |v| got.push(v)).unwrap();
            let complete = ends.iter().filter(|&&end| end <= split).count();
            assert_eq!(got, expected[..complete], "split at {split}");
            inbuf.extend_from_slice(&buf[split..]);
            drain_values(&mut inbuf, |v| got.push(v)).unwrap();
            assert!(inbuf.is_empty(), "split at {split}");
            assert_eq!(got, expected, "split at {split}");
        }
    }

    /// A peer that sends a line and never its CRLF gets the protocol
    /// error and a closed connection once the line passes `MAX_LINE`,
    /// not a server buffer that grows with everything it sends.
    #[tokio::test]
    async fn an_unterminated_line_closes_the_connection() {
        let server = StateStoreServer::bind("127.0.0.1:0", Arc::new(StateStore::new()))
            .await
            .unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).await.unwrap();
        let mut line = vec![b'+'];
        line.resize(crate::resp::MAX_LINE + 3, b'x');
        conn.write_all(&line).await.unwrap();
        let mut reply = Vec::new();
        let read = tokio::time::timeout(
            std::time::Duration::from_secs(5),
            conn.read_to_end(&mut reply),
        )
        .await;
        assert!(
            matches!(read, Ok(Ok(_))),
            "the server must close the connection"
        );
        let reply = String::from_utf8_lossy(&reply);
        assert!(
            reply.starts_with("-ERR protocol: line longer than"),
            "{reply}"
        );
    }

    #[test]
    fn non_array_request_rejected() {
        let store = StateStore::new();
        assert!(matches!(
            execute(&store, RespValue::Integer(5)),
            RespValue::Error(_)
        ));
    }
}
