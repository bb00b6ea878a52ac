//! TCP server exposing a [`StateStore`] over the RESP protocol.
//!
//! Supported commands (case-insensitive):
//! `PING`, `GET k`, `SET k v`, `SETNX k v`, `DEL k`,
//! `CAS k version v`, `GETV k` (returns `[value, version]`), `DBSIZE`,
//! `KEYS prefix`.

use crate::resp::{drain_values, echo, RespValue};
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
    // Match the name on its raw bytes: an unknown multi-MiB "command"
    // costs one comparison per arm, not an upper-cased copy.
    let cmd = args[0].as_slice();
    let is = |name: &str| cmd.eq_ignore_ascii_case(name.as_bytes());
    let key = |i: usize| String::from_utf8_lossy(&args[i]).into_owned();

    match args.len() {
        1 if is("PING") => RespValue::Simple("PONG".into()),
        2 if is("GET") => match store.get(&key(1)) {
            Some(v) => RespValue::Bulk(v),
            None => RespValue::Null,
        },
        2 if is("GETV") => match store.get_versioned(&key(1)) {
            Some((v, ver)) => {
                RespValue::Array(vec![RespValue::Bulk(v), RespValue::Integer(ver as i64)])
            }
            None => RespValue::Null,
        },
        3 if is("SET") => {
            let key = key(1);
            let ver = store.set(&key, take_last(&mut args));
            RespValue::Integer(ver as i64)
        }
        3 if is("SETNX") => {
            let key = key(1);
            let stored = store.set_nx(&key, take_last(&mut args));
            RespValue::Integer(stored as i64)
        }
        2 if is("DEL") => RespValue::Integer(store.del(&key(1)) as i64),
        4 if is("CAS") => {
            let ver: u64 = match String::from_utf8_lossy(&args[2]).parse() {
                Ok(v) => v,
                Err(_) => return RespValue::Error("ERR CAS wants integer version".into()),
            };
            let key = key(1);
            match store.cas(&key, ver, take_last(&mut args)) {
                CasOutcome::Stored(v) => RespValue::Integer(v as i64),
                CasOutcome::Conflict(v) => RespValue::Error(format!("CONFLICT {v}")),
                CasOutcome::Missing => RespValue::Error("MISSING".into()),
            }
        }
        1 if is("DBSIZE") => RespValue::Integer(store.len() as i64),
        2 if is("KEYS") => RespValue::Array(
            store
                .keys_with_prefix(&key(1))
                .into_iter()
                .map(|k| RespValue::Bulk(k.into_bytes()))
                .collect(),
        ),
        _ => RespValue::Error(format!(
            "ERR unknown command \"{}\"/{}",
            echo(&args[0]),
            args.len()
        )),
    }
}

/// The value argument, moved out of the request `execute` owns.
fn take_last(args: &mut Vec<Vec<u8>>) -> Vec<u8> {
    args.pop().expect("the arity arm checked the length")
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

    /// The module promises case-insensitive command names: every mixed-
    /// and lower-case spelling answers exactly as its upper-case form.
    #[test]
    fn command_names_are_case_insensitive() {
        let cmd = |parts: &[&[u8]]| {
            RespValue::Array(parts.iter().map(|p| RespValue::Bulk(p.to_vec())).collect())
        };
        let script: [[&[&[u8]]; 2]; 7] = [
            [&[b"set", b"k", b"v"], &[b"SET", b"k", b"v"]],
            [&[b"GeT", b"k"], &[b"GET", b"k"]],
            [&[b"dbsize"], &[b"DBSIZE"]],
            [&[b"cAs", b"k", b"1", b"w"], &[b"CAS", b"k", b"1", b"w"]],
            [&[b"cas", b"k", b"9", b"x"], &[b"CAS", b"k", b"9", b"x"]],
            [&[b"setNX", b"k", b"y"], &[b"SETNX", b"k", b"y"]],
            [&[b"get", b"k"], &[b"GET", b"k"]],
        ];
        let (lower, upper) = (StateStore::new(), StateStore::new());
        for [mixed, canonical] in script {
            let got = execute(&lower, cmd(mixed));
            assert_eq!(got, execute(&upper, cmd(canonical)), "{mixed:?}");
            assert!(!matches!(&got, RespValue::Error(e) if e.starts_with("ERR")));
        }
        assert_eq!(
            execute(&lower, cmd(&[b"get", b"k"])),
            RespValue::Bulk(b"w".to_vec())
        );
        assert!(matches!(
            execute(&lower, cmd(&[b"sets", b"k", b"v"])),
            RespValue::Error(e) if e.starts_with("ERR unknown command")
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

    /// Read from `conn` until `n` complete replies have arrived.
    async fn read_replies(conn: &mut TcpStream, n: usize) -> Vec<RespValue> {
        let mut buf = Vec::new();
        let mut got = Vec::new();
        while got.len() < n {
            let read =
                tokio::time::timeout(std::time::Duration::from_secs(5), conn.read_buf(&mut buf))
                    .await
                    .expect("the server answers")
                    .unwrap();
            drain_values(&mut buf, |v| got.push(v)).unwrap();
            assert!(read > 0 || got.len() >= n, "closed after {got:?}");
        }
        assert!(buf.is_empty(), "{} bytes past the replies", buf.len());
        got
    }

    /// An error line holds at most 64 echoed bytes, escaped: a huge
    /// command name gets a short single line, and one carrying CRLF
    /// cannot frame a forged reply — each gets exactly one `-ERR` line,
    /// and the next command on the connection its own answer. A
    /// malformed header's echo is bounded the same way.
    #[tokio::test]
    async fn error_lines_echo_little_and_frame_nothing() {
        let server = StateStoreServer::bind("127.0.0.1:0", Arc::new(StateStore::new()))
            .await
            .unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).await.unwrap();
        let huge = vec![b'x'; 1 << 20];
        for name in [&huge[..], b"GET\r\n+OK\r\n", b"\x00\x7f\xff\"\\"] {
            let mut request = Vec::new();
            crate::resp::encode_command(&mut request, &[name]);
            crate::resp::encode_command(&mut request, &[b"PING"]);
            conn.write_all(&request).await.unwrap();
            let replies = read_replies(&mut conn, 2).await;
            let RespValue::Error(line) = &replies[0] else {
                panic!("{:?}", replies[0]);
            };
            assert!(line.starts_with("ERR unknown command"), "{line}");
            assert!(line.len() <= 300, "{} bytes", line.len());
            assert!(
                line.bytes().all(|b| b.is_ascii_graphic() || b == b' '),
                "{line}"
            );
            assert_eq!(replies[1], RespValue::Simple("PONG".into()));
        }

        let mut conn = TcpStream::connect(server.local_addr()).await.unwrap();
        let mut header = vec![b'*'];
        header.resize(60_000, 0x07);
        header.extend_from_slice(b"\r\n");
        conn.write_all(&header).await.unwrap();
        let mut reply = Vec::new();
        tokio::time::timeout(
            std::time::Duration::from_secs(5),
            conn.read_to_end(&mut reply),
        )
        .await
        .expect("the server closes the connection")
        .unwrap();
        let mut replies = Vec::new();
        drain_values(&mut reply, |v| replies.push(v)).unwrap();
        assert!(reply.is_empty());
        let [RespValue::Error(line)] = replies.as_slice() else {
            panic!("{replies:?}");
        };
        assert!(line.starts_with("ERR protocol: bad integer"), "{line}");
        assert!(line.len() <= 300, "{} bytes", line.len());
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
