//! RESP-style wire protocol (the Redis serialization protocol subset the
//! store speaks).
//!
//! Requests are arrays of bulk strings (`*N\r\n$len\r\n<bytes>\r\n...`);
//! replies are simple strings (`+OK\r\n`), errors (`-ERR ...\r\n`),
//! integers (`:42\r\n`), bulk strings (`$5\r\nhello\r\n`), null
//! (`$-1\r\n`), or arrays of those. This mirrors real Redis closely enough
//! that the protocol knowledge transfers.

/// Maximum accepted bulk-string length (16 MiB) — bounds memory under a
/// malicious or corrupt peer.
pub(crate) const MAX_BULK_LEN: usize = 16 << 20;

/// Longest header or simple line (64 KiB, CRLF excluded). A line's end
/// is looked for only this far, so a peer that never sends CRLF is a
/// protocol error instead of a buffer that grows without bound.
pub(crate) const MAX_LINE: usize = 64 << 10;

/// Deepest array nesting a value may have. A request is one array
/// (depth 1) and the deepest reply, `GETV`'s `[value, version]`, is depth
/// 2; a deeper value is a protocol error, so a peer cannot recurse the
/// parser off its thread's stack.
const MAX_DEPTH: usize = 2;

/// Most bytes of peer input an error line echoes back.
const MAX_ECHO: usize = 64;

/// `bytes` as it may appear inside an error line: at most [`MAX_ECHO`]
/// bytes (then `...`), with CR, LF, quotes, backslashes and every
/// non-printable byte escaped, so an echo stays short, on one line, and
/// cannot frame a reply of its own.
pub(crate) fn echo(bytes: &[u8]) -> String {
    let mut out: String = bytes[..bytes.len().min(MAX_ECHO)]
        .iter()
        .flat_map(|&b| std::ascii::escape_default(b))
        .map(char::from)
        .collect();
    if bytes.len() > MAX_ECHO {
        out.push_str("...");
    }
    out
}

/// Write `n`'s decimal digits into the tail of `tmp`, returning the
/// written slice. Integer emit without `format!`'s formatting machinery
/// (or its temporary `String`) — RESP frames integers and lengths on
/// every reply.
pub(crate) fn u64_digits(tmp: &mut [u8; 20], mut n: u64) -> &[u8] {
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    &tmp[i..]
}

fn push_int(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    let mut tmp = [0u8; 20];
    out.extend_from_slice(u64_digits(&mut tmp, v.unsigned_abs()));
}

/// Encode a request — an array of bulk strings — straight from borrowed
/// slices, skipping the owned [`RespValue`] tree a client would otherwise
/// build (and its per-argument `Vec` clones) on every call.
pub(crate) fn encode_command(out: &mut Vec<u8>, parts: &[&[u8]]) {
    out.push(b'*');
    push_int(out, parts.len() as i64);
    out.extend_from_slice(b"\r\n");
    for p in parts {
        out.push(b'$');
        push_int(out, p.len() as i64);
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(p);
        out.extend_from_slice(b"\r\n");
    }
}

/// A RESP value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum RespValue {
    /// `+...` simple string.
    Simple(String),
    /// `-...` error string.
    Error(String),
    /// `:n` integer.
    Integer(i64),
    /// `$len` bulk bytes.
    Bulk(Vec<u8>),
    /// `$-1` null.
    Null,
    /// `*n` array.
    Array(Vec<RespValue>),
}

impl RespValue {
    /// Serialize into `out`.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RespValue::Simple(s) => {
                out.push(b'+');
                out.extend_from_slice(s.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            RespValue::Error(s) => {
                out.push(b'-');
                out.extend_from_slice(s.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            RespValue::Integer(n) => {
                out.push(b':');
                push_int(out, *n);
                out.extend_from_slice(b"\r\n");
            }
            RespValue::Bulk(b) => {
                out.push(b'$');
                push_int(out, b.len() as i64);
                out.extend_from_slice(b"\r\n");
                out.extend_from_slice(b);
                out.extend_from_slice(b"\r\n");
            }
            RespValue::Null => out.extend_from_slice(b"$-1\r\n"),
            RespValue::Array(items) => {
                out.push(b'*');
                push_int(out, items.len() as i64);
                out.extend_from_slice(b"\r\n");
                for item in items {
                    item.encode(out);
                }
            }
        }
    }

    /// Try to parse one complete value from the front of `buf`.
    ///
    /// Returns `Ok(None)` if more bytes are needed, `Ok(Some((v, n)))`
    /// when `v` took the first `n` bytes, or `Err` on malformed input
    /// (including nesting deeper than [`MAX_DEPTH`]).
    pub(crate) fn parse(buf: &[u8]) -> Result<Option<(RespValue, usize)>, String> {
        let mut cursor = Cursor { data: buf, pos: 0 };
        match parse_value(&mut cursor, 0) {
            Ok(v) => Ok(Some((v, cursor.pos))),
            Err(ParseOutcome::Incomplete) => Ok(None),
            Err(ParseOutcome::Bad(e)) => Err(e),
        }
    }
}

/// Hand every complete value at the front of `buf` to `f`, in order, then
/// drop the bytes they took (one drain per call, however many values were
/// pipelined). An incomplete tail stays for the next read; on `Err` the
/// values before the malformed one have been handed over.
pub(crate) fn drain_values(buf: &mut Vec<u8>, mut f: impl FnMut(RespValue)) -> Result<(), String> {
    let mut start = 0;
    let outcome = loop {
        match RespValue::parse(&buf[start..]) {
            Ok(Some((v, used))) => {
                start += used;
                f(v);
            }
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    buf.drain(..start);
    outcome
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

enum ParseOutcome {
    Incomplete,
    Bad(String),
}

fn read_line<'a>(c: &mut Cursor<'a>) -> Result<&'a [u8], ParseOutcome> {
    let rest = &c.data[c.pos..];
    let window = &rest[..rest.len().min(MAX_LINE + 2)];
    match window.windows(2).position(|w| w == b"\r\n") {
        Some(i) => {
            let line = &rest[..i];
            c.pos += i + 2;
            Ok(line)
        }
        None if window.len() == MAX_LINE + 2 => Err(ParseOutcome::Bad(format!(
            "line longer than {MAX_LINE} bytes"
        ))),
        None => Err(ParseOutcome::Incomplete),
    }
}

fn parse_int(line: &[u8]) -> Result<i64, ParseOutcome> {
    std::str::from_utf8(line)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ParseOutcome::Bad(format!("bad integer \"{}\"", echo(line))))
}

/// Parse one value whose enclosing arrays number `depth`.
fn parse_value(c: &mut Cursor<'_>, depth: usize) -> Result<RespValue, ParseOutcome> {
    if c.pos >= c.data.len() {
        return Err(ParseOutcome::Incomplete);
    }
    let tag = c.data[c.pos];
    c.pos += 1;
    match tag {
        b'+' => {
            let line = read_line(c)?;
            Ok(RespValue::Simple(
                String::from_utf8_lossy(line).into_owned(),
            ))
        }
        b'-' => {
            let line = read_line(c)?;
            Ok(RespValue::Error(String::from_utf8_lossy(line).into_owned()))
        }
        b':' => {
            let line = read_line(c)?;
            Ok(RespValue::Integer(parse_int(line)?))
        }
        b'$' => {
            let line = read_line(c)?;
            let len = parse_int(line)?;
            if len < 0 {
                return Ok(RespValue::Null);
            }
            let len = len as usize;
            if len > MAX_BULK_LEN {
                return Err(ParseOutcome::Bad(format!("bulk too large: {len}")));
            }
            if c.data.len() - c.pos < len + 2 {
                return Err(ParseOutcome::Incomplete);
            }
            let body = c.data[c.pos..c.pos + len].to_vec();
            if &c.data[c.pos + len..c.pos + len + 2] != b"\r\n" {
                return Err(ParseOutcome::Bad("bulk missing CRLF".into()));
            }
            c.pos += len + 2;
            Ok(RespValue::Bulk(body))
        }
        b'*' => {
            if depth == MAX_DEPTH {
                return Err(ParseOutcome::Bad(format!(
                    "arrays nested deeper than {MAX_DEPTH}"
                )));
            }
            let line = read_line(c)?;
            let n = parse_int(line)?;
            if n < 0 {
                return Ok(RespValue::Null);
            }
            if n as usize > 1 << 16 {
                return Err(ParseOutcome::Bad(format!("array too large: {n}")));
            }
            // Every element takes at least 3 bytes (`+\r\n`): reserve no
            // more than the bytes already here could hold.
            let mut items = Vec::with_capacity((n as usize).min((c.data.len() - c.pos) / 3));
            for _ in 0..n {
                items.push(parse_value(c, depth + 1)?);
            }
            Ok(RespValue::Array(items))
        }
        t => Err(ParseOutcome::Bad(format!("unknown RESP tag {t:#x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: RespValue) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let (parsed, used) = RespValue::parse(&buf).unwrap().unwrap();
        assert_eq!(parsed, v);
        assert_eq!(used, buf.len(), "all bytes consumed");
    }

    #[test]
    fn integer_emit_covers_extremes() {
        for v in [0i64, 1, -1, 9, 10, -10, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            RespValue::Integer(v).encode(&mut buf);
            assert_eq!(&buf[..], format!(":{v}\r\n").as_bytes(), "value {v}");
            roundtrip(RespValue::Integer(v));
        }
    }

    #[test]
    fn encode_command_matches_the_value_tree() {
        let parts: [&[u8]; 3] = [b"SET", b"key", b"val\r\nue"];
        let mut direct = Vec::new();
        encode_command(&mut direct, &parts);
        let mut tree = Vec::new();
        RespValue::Array(parts.iter().map(|p| RespValue::Bulk(p.to_vec())).collect())
            .encode(&mut tree);
        assert_eq!(direct, tree);

        let mut empty = Vec::new();
        encode_command(&mut empty, &[]);
        assert_eq!(&empty[..], b"*0\r\n");
    }

    #[test]
    fn all_kinds_roundtrip() {
        roundtrip(RespValue::Simple("OK".into()));
        roundtrip(RespValue::Error("ERR nope".into()));
        roundtrip(RespValue::Integer(-7));
        roundtrip(RespValue::Bulk(b"hello\r\nworld".to_vec()));
        roundtrip(RespValue::Null);
        roundtrip(RespValue::Array(vec![
            RespValue::Bulk(b"GET".to_vec()),
            RespValue::Bulk(b"key".to_vec()),
        ]));
    }

    #[test]
    fn partial_input_returns_none() {
        let mut buf = Vec::new();
        RespValue::Bulk(b"hello".to_vec()).encode(&mut buf);
        assert!(RespValue::parse(&buf[..4]).unwrap().is_none());
    }

    #[test]
    fn pipelined_values_parse_in_order() {
        let mut buf = Vec::new();
        RespValue::Integer(1).encode(&mut buf);
        RespValue::Integer(2).encode(&mut buf);
        let (first, used) = RespValue::parse(&buf).unwrap().unwrap();
        assert_eq!(first, RespValue::Integer(1));
        let (second, rest) = RespValue::parse(&buf[used..]).unwrap().unwrap();
        assert_eq!(second, RespValue::Integer(2));
        assert_eq!(used + rest, buf.len());
    }

    #[test]
    fn malformed_tag_is_error() {
        assert!(RespValue::parse(b"!bogus\r\n").is_err());
    }

    #[test]
    fn oversized_bulk_rejected() {
        let buf = format!("${}\r\n", MAX_BULK_LEN + 1);
        assert!(RespValue::parse(buf.as_bytes()).is_err());
    }

    #[test]
    fn unterminated_line_is_an_error_past_max_line() {
        let mut line = vec![b'+'];
        line.resize(1 + MAX_LINE, b'x');
        // Up to the cap, a line without its CRLF may still be arriving.
        assert!(RespValue::parse(&line).unwrap().is_none());
        line.extend_from_slice(b"\r");
        assert!(RespValue::parse(&line).unwrap().is_none());
        let mut done = line.clone();
        done.push(b'\n');
        assert!(RespValue::parse(&done).unwrap().is_some());
        // One byte more and no CRLF: the peer is not speaking RESP.
        line.push(b'x');
        let err = RespValue::parse(&line).unwrap_err();
        assert!(err.contains("longer than"), "{err}");
        // The same for a header line, and for a line with CRLF too late.
        let mut header = vec![b'$'];
        header.resize(MAX_LINE + 3, b'1');
        assert!(RespValue::parse(&header).is_err());
        header.extend_from_slice(b"\r\n");
        assert!(RespValue::parse(&header).is_err());
    }

    #[test]
    fn nested_arrays_roundtrip() {
        roundtrip(RespValue::Array(vec![
            RespValue::Array(vec![RespValue::Integer(1)]),
            RespValue::Null,
        ]));
    }

    /// 300,000 nested one-element arrays (1.2 MB): a parser that recursed
    /// once per `*` without a bound overflowed a 2 MiB worker stack and
    /// aborted the process. Past [`MAX_DEPTH`] the input is malformed.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = b"*1\r\n".repeat(300_000);
        let outcome = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || RespValue::parse(&deep))
            .unwrap()
            .join()
            .expect("the parser returns instead of aborting");
        assert!(outcome.is_err(), "{outcome:?}");
        assert!(RespValue::parse(b"*1\r\n*1\r\n:1\r\n").unwrap().is_some());
        assert!(RespValue::parse(b"*1\r\n*1\r\n*1\r\n:1\r\n").is_err());
    }
}
