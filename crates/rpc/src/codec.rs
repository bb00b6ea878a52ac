//! Frame writing and reading with per-connection buffer reuse.
//!
//! The hot path is `Outbox` / [`FrameReader`]: each retains one buffer
//! for the life of the connection, so steady-state framing does zero
//! allocation and one syscall per direction. A sender writes its own
//! frame — no writer task, no channel, no wake — and only bytes the
//! socket refuses wait for a drain task, behind which later frames
//! coalesce into the same writes. The framing layer validates magic,
//! version, and payload bounds before handing payload bytes to
//! [`Message::decode`].

use crate::error::RpcError;
use crate::message::{Message, MAGIC, MAX_PAYLOAD, VERSION};
use parking_lot::Mutex;
use std::io::ErrorKind;
use std::sync::Arc;
use tokio::io::{AsyncRead, AsyncReadExt};
use tokio::net::tcp::OwnedWriteHalf;

/// Header length: magic(4) + version(1) + type(1) + request_id(8) + len(4).
pub const HEADER_LEN: usize = 18;

/// Initial capacity for retained connection buffers.
pub(crate) const INITIAL_BUF: usize = 16 * 1024;
/// Retained buffers above this shrink back after the frame that grew
/// them is gone, so one 64 MiB frame doesn't pin 64 MiB per connection.
pub(crate) const MAX_RETAINED: usize = 1 << 20;

/// Parse and validate an 18-byte frame header.
/// Returns `(msg_type, request_id, payload_len)`.
pub(crate) fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, u64, usize), RpcError> {
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(RpcError::Protocol(format!("bad magic {magic:#x}")));
    }
    let version = header[4];
    if version != VERSION {
        return Err(RpcError::Protocol(format!("unsupported version {version}")));
    }
    let msg_type = header[5];
    let request_id = u64::from_le_bytes(header[6..14].try_into().expect("8 bytes"));
    let payload_len = u32::from_le_bytes(header[14..18].try_into().expect("4 bytes")) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(RpcError::Protocol(format!(
            "payload {payload_len} exceeds max {MAX_PAYLOAD}"
        )));
    }
    Ok((msg_type, request_id, payload_len))
}

/// One connection's outbound side, shared by every sender.
///
/// A parking_lot-locked buffer over the write half. [`send`](Self::send)
/// encodes a frame into the retained buffer and writes it from the
/// caller with one nonblocking `write(2)` under the lock, so frames from
/// concurrent senders never interleave and a dropped future can never
/// leave half a frame on the wire. Bytes the socket refuses become a
/// backlog that one spawned drain task finishes on write readiness;
/// frames sent while it exists are appended behind it and go out in its
/// writes. Cloning shares the outbox.
#[derive(Clone)]
pub(crate) struct Outbox(Arc<Mutex<Backlog>>);

struct Backlog {
    /// Encoded frames; `buf[sent..]` is not yet written. Non-empty
    /// exactly while a drain task owns it.
    buf: Vec<u8>,
    sent: usize,
    /// `None` once closed or after a write error.
    wr: Option<Arc<OwnedWriteHalf>>,
}

impl Backlog {
    /// One `write(2)` of the unwritten bytes; `Ok(true)` once all are out.
    /// An error closes the outbox.
    fn write(&mut self) -> Result<bool, RpcError> {
        let wr = self.wr.as_ref().ok_or(RpcError::ConnectionClosed)?;
        match wr.try_write(&self.buf[self.sent..]) {
            Ok(n) => self.sent += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return Ok(false)
            }
            Err(e) => {
                self.close();
                return Err(e.into());
            }
        }
        if self.sent < self.buf.len() {
            return Ok(false);
        }
        self.buf.clear();
        self.sent = 0;
        if self.buf.capacity() > MAX_RETAINED {
            self.buf = Vec::with_capacity(INITIAL_BUF);
        }
        Ok(true)
    }

    fn close(&mut self) {
        self.wr = None;
        self.buf = Vec::new();
        self.sent = 0;
    }
}

impl Outbox {
    /// Take over `wr`, with an empty retained buffer.
    pub(crate) fn new(wr: OwnedWriteHalf) -> Outbox {
        Outbox(Arc::new(Mutex::new(Backlog {
            buf: Vec::with_capacity(INITIAL_BUF),
            sent: 0,
            wr: Some(Arc::new(wr)),
        })))
    }

    /// Encode one frame and write it from the calling thread, or queue
    /// it behind a backlog being drained. Never blocks; fails once the
    /// outbox is closed or a write has failed.
    pub(crate) fn send(&self, msg: &Message, request_id: u64) -> Result<(), RpcError> {
        let mut backlog = self.0.lock();
        if backlog.wr.is_none() {
            return Err(RpcError::ConnectionClosed);
        }
        let draining = !backlog.buf.is_empty();
        msg.encode_into(request_id, &mut backlog.buf);
        if draining || backlog.write()? {
            return Ok(());
        }
        drop(backlog);
        tokio::spawn(self.clone().drain());
        Ok(())
    }

    /// Fail every later send and let go of the write half (the socket
    /// closes once its read half is gone too).
    pub(crate) fn close(&self) {
        self.0.lock().close();
    }

    async fn drain(self) {
        loop {
            let wr = {
                let mut backlog = self.0.lock();
                match (backlog.write(), &backlog.wr) {
                    (Ok(false), Some(wr)) => Arc::clone(wr),
                    _ => return,
                }
            };
            if wr.writable().await.is_err() {
                return self.close();
            }
        }
    }
}

/// Buffered frame decoder over an async reader.
///
/// Reads land in one retained buffer; each decoded frame borrows its
/// payload straight out of that buffer (zero copy — [`Message::decode`]
/// copies only the values that escape). Steady state allocates nothing
/// in the framing layer.
pub struct FrameReader<R> {
    reader: R,
    buf: Vec<u8>,
    /// Start of unconsumed bytes in `buf`.
    start: usize,
    /// End of valid bytes in `buf`.
    end: usize,
}

impl<R: AsyncRead + Unpin> FrameReader<R> {
    /// Wrap `reader` with an empty retained buffer.
    pub fn new(reader: R) -> Self {
        FrameReader {
            reader,
            buf: vec![0u8; INITIAL_BUF],
            start: 0,
            end: 0,
        }
    }

    /// Read the next frame; returns `(request_id, message)`.
    ///
    /// Yields [`RpcError::ConnectionClosed`] on clean EOF at a frame
    /// boundary and on EOF mid-frame (a torn frame is indistinguishable
    /// from a peer dying mid-write; both mean the connection is done).
    pub async fn next(&mut self) -> Result<(u64, Message), RpcError> {
        self.ensure(HEADER_LEN).await?;
        let header: &[u8; HEADER_LEN] = self.buf[self.start..self.start + HEADER_LEN]
            .try_into()
            .expect("HEADER_LEN bytes");
        let (msg_type, request_id, payload_len) = parse_header(header)?;
        self.ensure(HEADER_LEN + payload_len).await?;
        let payload = &self.buf[self.start + HEADER_LEN..self.start + HEADER_LEN + payload_len];
        let msg = Message::decode(msg_type, payload)?;
        self.start += HEADER_LEN + payload_len;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > MAX_RETAINED {
                self.buf = vec![0u8; INITIAL_BUF];
            }
        }
        Ok((request_id, msg))
    }

    /// Make at least `n` unconsumed bytes available at `self.start`.
    async fn ensure(&mut self, n: usize) -> Result<(), RpcError> {
        if self.end - self.start >= n {
            return Ok(());
        }
        // Compact so the frame can be contiguous from index 0.
        if self.start > 0 && self.start + n > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if n > self.buf.len() {
            self.buf.resize(n.max(self.buf.len() * 2), 0);
        }
        while self.end - self.start < n {
            let got = self.reader.read(&mut self.buf[self.end..]).await?;
            if got == 0 {
                return Err(RpcError::ConnectionClosed);
            }
            self.end += got;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::PredictReply;
    use crate::message::WireOutput;
    use tokio::io::{AsyncReadExt, AsyncWriteExt};

    #[tokio::test]
    async fn frame_roundtrip_over_duplex() {
        let (mut a, b) = tokio::io::duplex(64 * 1024);
        let msg = Message::PredictRequest {
            inputs: crate::transport::as_inputs(vec![vec![1.0, 2.0], vec![3.0]]),
        };
        a.write_all(&msg.encode(7)).await.unwrap();
        let mut r = FrameReader::new(b);
        let (id, got) = r.next().await.unwrap();
        assert_eq!(id, 7);
        assert_eq!(got, msg);
    }

    #[tokio::test]
    async fn multiple_frames_in_sequence() {
        let (mut a, b) = tokio::io::duplex(64 * 1024);
        let msgs = vec![
            Message::Heartbeat,
            Message::PredictResponse(PredictReply {
                outputs: vec![WireOutput::Class(3)],
                queue_us: 1,
                compute_us: 2,
            }),
            Message::Shutdown,
        ];
        for (i, m) in msgs.iter().enumerate() {
            a.write_all(&m.encode(i as u64)).await.unwrap();
        }
        let mut r = FrameReader::new(b);
        for (i, m) in msgs.iter().enumerate() {
            let (id, got) = r.next().await.unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(&got, m);
        }
    }

    /// An outbox over one end of a localhost connection (its read half
    /// dropped, so closing the outbox closes the socket) and the other end.
    async fn outbox_pair() -> (Outbox, tokio::net::TcpStream) {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let near = tokio::net::TcpStream::connect(addr).await.unwrap();
        let (far, _) = listener.accept().await.unwrap();
        let (_, wr) = near.into_split();
        (Outbox::new(wr), far)
    }

    /// More than loopback's socket buffers hold while the peer is not
    /// reading, so sending it leaves a backlog.
    fn big_frame() -> Message {
        let values: Vec<f32> = (0..(8 << 20) / 4).map(|i| i as f32).collect();
        Message::PredictRequest {
            inputs: crate::transport::as_inputs(vec![values]),
        }
    }

    fn unwritten(out: &Outbox) -> usize {
        let backlog = out.0.lock();
        backlog.buf.len() - backlog.sent
    }

    #[tokio::test]
    async fn outbox_coalesces_queued_frames_reader_splits_them() {
        let (out, far) = outbox_pair().await;
        let big = big_frame();
        out.send(&big, 0).unwrap();
        let stuck = unwritten(&out);
        assert!(
            stuck > 0,
            "the peer is not reading: part of the frame waits"
        );

        // Frames sent behind a backlog are appended to it, not written:
        // they leave in the drain task's writes.
        let msgs = vec![
            Message::Heartbeat,
            Message::PredictRequest {
                inputs: crate::transport::as_inputs(vec![vec![1.5; 9]]),
            },
            Message::Error {
                message: "e".into(),
            },
        ];
        let mut queued = 0;
        for (i, m) in msgs.iter().enumerate() {
            out.send(m, i as u64 + 1).unwrap();
            queued += m.encode(0).len();
        }
        assert_eq!(unwritten(&out), stuck + queued);

        let mut r = FrameReader::new(far);
        assert_eq!(r.next().await.unwrap(), (0, big));
        for (i, m) in msgs.iter().enumerate() {
            let (id, got) = r.next().await.unwrap();
            assert_eq!(id, i as u64 + 1);
            assert_eq!(&got, m);
        }
        // Reuse after idle: the sender writes the next frame itself.
        out.send(&Message::Shutdown, 99).unwrap();
        let (id, got) = r.next().await.unwrap();
        assert_eq!((id, got), (99, Message::Shutdown));
        // Closing lets go of the socket and fails later sends.
        out.close();
        assert!(matches!(
            out.send(&Message::Heartbeat, 100),
            Err(RpcError::ConnectionClosed)
        ));
        let mut tail = Vec::new();
        r.reader.read_to_end(&mut tail).await.unwrap();
        assert!(tail.is_empty(), "no stray bytes left on the wire");
    }

    #[tokio::test]
    async fn big_frame_reaches_a_sipping_peer_whole_then_later_frames_in_order() {
        let (out, mut far) = outbox_pair().await;
        let big = big_frame();
        out.send(&big, 0).unwrap();
        assert!(unwritten(&out) > 0);
        let smalls: Vec<Message> = (1..=100u32)
            .map(|i| Message::Error {
                message: i.to_string(),
            })
            .collect();
        let total = big.encode(0).len() + smalls.iter().map(|m| m.encode(0).len()).sum::<usize>();
        let sipper = tokio::spawn(async move {
            let mut bytes = Vec::with_capacity(total);
            let mut sip = [0u8; 4096];
            while bytes.len() < total {
                let n = far.read(&mut sip).await.unwrap();
                assert!(n > 0, "closed after {} of {total} bytes", bytes.len());
                bytes.extend_from_slice(&sip[..n]);
            }
            bytes
        });
        for (i, m) in smalls.iter().enumerate() {
            out.send(m, i as u64 + 1).unwrap();
            if i % 10 == 0 {
                tokio::time::sleep(std::time::Duration::from_millis(1)).await;
            }
        }
        let bytes = sipper.await.unwrap();
        assert_eq!(bytes.len(), total, "nothing after the last frame");

        let mut rest = &bytes[..];
        let mut frames = Vec::new();
        while !rest.is_empty() {
            let (ty, id, len) = parse_header(rest[..HEADER_LEN].try_into().unwrap()).unwrap();
            let msg = Message::decode(ty, &rest[HEADER_LEN..HEADER_LEN + len]).unwrap();
            frames.push((id, msg));
            rest = &rest[HEADER_LEN + len..];
        }
        let expected: Vec<(u64, Message)> = std::iter::once(big)
            .chain(smalls)
            .enumerate()
            .map(|(i, m)| (i as u64, m))
            .collect();
        assert!(frames == expected, "frames arrived whole and in order");
    }

    #[tokio::test]
    async fn reader_handles_frames_larger_than_initial_buffer() {
        let (mut a, b) = tokio::io::duplex(1 << 20);
        // ~100 KiB payload: forces the retained read buffer to grow.
        let big = Message::PredictRequest {
            inputs: crate::transport::as_inputs(vec![vec![0.5; 25_000]]),
        };
        let small = Message::Heartbeat;
        let writer = tokio::spawn(async move {
            a.write_all(&big.encode(1)).await.unwrap();
            a.write_all(&small.encode(2)).await.unwrap();
            big
        });
        let mut r = FrameReader::new(b);
        let (id, got) = r.next().await.unwrap();
        let big = writer.await.unwrap();
        assert_eq!(id, 1);
        assert_eq!(got, big);
        let (id, got) = r.next().await.unwrap();
        assert_eq!((id, got), (2, Message::Heartbeat));
    }

    #[tokio::test]
    async fn reader_buffer_shrinks_after_oversized_frame() {
        let (mut a, b) = tokio::io::duplex(8 << 20);
        let big = Message::PredictRequest {
            inputs: crate::transport::as_inputs(vec![vec![0.0; 600_000]]), // ~2.4 MB
        };
        let writer = tokio::spawn(async move {
            a.write_all(&big.encode(1)).await.unwrap();
            a.write_all(&Message::Heartbeat.encode(2)).await.unwrap();
        });
        let mut r = FrameReader::new(b);
        r.next().await.unwrap();
        assert!(
            r.buf.len() <= MAX_RETAINED,
            "buffer should shrink back, still {} bytes",
            r.buf.len()
        );
        let (id, _) = r.next().await.unwrap();
        assert_eq!(id, 2);
        writer.await.unwrap();
    }

    #[tokio::test]
    async fn closed_peer_yields_connection_closed_for_frame_reader() {
        let (a, b) = tokio::io::duplex(1024);
        drop(a);
        let mut r = FrameReader::new(b);
        let err = r.next().await.unwrap_err();
        assert!(matches!(err, RpcError::ConnectionClosed));
    }

    #[tokio::test]
    async fn eof_mid_frame_yields_connection_closed() {
        let (mut a, b) = tokio::io::duplex(1024);
        let frame = Message::Error {
            message: "partial".into(),
        }
        .encode(5);
        a.write_all(&frame[..frame.len() - 2]).await.unwrap();
        drop(a);
        let mut r = FrameReader::new(b);
        let err = r.next().await.unwrap_err();
        assert!(matches!(err, RpcError::ConnectionClosed));
    }

    #[tokio::test]
    async fn bad_magic_rejected() {
        let (mut a, b) = tokio::io::duplex(1024);
        a.write_all(&[0u8; HEADER_LEN]).await.unwrap();
        let err = FrameReader::new(b).next().await.unwrap_err();
        assert!(matches!(err, RpcError::Protocol(_)));
    }

    #[tokio::test]
    async fn oversized_payload_rejected_without_allocation() {
        let (mut a, b) = tokio::io::duplex(1024);
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC.to_le_bytes());
        header.push(VERSION);
        header.push(6); // heartbeat
        header.extend_from_slice(&0u64.to_le_bytes());
        header.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd payload length
        a.write_all(&header).await.unwrap();
        let mut r = FrameReader::new(b);
        let err = r.next().await.unwrap_err();
        assert!(matches!(err, RpcError::Protocol(_)));
    }
}
