//! Wire messages and their binary encoding.
//!
//! The codec is hand-rolled: every frame is
//!
//! ```text
//! +-------+---------+----------+------------+-------------+---------+
//! | magic | version | msg_type | request_id | payload_len | payload |
//! |  u32  |   u8    |    u8    |    u64     |     u32     |  bytes  |
//! +-------+---------+----------+------------+-------------+---------+
//! ```
//!
//! little-endian throughout. Feature vectors are shipped as raw `f32` runs,
//! so a batch of `b` MNIST images costs `b × 784 × 4` payload bytes — the
//! quantity the Figure-6 network-bottleneck experiment meters.
//!
//! Encoding appends to a caller-owned `Vec<u8>` ([`Message::encode_into`])
//! so a connection's frames amortize into one retained write buffer;
//! decoding borrows the payload slice ([`Message::decode`] takes `&[u8]`)
//! and copies only the values whose ownership escapes the frame (strings,
//! score vectors) — the payload itself is never re-allocated.

use crate::error::RpcError;
use crate::transport::Input;
use std::sync::Arc;

/// Frame magic ("CLIP" little-endianized).
pub const MAGIC: u32 = 0xC11B_BE55;
/// Protocol version.
pub const VERSION: u8 = 1;
/// Hard cap on payload size (64 MiB) to bound memory under corruption.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// A model container's prediction for one input.
#[derive(Clone, Debug, PartialEq)]
pub enum WireOutput {
    /// Single class label (object recognition).
    Class(u32),
    /// Per-class scores.
    Scores(Vec<f32>),
    /// Label sequence (speech transcription).
    Labels(Vec<u32>),
}

impl WireOutput {
    /// The scalar label this output argmaxes to, used by ensemble voting.
    pub fn label(&self) -> u32 {
        match self {
            WireOutput::Class(c) => *c,
            WireOutput::Scores(s) => {
                let mut best = 0usize;
                let mut best_v = f32::NEG_INFINITY;
                for (i, &v) in s.iter().enumerate() {
                    if v > best_v {
                        best_v = v;
                        best = i;
                    }
                }
                best as u32
            }
            WireOutput::Labels(l) => l.first().copied().unwrap_or(0),
        }
    }

    /// Approximate encoded size in bytes (for network simulation).
    pub fn wire_size(&self) -> usize {
        match self {
            WireOutput::Class(_) => 5,
            WireOutput::Scores(s) => 5 + 4 * s.len(),
            WireOutput::Labels(l) => 5 + 4 * l.len(),
        }
    }
}

/// A completed batch prediction, with container-side timing for the
/// Figure-11 latency decomposition.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PredictReply {
    /// One output per input, in order.
    pub outputs: Vec<WireOutput>,
    /// Microseconds the batch spent queued inside the container before
    /// compute started, as the handler measured it (e.g. waiting for the
    /// GPU or the container lock); the RPC client passes it through.
    pub queue_us: u64,
    /// Microseconds of model compute.
    pub compute_us: u64,
}

/// All protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Container → Clipper: announce a model.
    Register {
        /// Container instance name (unique per connection).
        container_name: String,
        /// Model this container serves.
        model_name: String,
        /// Model version.
        model_version: u32,
    },
    /// Clipper → container: registration accepted.
    RegisterAck,
    /// Clipper → container: evaluate a batch.
    ///
    /// Inputs are `Arc`-shared feature vectors: building this message from
    /// a dispatched batch clones pointers only; the `f32` payload is read
    /// directly out of the shared vectors at encode time.
    PredictRequest {
        /// Feature vectors, one per query.
        inputs: Vec<Input>,
    },
    /// Container → Clipper: batch results.
    PredictResponse(PredictReply),
    /// Container → Clipper: the batch failed.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Liveness probe (either direction).
    Heartbeat,
    /// Liveness reply.
    HeartbeatAck,
    /// Graceful shutdown notice.
    Shutdown,
}

impl Message {
    fn msg_type(&self) -> u8 {
        match self {
            Message::Register { .. } => 1,
            Message::RegisterAck => 2,
            Message::PredictRequest { .. } => 3,
            Message::PredictResponse(_) => 4,
            Message::Error { .. } => 5,
            Message::Heartbeat => 6,
            Message::HeartbeatAck => 7,
            Message::Shutdown => 8,
        }
    }

    /// Append one full frame (header + payload) to `out`.
    ///
    /// This is the hot-path entry: a connection encodes every outbound
    /// frame into one retained buffer, so steady state allocates nothing.
    /// The payload length is patched in after the payload is written —
    /// one pass, no intermediate payload buffer.
    pub fn encode_into(&self, request_id: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(VERSION);
        out.push(self.msg_type());
        out.extend_from_slice(&request_id.to_le_bytes());
        let len_at = out.len();
        out.extend_from_slice(&[0u8; 4]);
        let payload_start = out.len();
        match self {
            Message::Register {
                container_name,
                model_name,
                model_version,
            } => {
                put_string(out, container_name);
                put_string(out, model_name);
                put_u32(out, *model_version);
            }
            Message::RegisterAck
            | Message::Heartbeat
            | Message::HeartbeatAck
            | Message::Shutdown => {}
            Message::PredictRequest { inputs } => {
                put_u32(out, inputs.len() as u32);
                for input in inputs {
                    put_f32s(out, input);
                }
            }
            Message::PredictResponse(reply) => {
                put_u64(out, reply.queue_us);
                put_u64(out, reply.compute_us);
                put_u32(out, reply.outputs.len() as u32);
                for o in &reply.outputs {
                    match o {
                        WireOutput::Class(c) => {
                            out.push(0);
                            put_u32(out, *c);
                        }
                        WireOutput::Scores(s) => {
                            out.push(1);
                            put_f32s(out, s);
                        }
                        WireOutput::Labels(l) => {
                            out.push(2);
                            put_u32(out, l.len() as u32);
                            for &v in l {
                                put_u32(out, v);
                            }
                        }
                    }
                }
            }
            Message::Error { message } => {
                put_string(out, message);
            }
        }
        let payload_len = (out.len() - payload_start) as u32;
        out[len_at..len_at + 4].copy_from_slice(&payload_len.to_le_bytes());
    }

    /// Encode into a freshly allocated full frame (header + payload).
    /// Compatibility/test path — hot paths use [`Self::encode_into`].
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        self.encode_into(request_id, &mut out);
        out
    }

    /// Decode a payload given its already-parsed header fields.
    ///
    /// Borrows the payload: nothing is copied except values whose
    /// ownership escapes the frame (strings, feature/score vectors). The
    /// returned [`Message`] is `'static` — it cannot retain a reference
    /// into `payload`, which is what makes the caller's buffer reuse
    /// sound (checked by test).
    pub fn decode(msg_type: u8, payload: &[u8]) -> Result<Message, RpcError> {
        let mut payload = payload;
        let buf = &mut payload;
        let msg = match msg_type {
            1 => {
                let container_name = get_string(buf)?;
                let model_name = get_string(buf)?;
                let model_version = get_u32(buf)?;
                Message::Register {
                    container_name,
                    model_name,
                    model_version,
                }
            }
            2 => Message::RegisterAck,
            3 => {
                let n = get_u32(buf)? as usize;
                let mut inputs = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    inputs.push(Arc::new(get_f32s(buf)?));
                }
                Message::PredictRequest { inputs }
            }
            4 => {
                let queue_us = get_u64(buf)?;
                let compute_us = get_u64(buf)?;
                let n = get_u32(buf)? as usize;
                let mut outputs = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let tag = get_u8(buf)?;
                    outputs.push(match tag {
                        0 => WireOutput::Class(get_u32(buf)?),
                        1 => WireOutput::Scores(get_f32s(buf)?),
                        2 => {
                            let len = get_u32(buf)? as usize;
                            let mut l = Vec::with_capacity(len.min(1 << 20));
                            for _ in 0..len {
                                l.push(get_u32(buf)?);
                            }
                            WireOutput::Labels(l)
                        }
                        t => {
                            return Err(RpcError::Protocol(format!("bad output tag {t}")));
                        }
                    });
                }
                Message::PredictResponse(PredictReply {
                    outputs,
                    queue_us,
                    compute_us,
                })
            }
            5 => Message::Error {
                message: get_string(buf)?,
            },
            6 => Message::Heartbeat,
            7 => Message::HeartbeatAck,
            8 => Message::Shutdown,
            t => return Err(RpcError::Protocol(format!("unknown message type {t}"))),
        };
        if !payload.is_empty() {
            return Err(RpcError::Protocol(format!(
                "{} trailing bytes after message type {msg_type}",
                payload.len()
            )));
        }
        Ok(msg)
    }

    /// Exact frame size in bytes (header + payload), used by the
    /// simulated network links and to pre-size encode buffers.
    pub fn wire_size(&self) -> usize {
        let payload = match self {
            Message::Register {
                container_name,
                model_name,
                ..
            } => 8 + container_name.len() + model_name.len() + 4,
            Message::RegisterAck
            | Message::Heartbeat
            | Message::HeartbeatAck
            | Message::Shutdown => 0,
            Message::PredictRequest { inputs } => {
                4 + inputs.iter().map(|i| 4 + 4 * i.len()).sum::<usize>()
            }
            Message::PredictResponse(r) => {
                20 + r.outputs.iter().map(WireOutput::wire_size).sum::<usize>()
            }
            Message::Error { message } => 4 + message.len(),
        };
        18 + payload
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_f32s(buf: &mut Vec<u8>, vals: &[f32]) {
    put_u32(buf, vals.len() as u32);
    for &v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, RpcError> {
    let (&first, rest) = buf
        .split_first()
        .ok_or_else(|| RpcError::Protocol("truncated u8".into()))?;
    *buf = rest;
    Ok(first)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, RpcError> {
    if buf.len() < 4 {
        return Err(RpcError::Protocol("truncated u32".into()));
    }
    let (head, rest) = buf.split_at(4);
    *buf = rest;
    Ok(u32::from_le_bytes(head.try_into().expect("4 bytes")))
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, RpcError> {
    if buf.len() < 8 {
        return Err(RpcError::Protocol("truncated u64".into()));
    }
    let (head, rest) = buf.split_at(8);
    *buf = rest;
    Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
}

fn get_string(buf: &mut &[u8]) -> Result<String, RpcError> {
    let len = get_u32(buf)? as usize;
    if buf.len() < len {
        return Err(RpcError::Protocol("truncated string".into()));
    }
    let (raw, rest) = buf.split_at(len);
    let s = std::str::from_utf8(raw).map_err(|_| RpcError::Protocol("invalid utf8".into()))?;
    *buf = rest;
    Ok(s.to_owned())
}

fn get_f32s(buf: &mut &[u8]) -> Result<Vec<f32>, RpcError> {
    let len = get_u32(buf)? as usize;
    let bytes = len
        .checked_mul(4)
        .ok_or_else(|| RpcError::Protocol("f32 array length overflow".into()))?;
    if buf.len() < bytes {
        return Err(RpcError::Protocol("truncated f32 array".into()));
    }
    let (raw, rest) = buf.split_at(bytes);
    *buf = rest;
    Ok(raw
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::as_inputs;

    fn roundtrip(msg: Message) -> Message {
        let frame = msg.encode(42);
        // Parse the 18-byte header; decode the borrowed payload.
        assert_eq!(u32::from_le_bytes(frame[0..4].try_into().unwrap()), MAGIC);
        assert_eq!(frame[4], VERSION);
        let mt = frame[5];
        assert_eq!(u64::from_le_bytes(frame[6..14].try_into().unwrap()), 42);
        let plen = u32::from_le_bytes(frame[14..18].try_into().unwrap()) as usize;
        assert_eq!(frame.len() - 18, plen);
        Message::decode(mt, &frame[18..]).expect("decode")
    }

    #[test]
    fn register_roundtrips() {
        let m = Message::Register {
            container_name: "c0".into(),
            model_name: "linear-svm".into(),
            model_version: 3,
        };
        assert_eq!(roundtrip(m.clone()), m);
    }

    #[test]
    fn predict_request_roundtrips() {
        let m = Message::PredictRequest {
            inputs: as_inputs(vec![vec![1.0, -2.5, 3.25], vec![], vec![0.0; 17]]),
        };
        assert_eq!(roundtrip(m.clone()), m);
    }

    #[test]
    fn predict_response_roundtrips_all_output_kinds() {
        let m = Message::PredictResponse(PredictReply {
            outputs: vec![
                WireOutput::Class(9),
                WireOutput::Scores(vec![0.1, 0.9]),
                WireOutput::Labels(vec![1, 2, 3]),
            ],
            queue_us: 1_000,
            compute_us: 2_000,
        });
        assert_eq!(roundtrip(m.clone()), m);
    }

    #[test]
    fn control_messages_roundtrip() {
        for m in [
            Message::RegisterAck,
            Message::Heartbeat,
            Message::HeartbeatAck,
            Message::Shutdown,
            Message::Error {
                message: "boom".into(),
            },
        ] {
            assert_eq!(roundtrip(m.clone()), m);
        }
    }

    #[test]
    fn encode_into_appends_frames_back_to_back() {
        // Two frames in one buffer decode independently — the coalesced
        // writer path depends on frame boundaries being self-describing.
        let a = Message::Heartbeat;
        let b = Message::Error {
            message: "x".into(),
        };
        let mut buf = Vec::new();
        a.encode_into(1, &mut buf);
        let split = buf.len();
        b.encode_into(2, &mut buf);
        assert_eq!(&buf[..split], &a.encode(1)[..]);
        assert_eq!(&buf[split..], &b.encode(2)[..]);
    }

    #[test]
    fn decoded_message_owns_its_data() {
        // `decode` borrows the payload but the Message must not: mutate
        // the source buffer after decoding and the message is unchanged.
        // (`Message: 'static` is the compile-time half of the claim.)
        fn assert_static<T: 'static>() {}
        assert_static::<Message>();

        let m = Message::Register {
            container_name: "c0".into(),
            model_name: "svm".into(),
            model_version: 1,
        };
        let frame = m.encode(9);
        let mut payload = frame[18..].to_vec();
        let decoded = Message::decode(1, &payload).unwrap();
        payload.fill(0xAA);
        drop(payload);
        assert_eq!(decoded, m);
    }

    #[test]
    fn unknown_type_is_protocol_error() {
        let err = Message::decode(99, &[]).unwrap_err();
        assert!(matches!(err, RpcError::Protocol(_)));
    }

    #[test]
    fn truncated_payload_is_protocol_error() {
        let m = Message::PredictRequest {
            inputs: as_inputs(vec![vec![1.0, 2.0]]),
        };
        let frame = m.encode(1);
        // Chop the last 3 bytes off the payload.
        let err = Message::decode(3, &frame[18..frame.len() - 3]).unwrap_err();
        assert!(matches!(err, RpcError::Protocol(_)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Vec::new();
        put_u32(&mut payload, 0); // zero inputs
        payload.push(0xFF); // junk
        let err = Message::decode(3, &payload).unwrap_err();
        assert!(matches!(err, RpcError::Protocol(_)));
    }

    #[test]
    fn wire_size_matches_encoded_length() {
        let msgs = vec![
            Message::Heartbeat,
            Message::PredictRequest {
                inputs: as_inputs(vec![vec![1.0; 784]; 4]),
            },
            Message::PredictResponse(PredictReply {
                outputs: vec![WireOutput::Class(1), WireOutput::Scores(vec![0.5; 10])],
                queue_us: 5,
                compute_us: 6,
            }),
            Message::Register {
                container_name: "abc".into(),
                model_name: "defg".into(),
                model_version: 1,
            },
        ];
        for m in msgs {
            assert_eq!(m.wire_size(), m.encode(0).len(), "msg {m:?}");
        }
    }

    #[test]
    fn output_label_argmaxes_scores() {
        assert_eq!(WireOutput::Class(7).label(), 7);
        assert_eq!(WireOutput::Scores(vec![0.1, 0.7, 0.2]).label(), 1);
        assert_eq!(WireOutput::Labels(vec![4, 5]).label(), 4);
        assert_eq!(WireOutput::Labels(vec![]).label(), 0);
    }
}
