//! Lightweight RPC system connecting Clipper to model containers (§4.4).
//!
//! The paper ships batches of queries to framework-specific model
//! containers over a "lightweight RPC system" whose overhead is low enough
//! that a No-Op container round-trip costs microseconds (Figure 3d). This
//! crate is that system, built from scratch:
//!
//! - [`message`]: the wire messages — container registration, batch
//!   prediction requests/replies, heartbeats — with a hand-rolled binary
//!   codec into plain `Vec<u8>` buffers (length-prefixed frames,
//!   little-endian fields);
//! - [`codec`]: the frame reader over any `AsyncRead`, and each
//!   connection's outbound buffer;
//! - [`server`]: the Clipper side — accepts container connections and
//!   yields a multiplexed [`transport::BatchTransport`] handle per
//!   registered container;
//! - [`client`]: the container side — connect, register, then serve
//!   batches and heartbeats from one blocking execution thread;
//! - [`transport`]: the `BatchTransport` abstraction the model abstraction
//!   layer dispatches through (TCP handles, in-process containers, and
//!   fault-injection wrappers all implement it);
//! - [`faulty`]: fault injection (added latency, drops) for straggler and
//!   robustness experiments, in the spirit of smoltcp's `--drop-chance`.

pub mod client;
pub mod codec;
pub mod error;
pub mod faulty;
pub mod message;
pub mod server;
pub mod transport;

pub use client::{serve_container, ContainerClientConfig};
pub use error::RpcError;
pub use message::{Message, PredictReply, WireOutput};
pub use server::RpcServer;
pub use transport::{as_inputs, BoxFuture, Input};
