//! In-memory key-value store — the Redis substitute for Clipper's
//! contextualized selection state (§5.3).
//!
//! The paper keeps per-user/session model-selection state "in an external
//! database system. In our current implementation we use Redis." This crate
//! provides the Redis subset Clipper needs, from scratch:
//!
//! - [`StateStore`]: a sharded, versioned KV map with compare-and-swap
//!   (used for read-modify-write of policy state under concurrent
//!   feedback);
//! - a RESP-style wire protocol (arrays of bulk strings in, typed replies
//!   out) so the store can run as a real network service;
//! - [`StateStoreServer`] / [`StateStoreClient`]: the tokio TCP server
//!   and an async reader for it.
//!
//! Most experiments embed the store in-process via `StateStore` directly;
//! the `rest_service` example runs it as a separate listener to mirror the
//! paper's deployment shape.

mod client;
mod resp;
mod server;
mod store;

pub use client::{ClientError, StateStoreClient};
pub use server::StateStoreServer;
pub use store::{CasOutcome, StateStore};
