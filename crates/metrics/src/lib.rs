//! Metrics substrate for Clipper.
//!
//! Every quantitative claim in the Clipper paper — P99 latencies, sustained
//! throughput, batch sizes, cache hit rates — is read from counts and
//! latency distributions. This crate records each fact once, in one of
//! three kinds:
//!
//! - [`Counter`]: a lock-free monotonic count (a throughput is the reader's
//!   rate of change over it);
//! - [`Gauge`]: a lock-free instantaneous value;
//! - [`Histogram`]: log-bucketed latency histogram with quantile queries
//!   (the shape used by HDR-style recorders, built from scratch).
//!
//! A [`Registry`] names them, and its [`RegistrySnapshot`] is what the HTTP
//! `/metrics` endpoint and experiment harnesses report.
//!
//! All types are cheap to clone (`Arc` inside) and safe to update from many
//! threads or tasks concurrently.

pub mod counter;
pub mod histogram;
pub mod registry;
pub mod snapshot;

pub use counter::{Counter, Gauge};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::Registry;
pub use snapshot::{MetricValue, RegistrySnapshot};
