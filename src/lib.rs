//! # Clipper: a low-latency online prediction serving system
//!
//! A from-scratch Rust reproduction of *Clipper* (Crankshaw et al., NSDI
//! 2017). Clipper interposes between end-user applications and machine
//! learning models, providing a layered architecture:
//!
//! - the **model abstraction layer** ([`core::abstraction`]) gives every
//!   model a uniform batch-prediction interface behind a prediction cache
//!   and per-container adaptive batching queues;
//! - the **model selection layer** ([`core::selection`]) dispatches each
//!   query to one or more models using online bandit policies (Exp3, Exp4)
//!   and combines their outputs into a robust prediction with a confidence
//!   estimate, mitigating stragglers along the way.
//!
//! This facade crate re-exports the public API of every workspace crate so
//! downstream users only need a single dependency:
//!
//! ```
//! use clipper::prelude::*;
//!
//! # fn main() {
//! let dataset = clipper::ml::datasets::DatasetSpec::mnist_like()
//!     .with_train_size(200)
//!     .with_test_size(50)
//!     .generate(42);
//! assert_eq!(dataset.num_features(), 784);
//! # }
//! ```
//!
//! See `examples/quickstart.rs` for an end-to-end serving deployment.

pub use clipper_baseline as baseline;
pub use clipper_containers as containers;
pub use clipper_core as core;
pub use clipper_metrics as metrics;
pub use clipper_ml as ml;
pub use clipper_rpc as rpc;
pub use clipper_statestore as statestore;
pub use clipper_workload as workload;

/// Commonly used items, ready for glob import.
pub mod prelude {
    pub use clipper_containers::{ContainerConfig, LatencyProfile};
    pub use clipper_core::{
        ApiError, AppConfig, AppPatch, Clipper, ClipperBuilder, Feedback, HttpFrontend, Input,
        ModelId, Output, PolicyKind, Prediction,
    };
    pub use clipper_ml::datasets::{Dataset, DatasetSpec};
    pub use clipper_ml::models::Model;
}
