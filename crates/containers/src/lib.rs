//! Model container runtime (§4.4 of the Clipper paper).
//!
//! The paper hosts each model in a Docker container that exposes the batch
//! prediction interface of Listing 1. Here a container is a Rust value with
//! the same observable properties:
//!
//! - **isolated & stateless-after-init**: a [`ModelContainer`] owns its
//!   model and answers batches serially (one model, one device), so its
//!   latency profile is a property of the container alone;
//! - **uniform interface**: containers serve batches either in-process
//!   ([`LocalContainerTransport`], a `BatchTransport`) or over the real
//!   TCP RPC system ([`spawn_tcp_container`]);
//! - **replicable**: spawn several containers for the same model to scale
//!   throughput (§4.4.1).
//!
//! Because we have no Tesla K20c, container *timing* is pluggable
//! ([`TimingModel`]): real measured compute, a calibrated latency profile
//! (the Figure-3 curves), or a simulated wave-parallel GPU ([`GpuDevice`],
//! used for the Figure-6/11 deep models). Answers always come from real
//! model code; only the clock is simulated, so latency experiments keep
//! the paper's service-time shapes without its GPUs or frameworks.

mod container;
mod gpu;
mod latency;
mod logic;
mod profiles;

pub use container::{
    spawn_tcp_container, ContainerConfig, LocalContainerTransport, ModelContainer, TimingModel,
};
pub use gpu::{GpuDevice, GpuModelSpec};
pub use latency::LatencyProfile;
pub use logic::ContainerLogic;
pub use profiles::{fig11_model, fig3_profile, table2_zoo, Fig11Model, Fig3Model};
