//! Clipper core: the layered prediction-serving architecture of
//! Crankshaw et al., NSDI 2017.
//!
//! Two layers sit between applications and model containers:
//!
//! **Model abstraction layer** ([`abstraction`]) — a uniform batch
//! prediction interface over heterogeneous models:
//! - [`cache`]: a CLOCK-evicted prediction cache whose pending entries
//!   double as the join point between duplicate in-flight queries and
//!   between predictions and later feedback (§4.2);
//! - [`batching`]: per-replica adaptive batching queues — AIMD (the
//!   default), online quantile regression, latency-model autotuning, or
//!   fixed — plus delayed batching under moderate load (§4.3). Each
//!   queue is a set of pull-based lanes (one task seals, sends and
//!   settles a batch) with an explicit `Running → Draining → Stopped`
//!   lifecycle and zero-copy batch dispatch. The queues belong to the
//!   layer: callers see [`ModelAbstractionLayer::predict`], and of a
//!   queue only the handle that replica removal returns, to await its
//!   drain;
//! - per-model replica scheduling (§4.4.1): one replica walk over live
//!   queue state (each replica's one health value and its latency model
//!   applied to its occupancy) for every routing decision —
//!   depth-aware power-of-two-choices with fall-through before
//!   shedding, or round-robin as the baseline — and graceful hot
//!   add/remove; see [`abstraction::SchedulerPolicy`].
//!
//! **Model selection layer** ([`selection`]) — feedback-driven dispatch
//! and combination (§5):
//! - the four-function selection-policy interface of Listing 2
//!   (`init` / `select` / `combine` / `observe`);
//! - [`selection::Exp3Policy`] (single-model bandit) and
//!   [`selection::Exp4Policy`] (ensemble weighting), plus the unweighted
//!   vote and the fixed model the paper compares them against;
//! - straggler mitigation: predictions render at the latency deadline from
//!   whatever subset of the ensemble has arrived (§5.2.2);
//! - contextualization: per-user/session policy state in an external
//!   statestore (§5.3).
//!
//! The [`Clipper`] facade ties the layers together and carries the
//! **control plane** (§3, §6.3): live app lifecycle
//! (register/update/unregister), model-version rollout and rollback with
//! graceful drain of the old version, statestore-persisted registrations
//! with restart rehydration, and the typed error taxonomy in [`api`].
//! [`HttpFrontend`] exposes both planes over HTTP as the versioned
//! `/api/v1` REST surface, and [`Fleet`] closes the replica loop
//! production-style:
//! container self-registration, heartbeat-driven health with graceful
//! expiry, and backlog-driven autoscaling.
//!
//! Everything that crosses a process boundary as JSON — request and
//! response bodies, statestore records, the per-context selection state,
//! `/metrics` — goes through the `serde` derives on the types in [`api`]
//! and [`selection`], on [`ModelId`] and [`PolicyKind`], and the four
//! `serde_json` functions. There
//! is no hand-written parser or emitter beside them.
//!
//! Start from [`ClipperBuilder`]:
//!
//! ```no_run
//! # use clipper_core::*;
//! # async fn demo() {
//! let clipper = Clipper::builder().build();
//! clipper.add_model(ModelId::new("my-model", 1), Default::default());
//! // clipper.add_replica(...transport...);
//! clipper.register_app(AppConfig::new("my-app", vec![ModelId::new("my-model", 1)]));
//! let out = clipper
//!     .predict("my-app", None, std::sync::Arc::new(vec![0.0; 784]))
//!     .await;
//! # }
//! ```

pub mod abstraction;
pub mod api;
pub mod batching;
pub mod cache;
mod clipper;
pub mod error;
mod fleet;
mod frontend;
pub mod selection;
mod types;

pub use abstraction::{BatchConfig, ModelAbstractionLayer, SchedulerPolicy};
pub use api::{
    ApiError, AppPatch, AppSpec, AppView, ErrorBody, ModelView, RolloutOutcome, SyncReport,
};
pub use batching::{AimdController, BatchStrategy, QuantileController};
pub use cache::{CacheKey, CacheStats, PredictionCache};
pub use clipper::{Clipper, ClipperBuilder};
pub use error::PredictError;
pub use fleet::{
    AutoscaleConfig, AutoscaleDecision, AutoscalerState, Fleet, FleetConfig, FleetEvent,
    FnLauncher, ReplicaLauncher,
};
pub use frontend::HttpFrontend;
pub use selection::{Exp3Policy, Exp4Policy, PolicyState, SelectionPolicy};
pub use types::{AppConfig, Feedback, Input, ModelId, Output, PolicyKind, Prediction};
