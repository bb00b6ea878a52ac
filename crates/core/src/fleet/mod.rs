//! Self-managing replica fleet: discovery, health, and autoscaling over
//! the data plane.
//!
//! Clipper (§6.2) delegates replica lifecycle to an external container
//! manager; this module closes that loop in-process, the way the paper's
//! successors do (InferLine's latency-objective autoscaling, Clockwork's
//! centralized worker state):
//!
//! - **Self-registration** ([`registry`]): containers announce themselves
//!   over `POST /api/v1/replicas` (or an RPC `Register` frame); the
//!   frontend validates model/version against its directory, attaches the
//!   replica to the abstraction layer itself, and persists a
//!   `config/replica/*` record so a restarted or sibling frontend
//!   re-adopts the same fleet.
//! - **Heartbeat-driven health** ([`health`]): a monitor task flags a
//!   silent member's queue and expires a dead member. The flag is one
//!   input of the queue's one health answer: it feeds the p2c
//!   scheduler's suspect-avoidance (the replica is deprioritized but not
//!   abandoned), and a beat or a recovered RPC probe clears it. Expiry
//!   triggers the zero-drop graceful drain and harvests the replica's
//!   learned latency curve into its own `config/replica/{name}` record,
//!   so the same container is re-admitted warm; that record is a
//!   replica's only warm start.
//! - **Autoscaling** ([`autoscale`]): a control loop over signals the
//!   scheduler already computes (backlog, admission sheds) launches and
//!   reaps replicas through a pluggable [`ReplicaLauncher`].

mod autoscale;
mod health;
mod registry;

pub use autoscale::{AutoscaleConfig, AutoscaleDecision, AutoscalerState};
pub use registry::{Fleet, FleetConfig, FleetEvent, FnLauncher, ReplicaLauncher};
