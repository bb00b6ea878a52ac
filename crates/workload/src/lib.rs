//! Workload generation, simulated networks, and experiment reporting.
//!
//! The paper's evaluation machinery, rebuilt:
//!
//! - [`ArrivalProcess`]: arrival processes — closed-loop clients,
//!   open-loop Poisson, and bursty on/off streams (§4.3.2's "moderate or
//!   bursty loads");
//! - [`run_closed_loop`] / [`run_open_loop`]: load drivers that apply an
//!   arrival process to any async request function and collect a
//!   [`LoadReport`] (throughput, latency distribution, errors);
//! - [`run_open_loop_with_churn`]: config-churn-under-load — open-loop
//!   traffic with scheduled control-plane actions (rollouts, app updates)
//!   firing mid-run, reporting both load and per-action outcomes;
//! - [`SimLink`]: bandwidth/latency-simulated network links for the
//!   Figure-6 cluster-scaling study (1 Gbps vs 10 Gbps);
//! - [`report`]: the aligned text table a recorded bench prints its gates
//!   in, and per-phase soak statistics;
//! - [`soak`]: the multi-frontend fan-in soak harness — N in-process
//!   frontends over one statestore and one replica fleet, sustained mixed
//!   workload, and a scripted crash/restart/rollout/fault timeline with a
//!   zero-lost-queries verdict.

mod arrivals;
mod churn;
mod driver;
pub mod report;
mod simlink;
pub mod soak;

pub use arrivals::ArrivalProcess;
pub use churn::{http_request, run_open_loop_with_churn, ActionOutcome, ChurnAction, ChurnReport};
pub use driver::{
    run_closed_loop, run_open_loop, run_open_loop_outcomes, LoadReport, RequestOutcome,
};
pub use report::Table;
pub use simlink::SimLink;
