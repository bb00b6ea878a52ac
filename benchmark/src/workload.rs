//! The five workloads, as data. Every constant a workload runs with is in
//! this table; a new workload is a new row.

use clipper_containers::{fig3_profile, Fig3Model, LatencyProfile, TimingModel};
use clipper_core::PolicyKind;
use std::time::Duration;

/// The latency objective replies are judged by, and the one the batching
/// controller tunes against (the paper's 20 ms).
pub const SLO: Duration = Duration::from_millis(20);

/// The app's straggler deadline. Far above the SLO so that a stall of the
/// box shows as a late reply — a miss in `slo_ok_share` — and never as a
/// substituted default label, which the oracle would have to call wrong.
pub const APP_DEADLINE: Duration = Duration::from_millis(500);

pub const APP: &str = "bench";

/// Length of the segments timings are computed over.
pub const SEGMENT: Duration = Duration::from_secs(1);

/// How many times a run builds and warms the stack; `setup_s` is the
/// median, and the last one built is the one measured.
pub const SETUP_REPS: usize = 5;

pub struct Model {
    pub name: &'static str,
    /// Share of ids, in percent, on which the model's label is wrong.
    pub err_pct: u32,
    /// One container per entry.
    pub replicas: Vec<TimingModel>,
}

pub enum Driver {
    /// Closed loop over HTTP: `conns` keep-alive connections, each driven
    /// by one OS thread on a blocking socket. `zipf` is (keys, exponent);
    /// without it every input is distinct.
    Http {
        conns: usize,
        zipf: Option<(usize, f64)>,
    },
    /// Open loop in process: Poisson arrivals at `rate` per second from
    /// one generator thread, one task per request, distinct inputs.
    Open { rate: f64 },
    /// Closed loop in process: `callers` tasks, each predicting a fresh
    /// input under one of `contexts` and, with probability `feedback`,
    /// sending the truth for the input it predicted `lag` operations ago.
    Ensemble {
        callers: usize,
        contexts: u64,
        feedback: f64,
        lag: usize,
    },
}

pub struct Workload {
    pub name: &'static str,
    pub driver: Driver,
    pub policy: PolicyKind,
    pub models: Vec<Model>,
    /// Requests sent before measuring, per connection or caller for the
    /// closed loops and in total for the open ones.
    pub warmup: usize,
    /// Fill the prediction cache to capacity with unrelated entries, so
    /// that every insert of a distinct-input workload evicts from the
    /// first measured request on, not from the 32769th.
    pub prefill_cache: bool,
}

fn linear(base_us: u64, per_item_us: u64) -> TimingModel {
    TimingModel::Profile(LatencyProfile {
        base: Duration::from_micros(base_us),
        per_item: Duration::from_micros(per_item_us),
        jitter_frac: 0.05,
    })
}

fn one_exact_model(replicas: Vec<TimingModel>) -> Vec<Model> {
    vec![Model {
        name: "m",
        err_pct: 0,
        replicas,
    }]
}

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "http_hot",
            driver: Driver::Http {
                conns: 2,
                zipf: Some((4096, 1.1)),
            },
            policy: PolicyKind::Static { model_index: 0 },
            models: one_exact_model(vec![TimingModel::Measured]),
            warmup: 2000,
            prefill_cache: false,
        },
        Workload {
            name: "http_cold",
            driver: Driver::Http {
                conns: 2,
                zipf: None,
            },
            policy: PolicyKind::Static { model_index: 0 },
            models: one_exact_model(vec![TimingModel::Measured]),
            warmup: 500,
            prefill_cache: true,
        },
        Workload {
            name: "batch_open",
            driver: Driver::Open { rate: 4000.0 },
            policy: PolicyKind::Static { model_index: 0 },
            models: one_exact_model(vec![TimingModel::Profile(fig3_profile(
                Fig3Model::LinearSvmSklearn,
            ))]),
            warmup: 1000,
            prefill_cache: true,
        },
        Workload {
            name: "hetero_open",
            driver: Driver::Open { rate: 3000.0 },
            policy: PolicyKind::Static { model_index: 0 },
            models: one_exact_model(vec![linear(1000, 10), linear(3000, 30)]),
            warmup: 1000,
            prefill_cache: true,
        },
        Workload {
            name: "ensemble_feedback",
            driver: Driver::Ensemble {
                callers: 4,
                contexts: 256,
                feedback: 0.3,
                lag: 100,
            },
            policy: PolicyKind::Exp4 { eta: 0.02 },
            models: [("m0", 5), ("m1", 15), ("m2", 25), ("m3", 35)]
                .into_iter()
                .map(|(name, err_pct)| Model {
                    name,
                    err_pct,
                    replicas: vec![TimingModel::Measured],
                })
                .collect(),
            warmup: 300,
            prefill_cache: true,
        },
    ]
}
