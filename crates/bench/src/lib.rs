//! Shared code for the bench binaries: scenario helpers for the
//! figure/table reproductions, and [`harness`], the one surface the
//! recorded benches report and gate through.
//!
//! | target | reproduces / records |
//! |---|---|
//! | `table1` | Table 1 (datasets) |
//! | `table2` | Table 2 (deep model zoo) |
//! | `fig3` | container latency profiles |
//! | `fig4` | batching-strategy comparison |
//! | `fig5` | delayed batching |
//! | `fig6` | replica scaling, 1 vs 10 Gbps |
//! | `fig7` | ensemble accuracy + confidence split |
//! | `fig8` | Exp3/Exp4 under model failure |
//! | `fig9` | straggler mitigation vs ensemble size |
//! | `fig10` | contextual (dialect) selection |
//! | `fig11` | Clipper vs TensorFlow-Serving |
//! | `caching` | §4.2 feedback-throughput claim |
//! | `ablation_aimd` | AIMD backoff-constant sensitivity |
//! | `ablation_eta` | Exp3 η sensitivity |
//! | `calibrate` | measured `α + β·b` latency-curve fit of one container (`--accuracy`: model-error probes) |
//! | `cache_scaling` | `BENCH_cache_scaling.json`: prediction-cache thread scaling |
//! | `replica_scaling` | `BENCH_replica_scaling.json`: p2c vs round-robin, §4.4.1 autotune A/B |
//! | `rpc_latency` | `BENCH_rpc_latency.json`: echo → RPC predict → HTTP predict RTT ladder |
//! | `alloc_count` | `BENCH_alloc_count.json`: allocations, write syscalls, spawns per request |
//! | `soak` | `BENCH_soak.json`: multi-frontend chaos timeline, zero lost queries |
//! | `fleet` | `BENCH_fleet.json`: register / flap / readmit / autoscale lifecycle |
//! | `recovery` | `BENCH_recovery.json`: retry, breaker and hedge A/Bs |
//!
//! Run any with `cargo run -p clipper-bench --release --bin <target>`.
//! The figure/table bins read `CLIPPER_BENCH_SECONDS` to stretch or
//! shrink their measured phases (default 3 s, floor 0.5 s). The seven
//! recorded bins take only `--smoke` and `--out <path>`; see [`harness`].

pub mod harness;
pub mod http_bench;

use clipper_containers::{
    ContainerConfig, ContainerLogic, LocalContainerTransport, ModelContainer, TimingModel,
};
use clipper_core::{BatchConfig, Clipper, ModelId};
use clipper_rpc::message::WireOutput;
use clipper_rpc::transport::BatchTransport;
use std::sync::Arc;
use std::time::Duration;

/// Length of each measured load phase.
pub fn phase_duration() -> Duration {
    let secs: f64 = std::env::var("CLIPPER_BENCH_SECONDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    Duration::from_secs_f64(secs.max(0.5))
}

/// Build a container whose *timing* follows a Figure-3 profile and whose
/// answers are constant (latency experiments don't consume the labels).
pub fn profile_container(
    name: &str,
    model: clipper_containers::Fig3Model,
    seed: u64,
) -> Arc<ModelContainer> {
    ModelContainer::new(ContainerConfig {
        name: format!("{name}:0"),
        model_name: name.to_string(),
        model_version: 1,
        logic: ContainerLogic::Fixed(WireOutput::Class(0)),
        timing: TimingModel::Profile(clipper_containers::fig3_profile(model)),
        seed,
    })
}

/// Stand up a single-model Clipper with the given batching config and a
/// majority-vote app named `"bench"`. Returns `(clipper, model_id)`.
pub fn single_model_stack(
    transport: Arc<dyn BatchTransport>,
    batch: BatchConfig,
    slo: Duration,
) -> (Clipper, ModelId) {
    let clipper = Clipper::builder().build();
    let id = ModelId::new("bench-model", 1);
    clipper.add_model(id.clone(), batch);
    clipper.add_replica(&id, transport).expect("replica");
    clipper.register_app(
        clipper_core::AppConfig::new("bench", vec![id.clone()])
            .with_policy(clipper_core::PolicyKind::Static { model_index: 0 })
            .with_slo(slo),
    );
    (clipper, id)
}

/// A small distinct input per (client, seq) so the prediction cache never
/// collapses load-generator queries.
pub fn distinct_input(client: usize, seq: u64, dim: usize) -> Arc<Vec<f32>> {
    let mut v = vec![0.0f32; dim.max(2)];
    v[0] = client as f32;
    v[1] = seq as f32;
    Arc::new(v)
}

/// Convenience: `LocalContainerTransport` over a fresh profile container.
pub fn profile_transport(
    name: &str,
    model: clipper_containers::Fig3Model,
    seed: u64,
) -> Arc<dyn BatchTransport> {
    LocalContainerTransport::new(profile_container(name, model, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_inputs_differ() {
        assert_ne!(distinct_input(0, 1, 8), distinct_input(0, 2, 8));
        assert_ne!(distinct_input(1, 1, 8), distinct_input(2, 1, 8));
        assert_eq!(distinct_input(0, 0, 1).len(), 2);
    }

    #[test]
    fn phase_duration_has_floor() {
        assert!(phase_duration() >= Duration::from_millis(500));
    }

    #[tokio::test]
    async fn single_model_stack_serves() {
        let t = profile_transport("noop", clipper_containers::Fig3Model::NoOp, 1);
        let (clipper, _) = single_model_stack(t, BatchConfig::default(), Duration::from_millis(50));
        let p = clipper
            .predict("bench", None, distinct_input(0, 0, 8))
            .await
            .unwrap();
        assert_eq!(p.models_used, 1);
    }
}
