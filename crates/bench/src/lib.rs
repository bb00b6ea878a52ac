//! Shared code for the recorded benches: [`harness`], the one surface
//! they report and gate through; [`paper`], the sections of the `paper`
//! bench; and scenario helpers.
//!
//! | target | records |
//! |---|---|
//! | `paper` | `BENCH_paper.json`: Tables 1–2, Figures 3–11, §4.2 caching, AIMD and η ablations, each beside the paper's value with a shape gate |
//! | `cache_scaling` | `BENCH_cache_scaling.json`: prediction-cache thread scaling |
//! | `replica_scaling` | `BENCH_replica_scaling.json`: p2c vs round-robin, §4.4.1 autotune A/B |
//! | `rpc_latency` | `BENCH_rpc_latency.json`: echo → RPC predict → HTTP predict RTT ladder |
//! | `alloc_count` | `BENCH_alloc_count.json`: allocations, write syscalls, spawns per request |
//! | `soak` | `BENCH_soak.json`: multi-frontend chaos timeline, zero lost queries |
//! | `fleet` | `BENCH_fleet.json`: register / flap / readmit / autoscale lifecycle |
//! | `recovery` | `BENCH_recovery.json`: retry, breaker and hedge A/Bs |
//!
//! Run any with `cargo run -p clipper-bench --release --bin <target>`;
//! each takes only `--smoke` and `--out <path>` (see [`harness`]).

pub mod harness;
pub mod http_bench;
pub mod paper;

use clipper_containers::{
    ContainerConfig, ContainerLogic, LocalContainerTransport, ModelContainer, TimingModel,
};
use clipper_core::batching::QueueConfig;
use clipper_core::{Clipper, ModelId};
use clipper_rpc::message::WireOutput;
use clipper_rpc::transport::BatchTransport;
use std::sync::Arc;
use std::time::Duration;

/// Build a container whose *timing* follows a Figure-3 profile and whose
/// answers are constant (latency experiments don't consume the labels).
pub(crate) fn profile_container(
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
pub(crate) fn single_model_stack(
    transport: Arc<dyn BatchTransport>,
    batch: QueueConfig,
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
pub(crate) fn distinct_input(client: usize, seq: u64, dim: usize) -> Arc<Vec<f32>> {
    let mut v = vec![0.0f32; dim.max(2)];
    v[0] = client as f32;
    v[1] = seq as f32;
    Arc::new(v)
}

/// Convenience: `LocalContainerTransport` over a fresh profile container.
pub(crate) fn profile_transport(
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

    #[tokio::test]
    async fn single_model_stack_serves() {
        let t = profile_transport("noop", clipper_containers::Fig3Model::NoOp, 1);
        let (clipper, _) = single_model_stack(t, QueueConfig::default(), Duration::from_millis(50));
        let p = clipper
            .predict("bench", None, distinct_input(0, 0, 8))
            .await
            .unwrap();
        assert_eq!(p.models_used, 1);
    }
}
