//! A predict's deadline timer leaves the runtime when the predict
//! answers. Every cache-missing `Clipper::predict` arms a timer for its
//! app's SLO; after 1,000 of them with a 10 s SLO, all answered in well
//! under a second, the runtime holds as many pending timers as before
//! the calls, not 1,000 more.
//!
//! This file intentionally holds a single test: integration-test binaries
//! run as their own process, so nothing else arms a timer on the
//! vendored runtime while `pending_timer_count()` is being read.

use clipper::core::batching::QueueConfig;
use clipper::prelude::*;
use clipper::rpc::message::{PredictReply, WireOutput};
use clipper::rpc::transport::FnTransport;
use std::sync::Arc;
use std::time::Duration;
use tokio::time::{pending_timer_count, timer_registration_count};

const PREDICTS: u32 = 1_000;

#[tokio::test]
async fn a_cold_predicts_deadline_timer_leaves_when_it_answers() {
    let clipper = Clipper::builder().build();
    let m = ModelId::new("m", 1);
    clipper.add_model(m.clone(), QueueConfig::default());
    clipper
        .add_replica(
            &m,
            Arc::new(FnTransport::new("one", |inputs| {
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(1); inputs.len()],
                    queue_us: 0,
                    compute_us: 1,
                })
            })),
        )
        .unwrap();
    clipper.register_app(AppConfig::new("app", vec![m]).with_slo(Duration::from_secs(10)));
    clipper
        .predict("app", None, Arc::new(vec![0.0]))
        .await
        .unwrap();

    let pending = pending_timer_count();
    let registered = timer_registration_count();
    // Served from a spawned task, as the HTTP frontend serves them.
    let served = tokio::spawn({
        let clipper = clipper.clone();
        async move {
            for i in 1..=PREDICTS {
                let p = clipper
                    .predict("app", None, Arc::new(vec![i as f32]))
                    .await
                    .unwrap();
                assert_eq!(p.models_used, 1);
            }
        }
    });
    served.await.unwrap();
    assert!(
        timer_registration_count() > registered,
        "the cold predicts armed no deadline timer"
    );
    assert_eq!(
        pending_timer_count(),
        pending,
        "answered predicts left their deadline timers pending"
    );
}
