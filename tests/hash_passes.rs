//! Proves the predict hot path hashes each input exactly once (§4.2
//! tentpole: compute-once `CacheKey`).
//!
//! This file intentionally holds a single test: integration-test binaries
//! run as their own process, so the process-wide `CacheKey::build_count()`
//! delta is exactly the key builds this test triggers.

use clipper::core::abstraction::ModelAbstractionLayer;
use clipper::core::batching::QueueConfig;
use clipper::core::cache::CacheKey;
use clipper::core::{ModelId, Output};
use clipper::metrics::Registry;
use clipper::rpc::message::{PredictReply, WireOutput};
use clipper::rpc::transport::{BatchTransport, FnTransport};
use std::sync::Arc;

#[tokio::test]
async fn predict_hashes_each_input_exactly_once() {
    let mal = ModelAbstractionLayer::new(64, Registry::new());
    let m = ModelId::new("m", 1);
    mal.add_model(m.clone(), QueueConfig::default());
    let echo: Arc<dyn BatchTransport> = Arc::new(FnTransport::new("echo", |inputs| {
        Ok(PredictReply {
            outputs: inputs
                .iter()
                .map(|x| WireOutput::Class(x[0] as u32))
                .collect(),
            queue_us: 0,
            compute_us: 1,
        })
    }));
    mal.add_replica(&m, echo).unwrap();

    let input: clipper::core::Input = Arc::new(vec![7.0; 256]);
    // The build counter is compiled out of release builds (it would put a
    // process-global atomic on the hot path); the counting assertions
    // only hold in debug. The serving assertions run either way.
    let counting = cfg!(debug_assertions);
    let before = CacheKey::build_count();

    // Cold predict: miss → MustCompute → queue dispatch → cache fill. The
    // queue's reply sink carries the precomputed key, so the whole round
    // trip costs one hashing pass.
    let out = mal.predict(&m, input.clone(), true).await.unwrap();
    assert_eq!(out, Output::Class(7));
    if counting {
        assert_eq!(
            CacheKey::build_count() - before,
            1,
            "cold predict must hash the input exactly once"
        );
    }

    // Warm predict: hit. Again exactly one pass.
    let out = mal.predict(&m, input.clone(), true).await.unwrap();
    assert_eq!(out, Output::Class(7));
    if counting {
        assert_eq!(
            CacheKey::build_count() - before,
            2,
            "warm predict must hash the input exactly once"
        );
    }

    // The cache-bypass path hashes nothing at all.
    mal.predict(&m, input, false).await.unwrap();
    if counting {
        assert_eq!(
            CacheKey::build_count() - before,
            2,
            "uncached predict must not build cache keys"
        );
    }
}
