//! Batch dispatch and recovery: what a lane ([`super::queue`]) does with
//! the batch it has just sealed, in the lane's own task.
//!
//! [`dispatch_batch`] ships the batch over the transport (racing a
//! hedge against a straggling primary when [`QueueConfig::hedge`] is
//! set), feeds the outcome to the replica's batch controller, latency
//! model and circuit breaker, and settles every item's sink before it
//! returns. A failed batch goes through [`settle_upstream_failure`]:
//! items still inside their retry budget are handed back to the
//! scheduler for redispatch onto a sibling replica, the rest fail-fill
//! with a typed [`PredictError::Upstream`]. The whole transport call
//! races the queue's drain-deadline event: a batch a hung transport is
//! holding when the deadline fires is failed by [`fail_drain_deadline`]
//! and feeds no estimator.
//!
//! [`QueueConfig::hedge`]: super::queue::QueueConfig::hedge

use super::breaker::BatchOutcome;
use super::queue::{QueueItem, QueueMetrics, QueueShared};
use super::BatchController;
use crate::error::{PredictError, UpstreamKind};
use crate::types::Input;
use clipper_rpc::transport::BatchTransport;
use clipper_rpc::{PredictReply, RpcError};
use parking_lot::Mutex;
use std::future::Future;
use std::pin::pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use tokio::time::Instant;

/// Counts a batch in flight while it lives. A guard rather than a pair
/// of calls so the count stays truthful when the runtime tears the lane
/// down mid-batch.
struct InflightGuard<'a> {
    inflight: &'a AtomicUsize,
    n: usize,
}

impl<'a> InflightGuard<'a> {
    fn new(inflight: &'a AtomicUsize, n: usize) -> Self {
        inflight.fetch_add(n, Ordering::AcqRel);
        InflightGuard { inflight, n }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.inflight.fetch_sub(self.n, Ordering::AcqRel);
    }
}

/// Send the sealed batch in `items`, dispatched at `dispatch_time`, and
/// settle every one of its sinks. On return both buffers are empty
/// (capacity kept for the lane's next batch), every sink has settled
/// and — after that — the batch's in-flight count has been released.
pub(super) async fn dispatch_batch(
    items: &mut Vec<QueueItem>,
    inputs: &mut Vec<Input>,
    dispatch_time: Instant,
    transport: &dyn BatchTransport,
    controller: &Mutex<Box<dyn BatchController>>,
    metrics: &QueueMetrics,
    shared: &QueueShared,
) {
    let n = items.len();
    let inflight = InflightGuard::new(&shared.inflight, n);
    for item in items.iter() {
        metrics
            .queue_us
            .record((dispatch_time - item.enqueued).as_micros() as u64);
    }
    // Zero-copy batch assembly: clone Arc pointers, never feature data.
    inputs.extend(items.iter().map(|i| i.input.clone()));
    metrics.batch_size.record(n as u64);

    // A transport whose future never resolves must not wedge a drain:
    // the send races the drain-deadline event. The loser is dropped
    // (transport futures own their request state, so dropping one is a
    // no-op at this layer).
    let sent = {
        let mut send = pin!(send_batch(inputs, transport, metrics, shared));
        let mut forced = pin!(shared.forced.acquire());
        race(&mut send, &mut forced).await
    };
    inputs.clear();
    let Raced::First((result, hedge_won)) = sent else {
        fail_drain_deadline(items, metrics);
        return;
    };
    let now = Instant::now();
    let rpc_elapsed = now - dispatch_time;
    // A hedge win says nothing about *this* replica's latency or
    // health, so the batch controller and latency model skip the sample
    // and the breaker hears "inconclusive" — only the primary's own
    // completions feed its estimators.
    if !hedge_won {
        controller.lock().record(n, rpc_elapsed);
        if let Some(predicted_ns) = shared.latency_model.predict_ns(n) {
            metrics
                .model_err_us
                .record((predicted_ns / 1_000).abs_diff(rpc_elapsed.as_micros() as u64));
        }
        shared.latency_model.observe(n, rpc_elapsed);
    }
    // Every batch settles with the breaker — a hedge-won one too: had
    // it been the half-open probe, skipping it would hold the probe slot
    // forever and refuse every later batch.
    shared.breaker.record(
        match &result {
            Ok(reply) if reply.outputs.len() != n => BatchOutcome::Failed,
            Ok(_) if hedge_won => BatchOutcome::Inconclusive,
            Ok(_) => BatchOutcome::Succeeded,
            Err(_) => BatchOutcome::Failed,
        },
        now,
    );
    metrics.rpc_us.record(rpc_elapsed.as_micros() as u64);
    if rpc_elapsed > shared.cfg.slo {
        metrics.slo_violations.inc();
    }

    match result {
        Ok(reply) if reply.outputs.len() == n => {
            metrics.remote_queue_us.record(reply.queue_us);
            metrics.predict_us.record(reply.compute_us);
            let overhead =
                (rpc_elapsed.as_micros() as u64).saturating_sub(reply.queue_us + reply.compute_us);
            metrics.overhead_us.record(overhead);
            metrics.completed.add(n as u64);
            if let Some(defaults) = &shared.hooks.defaults {
                let mut defaults = defaults.lock();
                for output in &reply.outputs {
                    defaults.record(output);
                }
            }
            for (item, output) in items.drain(..).zip(reply.outputs) {
                item.sink.complete(Ok(output));
            }
        }
        // A malformed reply is not retryable: the replica is reachable
        // but wrong, and a different replica may well agree with it.
        Ok(reply) => fail_fill(
            items,
            PredictError::Failed(format!(
                "container returned {} outputs for {} inputs",
                reply.outputs.len(),
                n
            )),
            metrics,
        ),
        Err(e) => {
            settle_upstream_failure(
                items,
                UpstreamKind::of(&e),
                e.is_retryable(),
                now,
                metrics,
                shared,
            );
        }
    }
    drop(inflight);
}

/// The transport call: the primary RPC and, when it straggles past the
/// model-derived hedge delay and a sibling transport is available, the
/// same inputs dispatched there too — first success wins. Returns the
/// batch's result and whether the hedge supplied it.
async fn send_batch(
    inputs: &[Input],
    transport: &dyn BatchTransport,
    metrics: &QueueMetrics,
    shared: &QueueShared,
) -> (Result<PredictReply, RpcError>, bool) {
    let mut primary = transport.predict_batch(inputs);
    let Some(delay) = hedge_delay(shared, inputs.len()) else {
        return (primary.await, false);
    };
    if let Ok(result) = tokio::time::timeout(delay, &mut primary).await {
        return (result, false);
    }
    let Some(backup) = shared.hooks.hedge_pick.as_ref().and_then(|pick| pick()) else {
        return (primary.await, false);
    };
    metrics.hedged.inc();
    let mut hedge = backup.predict_batch(inputs);
    match race(&mut primary, &mut hedge).await {
        Raced::First(Ok(r)) => (Ok(r), false),
        Raced::Second(Ok(r)) => (Ok(r), true),
        // A failed primary still has a hedge in flight — give it the
        // chance to rescue the batch before reporting the error.
        Raced::First(Err(e)) => match hedge.await {
            Ok(r) => (Ok(r), true),
            Err(_) => (Err(e), false),
        },
        Raced::Second(Err(_)) => (primary.await, false),
    }
}

/// The straggler threshold for hedged dispatch, or `None` when hedging
/// is off (no [`QueueConfig::hedge`]) or can't act (no `hedge_pick`
/// hook to find a sibling).
///
/// [`QueueConfig::hedge`]: super::queue::QueueConfig::hedge
fn hedge_delay(shared: &QueueShared, batch: usize) -> Option<Duration> {
    let h = shared.cfg.hedge.as_ref()?;
    shared.hooks.hedge_pick.as_ref()?;
    let predicted = shared
        .latency_model
        .predict_ns(batch)
        .map(|ns| Duration::from_nanos((ns as f64 * h.delay_factor) as u64));
    Some(predicted.map_or(h.min_delay, |d| d.max(h.min_delay)))
}

enum Raced<A, B> {
    First(A),
    Second(B),
}

/// Race two futures; the first wins ties (it's polled first).
async fn race<A, B>(
    a: &mut (impl Future<Output = A> + Unpin),
    b: &mut (impl Future<Output = B> + Unpin),
) -> Raced<A, B> {
    std::future::poll_fn(|cx| {
        if let std::task::Poll::Ready(r) = std::pin::Pin::new(&mut *a).poll(cx) {
            return std::task::Poll::Ready(Raced::First(r));
        }
        if let std::task::Poll::Ready(r) = std::pin::Pin::new(&mut *b).poll(cx) {
            return std::task::Poll::Ready(Raced::Second(r));
        }
        std::task::Poll::Pending
    })
    .await
}

/// Fail every item with `err`, counting each as a client-visible error.
fn fail_fill(items: &mut Vec<QueueItem>, err: PredictError, metrics: &QueueMetrics) {
    metrics.errors.add(items.len() as u64);
    for item in items.drain(..) {
        item.sink.complete(Err(err.clone()));
    }
}

/// Settle what a drain past its deadline still holds — a batch in flight
/// at a hung transport, or backlog pulled afterwards.
pub(super) fn fail_drain_deadline(items: &mut Vec<QueueItem>, metrics: &QueueMetrics) {
    let err = PredictError::Failed("replica drain deadline exceeded".into());
    fail_fill(items, err, metrics);
}

/// Settle a batch that failed at `now` item-by-item: items that are
/// retryable, inside their deadline budget, and under the attempt cap go
/// back to the scheduler for redispatch onto a different replica; the
/// rest fail-fill with a typed [`PredictError::Upstream`]. `errors`
/// counts only the fail-filled items — a rescued item is not a
/// client-visible error.
pub(super) fn settle_upstream_failure(
    items: &mut Vec<QueueItem>,
    kind: UpstreamKind,
    retryable: bool,
    now: Instant,
    metrics: &QueueMetrics,
    shared: &QueueShared,
) {
    for mut item in items.drain(..) {
        item.attempts += 1;
        let within_budget = now < item.deadline;
        if retryable && within_budget && item.attempts < shared.cfg.retry_max_attempts {
            if let Some(redispatch) = shared.hooks.redispatch.as_ref() {
                // Queue-wait restarts on the new queue; the deadline
                // budget, deliberately, does not.
                item.enqueued = now;
                match redispatch(item) {
                    Ok(()) => {
                        metrics.retried.inc();
                        continue;
                    }
                    Err(back) => item = back,
                }
            }
        }
        metrics.errors.inc();
        let attempts = item.attempts;
        item.sink.complete(Err(PredictError::Upstream {
            kind,
            retryable,
            attempts,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::super::queue::tests::{
        direct_item, echo_transport, queued, spawn_replica_queue, submit, test_metrics,
    };
    use super::super::queue::{
        spawn_replica_queue_with_hooks, HedgeConfig, QueueConfig, QueueHooks, ReplySink,
    };
    use super::*;
    use crate::batching::breaker::{BreakerConfig, BreakerState};
    use crate::batching::BatchStrategy;
    use crate::cache::{CacheKey, PredictionCache};
    use crate::types::{Input, Output};
    use clipper_rpc::message::{PredictReply, WireOutput};
    use clipper_rpc::transport::FnTransport;
    use std::sync::atomic::AtomicU8;
    use std::sync::Arc;
    use tokio::sync::oneshot;

    /// A transport that sleeps, then fails — for hedge/straggler tests
    /// (`FnTransport` resolves synchronously, so it can't straggle).
    struct SlowFailTransport {
        delay: Duration,
    }

    impl BatchTransport for SlowFailTransport {
        fn predict_batch(
            &self,
            _inputs: &[Input],
        ) -> clipper_rpc::transport::BoxFuture<Result<PredictReply, clipper_rpc::RpcError>>
        {
            let delay = self.delay;
            Box::pin(async move {
                tokio::time::sleep(delay).await;
                Err(clipper_rpc::RpcError::ConnectionClosed)
            })
        }

        fn id(&self) -> String {
            "slow-fail".into()
        }
    }

    #[tokio::test]
    async fn dispatch_shares_the_callers_input_arcs() {
        // Zero-copy: the transport must observe the very allocation the
        // submitter enqueued, not a deep copy.
        let original: Input = Arc::new(vec![4.0]);
        let probe = original.clone();
        let t: Arc<dyn BatchTransport> =
            Arc::new(FnTransport::new("ptr-check", move |inputs: &[Input]| {
                assert!(
                    inputs.iter().any(|i| Arc::ptr_eq(i, &probe)),
                    "batch must share the submitted Arc"
                );
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(0); inputs.len()],
                    queue_us: 0,
                    compute_us: 0,
                })
            }));
        let q = spawn_replica_queue("m:0".into(), t, QueueConfig::default(), test_metrics());
        let (tx, rx) = oneshot::channel();
        submit(&q, queued(original, ReplySink::direct(tx)));
        rx.await.unwrap().unwrap();
    }

    #[tokio::test]
    async fn transport_failure_fails_the_batch() {
        let bad: Arc<dyn BatchTransport> = Arc::new(FnTransport::new("bad", |_: &[Input]| {
            Err(clipper_rpc::RpcError::Remote("dead".into()))
        }));
        let q = spawn_replica_queue("m:0".into(), bad, QueueConfig::default(), test_metrics());
        let (item, rx) = direct_item(1.0);
        submit(&q, item);
        let err = rx.await.unwrap().unwrap_err();
        // `Remote` is non-retryable, so the single attempt fail-fills
        // with the typed upstream error (503-vs-500 decided by it).
        assert!(matches!(
            err,
            PredictError::Upstream {
                kind: UpstreamKind::Remote,
                retryable: false,
                attempts: 1,
            }
        ));
        assert_eq!(err.http_status(), 500);
    }

    #[tokio::test]
    async fn output_count_mismatch_is_an_error() {
        let short: Arc<dyn BatchTransport> =
            Arc::new(FnTransport::new("short", |_: &[Input]| {
                Ok(PredictReply {
                    outputs: vec![], // wrong count
                    queue_us: 0,
                    compute_us: 0,
                })
            }));
        let q = spawn_replica_queue("m:0".into(), short, QueueConfig::default(), test_metrics());
        let (item, rx) = direct_item(1.0);
        submit(&q, item);
        let err = rx.await.unwrap().unwrap_err();
        assert!(matches!(err, PredictError::Failed(ref m) if m.contains("outputs")));
    }

    #[tokio::test]
    async fn retryable_failure_redispatches_through_the_hook() {
        // Primary always drops the batch; the redispatch hook forwards
        // the item onto a healthy sibling queue. The client must see a
        // clean answer and the retried counter must tick.
        let flaky: Arc<dyn BatchTransport> =
            Arc::new(FnTransport::new("flaky", |_: &[Input]| {
                Err(clipper_rpc::RpcError::Injected)
            }));
        let backup = spawn_replica_queue(
            "m:1".into(),
            echo_transport(),
            QueueConfig::default(),
            test_metrics(),
        );
        let backup_for_hook = backup.clone();
        let hooks = QueueHooks {
            redispatch: Some(Arc::new(move |item| backup_for_hook.try_submit(item))),
            hedge_pick: None,
            ..Default::default()
        };
        let metrics = test_metrics();
        let q = spawn_replica_queue_with_hooks(
            "m:0".into(),
            flaky,
            QueueConfig::default(),
            None,
            metrics.clone(),
            hooks,
        );
        let (tx, rx) = oneshot::channel();
        submit(
            &q,
            QueueItem::new(
                Arc::new(vec![7.0]),
                ReplySink::direct(tx),
                Instant::now(),
                Instant::now() + Duration::from_secs(5),
            ),
        );
        let out = rx.await.unwrap().unwrap();
        assert_eq!(out, Output::Class(7));
        // The counter ticks right after the hand-off, which the sibling
        // may answer first: wait for the lane to get there.
        let waited = Instant::now();
        while metrics.retried.get() == 0 {
            assert!(waited.elapsed() < Duration::from_secs(5), "never counted");
            tokio::task::yield_now().await;
        }
        assert_eq!(metrics.retried.get(), 1);
        assert_eq!(metrics.errors.get(), 0, "a rescued item is not an error");
    }

    #[tokio::test]
    async fn budget_exhaustion_fail_fills_with_a_typed_error() {
        // No sibling can take the item (hook refuses), so each attempt
        // consumes budget until the typed Upstream error surfaces.
        let flaky: Arc<dyn BatchTransport> =
            Arc::new(FnTransport::new("flaky", |_: &[Input]| {
                Err(clipper_rpc::RpcError::Timeout)
            }));
        let hooks = QueueHooks {
            redispatch: Some(Arc::new(Err)), // nobody will take it
            hedge_pick: None,
            ..Default::default()
        };
        let q = spawn_replica_queue_with_hooks(
            "m:0".into(),
            flaky,
            QueueConfig::default(),
            None,
            test_metrics(),
            hooks,
        );
        let (tx, rx) = oneshot::channel();
        submit(
            &q,
            QueueItem::new(
                Arc::new(vec![1.0]),
                ReplySink::direct(tx),
                Instant::now(),
                Instant::now() + Duration::from_secs(5),
            ),
        );
        let err = rx.await.unwrap().unwrap_err();
        assert!(matches!(
            err,
            PredictError::Upstream {
                kind: UpstreamKind::Timeout,
                retryable: true,
                attempts: 1,
            }
        ));
        assert_eq!(err.http_status(), 503, "retryable upstream is a 503");
    }

    #[tokio::test]
    async fn redispatch_never_lands_on_a_draining_queue() {
        // The sibling is draining: try_submit must bounce the item back
        // so it fail-fills instead of sneaking into a closing backlog.
        let flaky: Arc<dyn BatchTransport> =
            Arc::new(FnTransport::new("flaky", |_: &[Input]| {
                Err(clipper_rpc::RpcError::Injected)
            }));
        let draining = spawn_replica_queue(
            "m:1".into(),
            echo_transport(),
            QueueConfig::default(),
            test_metrics(),
        );
        draining.shutdown();
        draining.drained().await;
        let draining_for_hook = draining.clone();
        let hooks = QueueHooks {
            redispatch: Some(Arc::new(move |item| draining_for_hook.try_submit(item))),
            hedge_pick: None,
            ..Default::default()
        };
        let q = spawn_replica_queue_with_hooks(
            "m:0".into(),
            flaky,
            QueueConfig::default(),
            None,
            test_metrics(),
            hooks,
        );
        let (tx, rx) = oneshot::channel();
        submit(
            &q,
            QueueItem::new(
                Arc::new(vec![1.0]),
                ReplySink::direct(tx),
                Instant::now(),
                Instant::now() + Duration::from_secs(5),
            ),
        );
        let err = rx.await.unwrap().unwrap_err();
        assert!(matches!(err, PredictError::Upstream { .. }));
    }

    #[tokio::test]
    async fn hedge_rescues_a_straggling_primary() {
        // Primary hangs far past the hedge delay; the hedge transport
        // answers instantly and its result wins.
        let stuck: Arc<dyn BatchTransport> = Arc::new(SlowFailTransport {
            delay: Duration::from_secs(30),
        });
        let hooks = QueueHooks {
            redispatch: None,
            hedge_pick: Some(Arc::new(|| {
                Some(Arc::new(FnTransport::new("backup", |inputs: &[Input]| {
                    Ok(PredictReply {
                        outputs: inputs
                            .iter()
                            .map(|x| WireOutput::Class(x[0] as u32))
                            .collect(),
                        queue_us: 0,
                        compute_us: 0,
                    })
                })) as Arc<dyn BatchTransport>)
            })),
            ..Default::default()
        };
        let metrics = test_metrics();
        let cfg = QueueConfig {
            strategy: BatchStrategy::Fixed { size: 1 },
            hedge: Some(HedgeConfig {
                delay_factor: 3.0,
                min_delay: Duration::from_millis(5),
            }),
            ..Default::default()
        };
        let q =
            spawn_replica_queue_with_hooks("m:0".into(), stuck, cfg, None, metrics.clone(), hooks);
        let (tx, rx) = oneshot::channel();
        submit(&q, queued(Arc::new(vec![9.0]), ReplySink::direct(tx)));
        let out = rx.await.unwrap().unwrap();
        assert_eq!(out, Output::Class(9));
        assert_eq!(metrics.hedged.get(), 1);
    }

    #[tokio::test]
    async fn hedge_won_probe_releases_the_breaker_slot() {
        // Regression: the half-open probe straggles past the hedge delay
        // and the hedge answers for it. That outcome used to skip the
        // breaker entirely, so the probe slot stayed taken and every
        // later batch was refused with BreakerOpen although the replica
        // had healed.
        const FAIL: u8 = 0;
        const STRAGGLE: u8 = 1;
        const HEALED: u8 = 2;
        struct Moody(Arc<AtomicU8>);
        impl BatchTransport for Moody {
            fn predict_batch(
                &self,
                inputs: &[Input],
            ) -> clipper_rpc::BoxFuture<Result<PredictReply, clipper_rpc::RpcError>> {
                let mood = self.0.load(Ordering::Relaxed);
                let n = inputs.len();
                Box::pin(async move {
                    if mood == FAIL {
                        return Err(clipper_rpc::RpcError::ConnectionClosed);
                    }
                    if mood == STRAGGLE {
                        tokio::time::sleep(Duration::from_millis(200)).await;
                    }
                    Ok(PredictReply {
                        outputs: vec![WireOutput::Class(1); n],
                        queue_us: 0,
                        compute_us: 0,
                    })
                })
            }
            fn id(&self) -> String {
                "moody".into()
            }
        }
        let mood = Arc::new(AtomicU8::new(FAIL));
        let hooks = QueueHooks {
            redispatch: None,
            hedge_pick: Some(Arc::new(|| Some(echo_transport()))),
            ..Default::default()
        };
        let cooldown = Duration::from_millis(20);
        let cfg = QueueConfig {
            strategy: BatchStrategy::Fixed { size: 1 },
            breaker: BreakerConfig { cooldown },
            hedge: Some(HedgeConfig {
                delay_factor: 3.0,
                min_delay: Duration::from_millis(5),
            }),
            ..Default::default()
        };
        let primary = Arc::new(Moody(mood.clone()));
        let q =
            spawn_replica_queue_with_hooks("m:0".into(), primary, cfg, None, test_metrics(), hooks);
        let ask = |v: f32| {
            let (item, rx) = direct_item(v);
            submit(&q, item);
            async move { rx.await.unwrap() }
        };
        for _ in 0..3 {
            assert!(ask(7.0).await.is_err());
        }
        assert_eq!(q.breaker().state(), BreakerState::Open);
        tokio::time::sleep(cooldown * 2).await;

        mood.store(STRAGGLE, Ordering::Relaxed);
        assert_eq!(ask(7.0).await, Ok(Output::Class(7)), "the hedge answers");
        assert_ne!(
            q.health(Instant::now()),
            crate::batching::Health::Clean,
            "an inconclusive probe proves nothing"
        );

        mood.store(HEALED, Ordering::Relaxed);
        for _ in 0..5 {
            assert_eq!(ask(7.0).await, Ok(Output::Class(1)), "primary serves");
        }
        assert_eq!(q.breaker().state(), BreakerState::Closed);
        assert_eq!(q.breaker().half_opened(), 2, "a second probe was granted");
    }

    #[tokio::test]
    async fn hedge_with_both_sides_failing_settles_every_sink_once() {
        // Primary is slow-then-dead, hedge fails fast: the batch must
        // still settle exactly once per sink (pending_len bookkeeping
        // proves no double-complete and no leak).
        let slow_dead: Arc<dyn BatchTransport> = Arc::new(SlowFailTransport {
            delay: Duration::from_millis(20),
        });
        let hooks = QueueHooks {
            redispatch: None,
            hedge_pick: Some(Arc::new(|| {
                Some(Arc::new(FnTransport::new("bad-backup", |_: &[Input]| {
                    Err(clipper_rpc::RpcError::ConnectionClosed)
                })) as Arc<dyn BatchTransport>)
            })),
            ..Default::default()
        };
        let cfg = QueueConfig {
            strategy: BatchStrategy::Fixed { size: 1 },
            hedge: Some(HedgeConfig {
                delay_factor: 3.0,
                min_delay: Duration::from_millis(2),
            }),
            ..Default::default()
        };
        let cache = PredictionCache::new(16);
        let model = crate::types::ModelId::new("m", 1);
        let input: Input = Arc::new(vec![4.0]);
        let key = CacheKey::new(&model, &input);
        let q = spawn_replica_queue_with_hooks(
            "m:0".into(),
            slow_dead,
            cfg,
            None,
            test_metrics(),
            hooks,
        );
        let rx = match cache.lookup_or_pending(key) {
            crate::cache::Lookup::MustCompute(rx) => rx,
            _ => panic!(),
        };
        submit(&q, queued(input, ReplySink::cache(cache.clone(), key)));
        let filled = rx.await.unwrap();
        assert!(matches!(filled, Err(PredictError::Upstream { .. })));
        assert_eq!(cache.pending_len(), 0, "every sink settled exactly once");
    }
}
