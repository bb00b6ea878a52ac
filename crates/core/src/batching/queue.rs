//! The per-replica batching queue: pull-based lanes with an explicit
//! lifecycle.
//!
//! Queries destined for a model container replica land in its queue. A
//! *lane* is one task that loops: pull up to the controller's current
//! maximum batch size, optionally wait `batch_wait_timeout` for an
//! under-full batch to fill (delayed batching, §4.3.2), ship the batch
//! over the transport **zero-copy** (the batch slice shares the callers'
//! `Arc`'d feature vectors; no `f32` is copied on dispatch), and
//! distribute outputs to each query's reply sink — either a direct
//! oneshot or a prediction-cache fill that wakes every joined waiter —
//! all from that one task, so a query that reaches a queue starts no
//! task. A queue runs [`QueueConfig::pipeline_depth`] identical lanes
//! over one channel; pulling is serialized (one lane assembles a batch
//! at a time), so the depth is exactly the number of batches that can
//! be outstanding at the replica.
//!
//! # Lifecycle
//!
//! A queue moves `Running → Draining → Stopped`:
//!
//! - **Running** — accepting submissions; the lanes pull and dispatch.
//! - **Draining** — entered by [`ReplicaQueue::shutdown`]. New submissions
//!   are refused (routed elsewhere by the scheduler), but the lanes keep
//!   pulling until the queue is empty, so every already-accepted query is
//!   *completed or fail-filled* — never silently dropped. This is what
//!   makes hot replica removal lossless.
//! - **Stopped** — every lane has settled its last batch and exited;
//!   [`ReplicaQueue::drained`] resolves.
//!
//! As a backstop, [`ReplySink`] completes on drop: if a queued item is
//! destroyed without being dispatched (runtime teardown), its sink still
//! fail-fills — a pending prediction-cache entry is failed rather than
//! wedging its waiters forever.
//!
//! # Scheduler-visible state
//!
//! The queue exposes cheap lock-free reads the routing layer keys on:
//!
//! - **load** — [`len`](ReplicaQueue::len) (channel occupancy) plus
//!   [`inflight`](ReplicaQueue::inflight) (pulled but unanswered
//!   queries), together [`occupancy`](ReplicaQueue::occupancy);
//! - **service time** — one estimator, the replica's online
//!   [`LatencyModel`] (`α + β·b`, fed the round trip of every batch
//!   dispatched here that a hedge did not answer).
//!   [`estimated_ns`](ReplicaQueue::estimated_ns) applies it to the
//!   occupancy: that one number is the power-of-two-choices score, the
//!   SLO-admission estimate and the autoscaler's backlog signal;
//! - **health** — one state, [`health`](ReplicaQueue::health): the
//!   replica's [`CircuitBreaker`], fed every batch outcome and the
//!   fleet's heartbeat-silent signal.
//!
//! Timing decomposition recorded per batch (the Figure-11 bars):
//! - `queue_us`: time queries waited in this queue before dispatch;
//! - `remote_queue_us` / `predict_us`: container-reported device queueing
//!   and model compute;
//! - `overhead_us`: everything else in the round trip (serialization, RPC,
//!   scheduling).

use super::breaker::{BreakerConfig, CircuitBreaker, Health};
use super::dispatch::{dispatch_batch, fail_drain_deadline, settle_upstream_failure};
use super::{micros, BatchController, LatencyModel, LatencyPrior};
use crate::abstraction::SchedulerPolicy;
use crate::cache::{CacheKey, PredictionCache};
use crate::error::{PredictError, UpstreamKind};
use crate::types::{Input, Output};
use clipper_metrics::{Counter, Gauge, Histogram, Registry};
use clipper_rpc::transport::BatchTransport;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tokio::sync::{mpsc, oneshot, Semaphore};
use tokio::time::Instant;

enum SinkKind {
    /// Fill the prediction cache (waking all joined waiters).
    Cache {
        cache: PredictionCache,
        key: CacheKey,
    },
    /// Complete a direct oneshot (cache-bypass path).
    Direct(oneshot::Sender<Result<Output, PredictError>>),
}

/// Where a completed output goes.
///
/// A sink is single-shot and **completes on drop**: if it is destroyed
/// before [`ReplySink::complete`] ran, it delivers a failure instead of
/// vanishing. For the cache variant that means the pending entry is
/// fail-filled, so cache waiters can never be wedged by a dropped queue
/// item.
pub(crate) struct ReplySink(Option<SinkKind>);

impl ReplySink {
    /// A sink that fills the prediction cache under a precomputed key.
    pub(crate) fn cache(cache: PredictionCache, key: CacheKey) -> Self {
        ReplySink(Some(SinkKind::Cache { cache, key }))
    }

    /// A sink that completes a direct oneshot.
    pub(crate) fn direct(tx: oneshot::Sender<Result<Output, PredictError>>) -> Self {
        ReplySink(Some(SinkKind::Direct(tx)))
    }

    /// Deliver the result to whoever is waiting.
    pub(crate) fn complete(mut self, result: Result<Output, PredictError>) {
        self.finish(result);
    }

    fn finish(&mut self, result: Result<Output, PredictError>) {
        match self.0.take() {
            Some(SinkKind::Cache { cache, key }) => cache.fill(key, result),
            Some(SinkKind::Direct(tx)) => {
                let _ = tx.send(result);
            }
            None => {}
        }
    }
}

impl Drop for ReplySink {
    fn drop(&mut self) {
        if self.0.is_some() {
            self.finish(Err(PredictError::Failed(
                "query dropped before completion (replica shutdown)".into(),
            )));
        }
    }
}

/// One query waiting in a replica queue.
pub(crate) struct QueueItem {
    /// The feature vector.
    pub input: Input,
    /// Where the output goes.
    pub sink: ReplySink,
    /// When the query entered the queue (reset on redispatch, so each
    /// queue's wait histogram stays truthful).
    pub enqueued: Instant,
    /// Deadline budget for retry/redispatch: a retryable upstream
    /// failure redispatches the item only while `now < deadline`.
    pub deadline: Instant,
    /// Dispatch attempts consumed so far (0 for a fresh query).
    pub attempts: u32,
}

impl QueueItem {
    /// A fresh queue item, enqueued at `now` by the scheduler that routed
    /// it, with its retry budget ending at `deadline`.
    pub(crate) fn new(input: Input, sink: ReplySink, now: Instant, deadline: Instant) -> Self {
        QueueItem {
            input,
            sink,
            enqueued: now,
            deadline,
            attempts: 0,
        }
    }
}

/// Queue configuration: one per model version, applied to each of its
/// replica queues. It is also what the statestore holds for the version
/// (inside a model record) and what `sync_config()` restores: durations
/// are written as whole microseconds under `<name>_us` keys. A replica's
/// warm-start latency curve is not configuration; it is the `prior` the
/// queue is spawned with.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Batching strategy.
    pub strategy: super::BatchStrategy,
    /// Latency objective the controller tunes against.
    #[serde(rename = "slo_us", with = "micros")]
    pub slo: Duration,
    /// Delayed batching: how long an under-full batch waits for more
    /// queries (0 = dispatch immediately).
    #[serde(rename = "batch_wait_timeout_us", with = "micros")]
    pub batch_wait_timeout: Duration,
    /// Queue depth before submissions are refused (the scheduler then
    /// falls through to a sibling replica, shedding only when every
    /// replica is full).
    pub queue_capacity: usize,
    /// Hard cap on batch size.
    pub max_batch_cap: usize,
    /// Outstanding batches per replica: the number of lanes the queue
    /// runs, each holding at most one batch (2 keeps a GPU's next batch
    /// queued while the current one runs, as both systems do in §6).
    pub pipeline_depth: usize,
    /// Hang detector for draining queues: the longest a drain may go
    /// **without a single query settling** before it is force-failed. A
    /// deep backlog draining slowly re-arms the deadline on every bit of
    /// progress and is never cut short; a transport whose future simply
    /// never resolves — which would otherwise wedge
    /// [`ReplicaQueue::drained`] forever — trips it. Past the deadline
    /// every lane stops waiting on its transport and fails its batch,
    /// and any remaining backlog is fail-filled as it is pulled, so
    /// every waiter still settles.
    #[serde(rename = "drain_deadline_us", with = "micros")]
    pub drain_deadline: Duration,
    /// SLO-aware admission (§4.4.1): when `true`, the scheduler consults
    /// every routable replica's latency model + backlog estimate at
    /// predict time and sheds up front (429) when no replica can meet
    /// the SLO at current depth — an honest fast failure instead of a
    /// guaranteed late answer.
    pub slo_admission: bool,
    /// Deadline-budgeted retry (§5.2.2): total dispatch attempts a query
    /// may consume when batches fail with *retryable* transport errors —
    /// each failed attempt redispatches still-within-budget items onto a
    /// different routable replica (when the queue is wired into a
    /// scheduler; standalone queues fail as before). `1` disables retry.
    pub retry_max_attempts: u32,
    /// Opt-in hedged dispatch (§5.2.2 straggler mitigation): when a
    /// batch's in-flight time crosses the model-derived hedge delay, the
    /// batch is re-dispatched to a sibling replica and the first success
    /// wins. `None` = no hedging.
    pub hedge: Option<HedgeConfig>,
    /// Per-replica circuit breaker tuning (§5.2.2). A record written
    /// before the breaker persisted reads the default.
    #[serde(default)]
    pub breaker: BreakerConfig,
    /// How the model's scheduler picks a replica for each query. A record
    /// written before the policy persisted reads the default.
    #[serde(default)]
    pub scheduler: SchedulerPolicy,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            strategy: super::BatchStrategy::default(),
            slo: Duration::from_millis(20),
            batch_wait_timeout: Duration::ZERO,
            queue_capacity: 8_192,
            max_batch_cap: 4_096,
            pipeline_depth: 1,
            drain_deadline: Duration::from_secs(5),
            slo_admission: false,
            retry_max_attempts: 3,
            hedge: None,
            breaker: BreakerConfig::default(),
            scheduler: SchedulerPolicy::default(),
        }
    }
}

/// Hedged-dispatch tuning (see [`QueueConfig::hedge`]).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HedgeConfig {
    /// The hedge fires when a batch's in-flight time exceeds
    /// `delay_factor ×` the replica's model-predicted batch latency — a
    /// quantile proxy: with factor 3 only genuine stragglers trigger it.
    pub delay_factor: f64,
    /// Floor for the hedge delay; also the delay used while the latency
    /// model has no estimate yet.
    #[serde(rename = "min_delay_us", with = "micros")]
    pub min_delay: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            delay_factor: 3.0,
            min_delay: Duration::from_millis(2),
        }
    }
}

/// Scheduler callbacks wired into a queue at spawn time
/// ([`spawn_replica_queue_with_hooks`]); both default to `None` for
/// standalone queues, which then fail exactly as a single-replica fleet
/// would.
#[derive(Clone, Default)]
pub(crate) struct QueueHooks {
    /// Hand a retry-budgeted item back for redispatch onto a *different*
    /// routable replica. `Err(item)` = nobody could take it (the queue
    /// then fail-fills it).
    #[allow(clippy::type_complexity)]
    pub redispatch: Option<Arc<dyn Fn(QueueItem) -> Result<(), QueueItem> + Send + Sync>>,
    /// Pick a sibling replica's transport for a hedged re-dispatch (or
    /// `None` when no healthy sibling exists).
    #[allow(clippy::type_complexity)]
    pub hedge_pick: Option<Arc<dyn Fn() -> Option<Arc<dyn BatchTransport>> + Send + Sync>>,
}

/// Telemetry for one replica queue.
#[derive(Clone)]
pub(crate) struct QueueMetrics {
    /// Dispatched batch sizes.
    pub batch_size: Histogram,
    /// Full RPC round-trip per batch (µs).
    pub rpc_us: Histogram,
    /// Local queue wait per query (µs).
    pub queue_us: Histogram,
    /// Container-reported device queueing per batch (µs).
    pub remote_queue_us: Histogram,
    /// Container-reported compute per batch (µs).
    pub predict_us: Histogram,
    /// Round-trip minus container time per batch (µs).
    pub overhead_us: Histogram,
    /// Latency-model error per batch: `|predicted − actual|` round trip
    /// (µs), recorded before the batch is folded into the model.
    pub model_err_us: Histogram,
    /// Completed queries: every query a replica answered.
    pub completed: Counter,
    /// Failed queries.
    pub errors: Counter,
    /// Batches whose round trip exceeded the SLO.
    pub slo_violations: Counter,
    /// Controller's current max batch size.
    pub current_max_batch: Gauge,
    /// Queries handed back for redispatch after a retryable upstream
    /// failure (recovered, not client-visible errors).
    pub retried: Counter,
    /// Batches re-dispatched to a sibling replica by hedging.
    pub hedged: Counter,
}

impl QueueMetrics {
    /// Register the queue's metrics under `prefix` in `registry`.
    pub(crate) fn register(registry: &Registry, prefix: &str) -> Self {
        QueueMetrics {
            batch_size: registry.histogram(&format!("{prefix}/batch_size")),
            rpc_us: registry.histogram(&format!("{prefix}/rpc_us")),
            queue_us: registry.histogram(&format!("{prefix}/queue_us")),
            remote_queue_us: registry.histogram(&format!("{prefix}/remote_queue_us")),
            predict_us: registry.histogram(&format!("{prefix}/predict_us")),
            overhead_us: registry.histogram(&format!("{prefix}/overhead_us")),
            model_err_us: registry.histogram(&format!("{prefix}/model_err_us")),
            completed: registry.counter(&format!("{prefix}/completed")),
            errors: registry.counter(&format!("{prefix}/errors")),
            slo_violations: registry.counter(&format!("{prefix}/slo_violations")),
            current_max_batch: registry.gauge(&format!("{prefix}/max_batch")),
            retried: registry.counter(&format!("{prefix}/retried")),
            hedged: registry.counter(&format!("{prefix}/hedged")),
        }
    }
}

/// Lifecycle states of a replica queue (see the module docs).
const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_STOPPED: u8 = 2;

/// State shared between the queue handle, its lanes and the drain
/// watchdog.
pub(super) struct QueueShared {
    pub(super) state: AtomicU8,
    /// Items accepted but not yet pulled by a lane (channel occupancy).
    pub(super) depth: AtomicUsize,
    /// Queries pulled into batches whose replies haven't settled yet.
    pub(super) inflight: AtomicUsize,
    /// Closed by the last lane to exit; `drained()` waits on it.
    pub(super) done: Semaphore,
    /// Closed by the drain watchdog once the deadline passes (a closed
    /// semaphore as a level-triggered event, like `done`): every lane
    /// races its transport call against it, and batches pulled after
    /// this point are fail-filled instead of dispatched, so a hung
    /// transport can't re-wedge the drain.
    pub(super) forced: Semaphore,
    /// Online `α + β·b` latency model (§4.4.1), fed once per dispatched
    /// batch — the replica's only service-time estimate: the autotune
    /// controller, p2c scoring, SLO-aware admission, the autoscaler's
    /// backlog signal and the hedge delay all read it.
    pub(super) latency_model: Arc<LatencyModel>,
    /// The replica's health (§5.2.2): a lane consults it before
    /// dispatching and feeds it every batch outcome, the fleet monitor
    /// feeds it heartbeat silence, and [`ReplicaQueue::health`] reads it.
    /// A replica that only ever errors drains instantly and would
    /// otherwise look *ideal* to depth-aware routing — this is how the
    /// scheduler spots the trap.
    pub(super) breaker: CircuitBreaker,
    /// Scheduler callbacks for redispatch and hedging (empty for
    /// standalone queues).
    pub(super) hooks: QueueHooks,
    /// The queue's configuration, as given at spawn.
    pub(super) cfg: QueueConfig,
}

/// Handle to a running replica queue.
pub struct ReplicaQueue {
    id: String,
    /// Dropped on shutdown: closing the channel is what lets the lanes
    /// finish their pull loops once the backlog is gone.
    tx: Mutex<Option<mpsc::Sender<QueueItem>>>,
    shared: Arc<QueueShared>,
}

impl ReplicaQueue {
    /// Try to enqueue a query. Refused — with the item handed back so the
    /// caller can route it elsewhere — when the queue is draining/stopped
    /// or full.
    pub(crate) fn try_submit(&self, item: QueueItem) -> Result<(), QueueItem> {
        if self.shared.state.load(Ordering::Acquire) != STATE_RUNNING {
            return Err(item);
        }
        let guard = self.tx.lock();
        let Some(tx) = guard.as_ref() else {
            return Err(item);
        };
        // Count before sending so a lane's decrement can never race
        // the counter below zero.
        self.shared.depth.fetch_add(1, Ordering::AcqRel);
        match tx.try_send(item) {
            Ok(()) => Ok(()),
            Err(mpsc::error::TrySendError::Full(item))
            | Err(mpsc::error::TrySendError::Closed(item)) => {
                self.shared.depth.fetch_sub(1, Ordering::AcqRel);
                Err(item)
            }
        }
    }

    /// Replica id (`model:replica`).
    pub(crate) fn id(&self) -> &str {
        &self.id
    }

    /// Queries accepted but not yet pulled by a lane (cheap relaxed
    /// read — the scheduler polls this on every routing decision).
    pub(crate) fn len(&self) -> usize {
        self.shared.depth.load(Ordering::Relaxed)
    }

    /// Queries pulled into dispatched batches whose replies haven't
    /// settled.
    pub(crate) fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::Relaxed)
    }

    /// Queued plus in-flight queries — the rate-free load signal.
    pub(crate) fn occupancy(&self) -> usize {
        self.len() + self.inflight()
    }

    /// The replica's health at `now`: one lock-free read of its
    /// [`CircuitBreaker`], which every scheduling decision derives from.
    pub(crate) fn health(&self, now: Instant) -> Health {
        self.shared.breaker.health(now)
    }

    /// The replica's circuit breaker (live state, transition counters).
    pub(crate) fn breaker(&self) -> &CircuitBreaker {
        &self.shared.breaker
    }

    /// The fleet health monitor's signal that the replica's heartbeats
    /// went silent (or came back) — suspicion ahead of its batches
    /// starting to fail. Feeds the replica's one health state; returns
    /// whether the flag changed.
    pub(crate) fn set_suspect_hint(&self, suspect: bool) -> bool {
        self.shared.breaker.set_heartbeat_silent(suspect)
    }

    /// Model-predicted nanoseconds for the replica to serve everything
    /// it holds plus `extra` new queries: `α + β·(occupancy + extra)`,
    /// and 0 for no work at all. With `extra = 1` this is when a query
    /// admitted *now* would complete — the power-of-two-choices score
    /// and the SLO-admission estimate; with `extra = 0` it is the
    /// backlog the autoscaler watches. `None` until the latency model is
    /// established: callers then compare raw occupancy, and admission
    /// gives the replica the benefit of the doubt rather than shedding
    /// on a guess.
    pub(crate) fn estimated_ns(&self, extra: usize) -> Option<u64> {
        match self.occupancy() + extra {
            0 => Some(0),
            items => self.shared.latency_model.predict_ns(items),
        }
    }

    /// The replica's online `α + β·b` latency model (§4.4.1).
    pub(crate) fn latency_model(&self) -> &Arc<LatencyModel> {
        &self.shared.latency_model
    }

    /// Begin a graceful drain: refuse new submissions, let the lanes
    /// complete (or fail-fill) everything already queued, then stop.
    /// Idempotent. Await [`ReplicaQueue::drained`] for completion.
    ///
    /// A watchdog enforces [`QueueConfig::drain_deadline`]: if a full
    /// deadline passes without one query settling (a hung transport), it
    /// raises the queue's drain-deadline event. Every lane then stops
    /// waiting on its transport and fails the batch it holds, and any
    /// backlog still queued is fail-filled as it is pulled instead of
    /// being dispatched, so the drain always terminates.
    pub(crate) fn shutdown(&self) {
        let began = self
            .shared
            .state
            .compare_exchange(
                STATE_RUNNING,
                STATE_DRAINING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        // Closing the channel (dropping the only sender) is what ends the
        // lanes' pull loops after the backlog is consumed.
        self.tx.lock().take();
        if began {
            // Note: like `spawn_replica_queue_with_hooks`, this requires the
            // (global, vendored) tokio runtime.
            let shared = self.shared.clone();
            tokio::spawn(async move {
                // Occupancy only shrinks during a drain (submissions are
                // refused), so an unchanged value across a full deadline
                // means not one query settled — a hang, not a deep
                // backlog draining slowly.
                let mut last_occupancy =
                    shared.depth.load(Ordering::Relaxed) + shared.inflight.load(Ordering::Relaxed);
                // `done` closes when the last lane announces Stopped, so
                // a clean drain wakes (and ends) the watchdog immediately
                // instead of parking it for the full deadline.
                while tokio::time::timeout(shared.cfg.drain_deadline, shared.done.acquire())
                    .await
                    .is_err()
                {
                    let occupancy = shared.depth.load(Ordering::Relaxed)
                        + shared.inflight.load(Ordering::Relaxed);
                    if occupancy >= last_occupancy {
                        // The lanes take it from here: each fails what it
                        // holds and what it still pulls, then exits.
                        shared.forced.close();
                        return;
                    }
                    // Progress since the last check: re-arm the full
                    // deadline instead of force-failing a healthy (if
                    // slow) drain of a deep backlog.
                    last_occupancy = occupancy;
                }
            });
        }
    }

    /// Wait until every lane has exited and every accepted query settled
    /// (state `Stopped`). Must be preceded by the queue's shutdown, which
    /// replica removal begins, otherwise this waits forever.
    ///
    /// The drain finishes once every in-flight batch *resolves* — with an
    /// answer or an error. Transports with liveness probing (the TCP
    /// handle's heartbeats) fail their in-flight batches on a hang; for a
    /// custom transport whose future never resolves at all, the queue's
    /// [`QueueConfig::drain_deadline`] kicks in: the lanes abandon the
    /// call and fail their batches with "replica drain deadline
    /// exceeded", so this never waits forever.
    pub async fn drained(&self) {
        // The last lane closes the semaphore on exit; a closed acquire is
        // the "done" signal. If it already closed, this returns
        // immediately.
        let _ = self.shared.done.acquire().await;
    }
}

impl Drop for ReplicaQueue {
    fn drop(&mut self) {
        // Graceful even when the handle is just dropped: the lanes drain
        // the backlog and exit once the channel closes. Sinks complete on
        // drop as the backstop if the runtime tears the lanes down first.
        let _ = self.shared.state.compare_exchange(
            STATE_RUNNING,
            STATE_DRAINING,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        self.tx.get_mut().take();
    }
}

/// Spawn the lanes for one replica's queue, with its recovery hooks
/// wired in and the replica's own warm-start curve as `prior` (`None` = a cold latency
/// model that establishes itself from live observations). The hooks are
/// how a standalone queue stays standalone: without a `redispatch`
/// hook, a failed batch fail-fills immediately (no retry); without a
/// `hedge_pick` hook, the hedge knob is inert. The model abstraction
/// layer supplies both so retry and hedging route across the fleet.
pub(crate) fn spawn_replica_queue_with_hooks(
    id: String,
    transport: Arc<dyn BatchTransport>,
    cfg: QueueConfig,
    prior: Option<LatencyPrior>,
    metrics: QueueMetrics,
    hooks: QueueHooks,
) -> Arc<ReplicaQueue> {
    let (tx, rx) = mpsc::channel(cfg.queue_capacity.max(1));
    let rx = Arc::new(tokio::sync::Mutex::new(rx));
    let latency_model = Arc::new(prior.map_or_else(LatencyModel::new, LatencyModel::with_prior));
    let controller = Arc::new(Mutex::new(cfg.strategy.build(
        cfg.slo,
        cfg.max_batch_cap,
        &latency_model,
    )));
    let lanes = cfg.pipeline_depth.max(1);
    let shared = Arc::new(QueueShared {
        state: AtomicU8::new(STATE_RUNNING),
        depth: AtomicUsize::new(0),
        inflight: AtomicUsize::new(0),
        done: Semaphore::new(0),
        forced: Semaphore::new(0),
        latency_model,
        breaker: CircuitBreaker::new(cfg.breaker),
        hooks,
        cfg,
    });
    // Detached on purpose: the lanes own their own exit (channel close →
    // drain → Stopped), so no JoinHandle juggling is needed.
    for _ in 0..lanes {
        tokio::spawn(lane(
            rx.clone(),
            transport.clone(),
            controller.clone(),
            metrics.clone(),
            shared.clone(),
        ));
    }
    Arc::new(ReplicaQueue {
        id,
        tx: Mutex::new(Some(tx)),
        shared,
    })
}

/// One lane: seal a batch under the receiver lock, then send and settle
/// it from this task before pulling again.
async fn lane(
    rx: Arc<tokio::sync::Mutex<mpsc::Receiver<QueueItem>>>,
    transport: Arc<dyn BatchTransport>,
    controller: Arc<Mutex<Box<dyn BatchController>>>,
    metrics: QueueMetrics,
    shared: Arc<QueueShared>,
) {
    let cfg = &shared.cfg;
    // Batch-assembly buffers, emptied by every iteration and reused by
    // the next: steady-state batching allocates nothing.
    let mut items: Vec<QueueItem> = Vec::new();
    let mut inputs: Vec<Input> = Vec::new();
    loop {
        {
            // One lane assembles at a time; the others wait here while
            // their siblings' batches are in flight.
            let mut pull = rx.lock().await;
            // Blocks until a query arrives or the channel closes (drain
            // begun and backlog consumed).
            let Some(first) = pull.recv().await else {
                break;
            };
            shared.depth.fetch_sub(1, Ordering::AcqRel);
            let max_batch = {
                let c = controller.lock();
                metrics.current_max_batch.set(c.max_batch() as i64);
                c.max_batch().min(cfg.max_batch_cap).max(1)
            };
            items.push(first);
            if cfg.batch_wait_timeout > Duration::ZERO {
                // Delayed batching: hold the batch open briefly.
                let wait_deadline = Instant::now() + cfg.batch_wait_timeout;
                while items.len() < max_batch {
                    match tokio::time::timeout_at(wait_deadline, pull.recv()).await {
                        Ok(Some(item)) => {
                            shared.depth.fetch_sub(1, Ordering::AcqRel);
                            items.push(item);
                        }
                        Ok(None) | Err(_) => break,
                    }
                }
            } else {
                while items.len() < max_batch {
                    match pull.try_recv() {
                        Ok(item) => {
                            shared.depth.fetch_sub(1, Ordering::AcqRel);
                            items.push(item);
                        }
                        Err(_) => break,
                    }
                }
            }
        }

        // Past the drain deadline, dispatching more at the hung transport
        // would re-wedge the drain, so the remaining backlog fail-fills
        // here.
        if shared.forced.is_closed() {
            fail_drain_deadline(&mut items, &metrics);
            continue;
        }

        // One clock read per sealed batch: the breaker's admission and
        // the batch's dispatch time.
        let now = Instant::now();
        // Circuit breaker: an open breaker inside its cooldown refuses
        // the batch outright. The items still get the full recovery
        // path — redispatch onto a sibling when within budget, typed
        // fail-fill otherwise — so a breaker trip is invisible to
        // clients whenever another replica can absorb the load.
        if !shared.breaker.admit_batch(now) {
            settle_upstream_failure(
                &mut items,
                UpstreamKind::BreakerOpen,
                true,
                now,
                &metrics,
                &shared,
            );
            continue;
        }

        dispatch_batch(
            &mut items,
            &mut inputs,
            now,
            &*transport,
            &controller,
            &metrics,
            &shared,
        )
        .await;
        // The settlement just woke this batch's callers. Go to the back
        // of the run queue so that a closed-loop caller's next query is
        // in the channel before the next batch is sealed; pulling at
        // once would seal smaller batches and make that query wait out
        // a whole round trip. The replies are already delivered, so the
        // hop is off every request's path.
        tokio::task::yield_now().await;
    }
    // Whichever lane lets go of the receiver last has seen every other
    // lane settle its final batch: it announces Stopped.
    if Arc::into_inner(rx).is_some() {
        shared.state.store(STATE_STOPPED, Ordering::Release);
        shared.done.close();
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::batching::breaker::BreakerState;
    use crate::batching::BatchStrategy;
    use clipper_rpc::message::{PredictReply, WireOutput};
    use clipper_rpc::transport::FnTransport;

    pub(in crate::batching) fn echo_transport() -> Arc<dyn BatchTransport> {
        Arc::new(FnTransport::new("echo", |inputs: &[Input]| {
            Ok(PredictReply {
                outputs: inputs
                    .iter()
                    .map(|x| WireOutput::Class(x[0] as u32))
                    .collect(),
                queue_us: 5,
                compute_us: 10,
            })
        }))
    }

    pub(in crate::batching) fn test_metrics() -> QueueMetrics {
        QueueMetrics::register(&Registry::new(), "q")
    }

    /// A standalone queue: no warm-start curve and no recovery hooks.
    pub(in crate::batching) fn spawn_replica_queue(
        id: String,
        transport: Arc<dyn BatchTransport>,
        cfg: QueueConfig,
        metrics: QueueMetrics,
    ) -> Arc<ReplicaQueue> {
        spawn_replica_queue_with_hooks(id, transport, cfg, None, metrics, QueueHooks::default())
    }

    /// Enqueue `item`, or shed it with `Overloaded` when the queue refuses.
    pub(in crate::batching) fn submit(q: &ReplicaQueue, item: QueueItem) {
        if let Err(item) = q.try_submit(item) {
            item.sink.complete(Err(PredictError::Overloaded));
        }
    }

    /// The queue's lifecycle state, one of the `STATE_*` constants.
    fn state(q: &ReplicaQueue) -> u8 {
        q.shared.state.load(Ordering::Acquire)
    }

    /// A fresh item enqueued now whose retry budget outlives the test.
    pub(in crate::batching) fn queued(input: Input, sink: ReplySink) -> QueueItem {
        let now = Instant::now();
        QueueItem::new(input, sink, now, now + Duration::from_secs(3600))
    }

    pub(in crate::batching) fn direct_item(
        v: f32,
    ) -> (QueueItem, oneshot::Receiver<Result<Output, PredictError>>) {
        let (tx, rx) = oneshot::channel();
        (queued(Arc::new(vec![v]), ReplySink::direct(tx)), rx)
    }

    #[tokio::test]
    async fn queries_flow_through_and_answers_match() {
        let metrics = test_metrics();
        let q = spawn_replica_queue(
            "m:0".into(),
            echo_transport(),
            QueueConfig::default(),
            metrics.clone(),
        );
        let mut rxs = Vec::new();
        for v in 0..20 {
            let (item, rx) = direct_item(v as f32);
            submit(&q, item);
            rxs.push((v, rx));
        }
        for (v, rx) in rxs {
            let out = rx.await.unwrap().unwrap();
            assert_eq!(out, Output::Class(v as u32));
        }
        assert!(metrics.completed.get() >= 20);
        assert_eq!(state(&q), STATE_RUNNING);
    }

    #[tokio::test]
    async fn batches_form_under_burst() {
        // A slow transport forces queries to pile up; later batches should
        // be larger than 1.
        let slow: Arc<dyn BatchTransport> =
            Arc::new(FnTransport::new("slow", |inputs: &[Input]| {
                std::thread::sleep(Duration::from_millis(5));
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(0); inputs.len()],
                    queue_us: 0,
                    compute_us: 5_000,
                })
            }));
        let metrics = test_metrics();
        let q = spawn_replica_queue(
            "m:0".into(),
            slow,
            QueueConfig {
                strategy: BatchStrategy::Fixed { size: 64 },
                ..Default::default()
            },
            metrics.clone(),
        );
        let mut rxs = Vec::new();
        for v in 0..100 {
            let (item, rx) = direct_item(v as f32);
            submit(&q, item);
            rxs.push(rx);
        }
        for rx in rxs {
            rx.await.unwrap().unwrap();
        }
        let snap = metrics.batch_size.snapshot();
        assert!(
            snap.max() > 1,
            "burst should form multi-query batches, max was {}",
            snap.max()
        );
    }

    #[tokio::test]
    async fn overload_sheds_with_overloaded_error() {
        // A transport that never completes within the test window.
        let stuck: Arc<dyn BatchTransport> =
            Arc::new(FnTransport::new("stuck", |inputs: &[Input]| {
                std::thread::sleep(Duration::from_millis(200));
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(0); inputs.len()],
                    queue_us: 0,
                    compute_us: 0,
                })
            }));
        let q = spawn_replica_queue(
            "m:0".into(),
            stuck,
            QueueConfig {
                strategy: BatchStrategy::Fixed { size: 1 },
                queue_capacity: 4,
                ..Default::default()
            },
            test_metrics(),
        );
        let mut saw_overload = false;
        let mut rxs = Vec::new();
        for v in 0..64 {
            let (item, rx) = direct_item(v as f32);
            submit(&q, item);
            rxs.push(rx);
        }
        for rx in rxs {
            if let Ok(Err(PredictError::Overloaded)) = rx.await {
                saw_overload = true;
            }
        }
        assert!(saw_overload, "expected load shedding");
    }

    #[tokio::test]
    async fn queue_depth_is_visible_and_try_submit_hands_items_back() {
        let stuck: Arc<dyn BatchTransport> =
            Arc::new(FnTransport::new("stuck", |inputs: &[Input]| {
                std::thread::sleep(Duration::from_millis(100));
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(0); inputs.len()],
                    queue_us: 0,
                    compute_us: 0,
                })
            }));
        let q = spawn_replica_queue(
            "m:0".into(),
            stuck,
            QueueConfig {
                strategy: BatchStrategy::Fixed { size: 1 },
                queue_capacity: 4,
                ..Default::default()
            },
            test_metrics(),
        );
        let mut rxs = Vec::new();
        let mut refused = None;
        // One item is pulled by the lane immediately; keep pushing until
        // the 4-slot channel itself refuses.
        for v in 0..16 {
            let (item, rx) = direct_item(v as f32);
            rxs.push(rx);
            if let Err(item) = q.try_submit(item) {
                refused = Some(item);
                break;
            }
        }
        let refused = refused.expect("a full queue must hand the item back");
        assert!(
            q.len() >= 3,
            "channel occupancy should be visible, len {}",
            q.len()
        );
        // The handed-back item is intact and routable elsewhere — complete
        // it manually to prove the sink survived.
        refused.sink.complete(Err(PredictError::Overloaded));
        drop(rxs);
    }

    #[tokio::test]
    async fn delayed_batching_holds_for_stragglers() {
        // With a 20ms wait timeout and queries arriving 2ms apart, the
        // first batch should scoop up several queries.
        let metrics = test_metrics();
        let q = spawn_replica_queue(
            "m:0".into(),
            echo_transport(),
            QueueConfig {
                strategy: BatchStrategy::Fixed { size: 64 },
                batch_wait_timeout: Duration::from_millis(20),
                ..Default::default()
            },
            metrics.clone(),
        );
        let mut rxs = Vec::new();
        for v in 0..5 {
            let (item, rx) = direct_item(v as f32);
            submit(&q, item);
            rxs.push(rx);
            tokio::time::sleep(Duration::from_millis(2)).await;
        }
        for rx in rxs {
            rx.await.unwrap().unwrap();
        }
        let snap = metrics.batch_size.snapshot();
        assert!(
            snap.max() >= 3,
            "delayed batching should group arrivals, max batch {}",
            snap.max()
        );
    }

    #[tokio::test]
    async fn cache_sink_fills_cache_and_wakes_waiters() {
        let cache = PredictionCache::new(16);
        let model = crate::types::ModelId::new("m", 1);
        let input: Input = Arc::new(vec![3.0]);
        let key = CacheKey::new(&model, &input);
        let rx = match cache.lookup_or_pending(key) {
            crate::cache::Lookup::MustCompute(rx) => rx,
            _ => panic!(),
        };
        let q = spawn_replica_queue(
            "m:0".into(),
            echo_transport(),
            QueueConfig::default(),
            test_metrics(),
        );
        submit(
            &q,
            queued(input.clone(), ReplySink::cache(cache.clone(), key)),
        );
        let out = rx.await.unwrap().unwrap();
        assert_eq!(out, Output::Class(3));
        assert_eq!(cache.fetch(key), Some(Output::Class(3)));
    }

    #[tokio::test]
    async fn dropping_a_cache_sink_fails_the_pending_entry() {
        // Regression: a queue item destroyed without dispatch must not
        // wedge cache waiters forever.
        let cache = PredictionCache::new(16);
        let model = crate::types::ModelId::new("m", 1);
        let input: Input = Arc::new(vec![9.0]);
        let key = CacheKey::new(&model, &input);
        let rx = match cache.lookup_or_pending(key) {
            crate::cache::Lookup::MustCompute(rx) => rx,
            _ => panic!(),
        };
        let item = queued(input, ReplySink::cache(cache.clone(), key));
        drop(item);
        assert_eq!(cache.pending_len(), 0, "drop must fail-fill the entry");
        let filled = rx.await.unwrap();
        assert!(matches!(filled, Err(PredictError::Failed(_))));
    }

    #[tokio::test]
    async fn shutdown_drains_the_backlog_and_stops() {
        // A modestly slow transport so a real backlog forms, then drain:
        // every accepted query must still be answered.
        let slowish: Arc<dyn BatchTransport> =
            Arc::new(FnTransport::new("slowish", |inputs: &[Input]| {
                std::thread::sleep(Duration::from_millis(2));
                Ok(PredictReply {
                    outputs: inputs
                        .iter()
                        .map(|x| WireOutput::Class(x[0] as u32))
                        .collect(),
                    queue_us: 0,
                    compute_us: 2_000,
                })
            }));
        let q = spawn_replica_queue(
            "m:0".into(),
            slowish,
            QueueConfig {
                strategy: BatchStrategy::Fixed { size: 8 },
                ..Default::default()
            },
            test_metrics(),
        );
        let mut rxs = Vec::new();
        for v in 0..40 {
            let (item, rx) = direct_item(v as f32);
            submit(&q, item);
            rxs.push((v, rx));
        }
        q.shutdown();
        assert_ne!(state(&q), STATE_RUNNING);
        // New submissions are refused during drain.
        let (late, late_rx) = direct_item(99.0);
        assert!(q.try_submit(late).is_err(), "draining queue must refuse");
        drop(late_rx);
        // Every accepted query completes with its real answer.
        for (v, rx) in rxs {
            let out = rx.await.unwrap().unwrap();
            assert_eq!(out, Output::Class(v as u32));
        }
        q.drained().await;
        assert_eq!(state(&q), STATE_STOPPED);
        assert_eq!(q.len(), 0);
        assert_eq!(q.inflight(), 0);
    }

    #[tokio::test]
    async fn shutdown_under_load_leaves_no_pending_cache_entries() {
        // Regression for the wedged-waiter bug: shut a queue down with
        // cache-sink items queued; after the drain no pending entry may
        // remain (each is filled or fail-filled).
        let cache = PredictionCache::new(256);
        let model = crate::types::ModelId::new("m", 1);
        let slowish: Arc<dyn BatchTransport> =
            Arc::new(FnTransport::new("slowish", |inputs: &[Input]| {
                std::thread::sleep(Duration::from_millis(1));
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(1); inputs.len()],
                    queue_us: 0,
                    compute_us: 1_000,
                })
            }));
        let q = spawn_replica_queue(
            "m:0".into(),
            slowish,
            QueueConfig {
                strategy: BatchStrategy::Fixed { size: 4 },
                ..Default::default()
            },
            test_metrics(),
        );
        let mut rxs = Vec::new();
        for v in 0..64 {
            let input: Input = Arc::new(vec![v as f32]);
            let key = CacheKey::new(&model, &input);
            let rx = match cache.lookup_or_pending(key) {
                crate::cache::Lookup::MustCompute(rx) => rx,
                _ => panic!("fresh key must be MustCompute"),
            };
            rxs.push(rx);
            submit(&q, queued(input, ReplySink::cache(cache.clone(), key)));
        }
        q.shutdown();
        q.drained().await;
        assert_eq!(
            cache.pending_len(),
            0,
            "drain must fill or fail-fill every pending entry"
        );
        // Every waiter was woken with *something*.
        for rx in rxs {
            let _ = rx.await.expect("waiter must be woken, not dropped");
        }
    }

    /// A transport whose batch future never resolves: the pending reply is
    /// parked on a oneshot whose sender is intentionally leaked.
    fn hung_transport() -> Arc<dyn BatchTransport> {
        struct Hung;
        impl BatchTransport for Hung {
            fn predict_batch(
                &self,
                _inputs: &[Input],
            ) -> clipper_rpc::BoxFuture<Result<PredictReply, clipper_rpc::RpcError>> {
                let (tx, rx) = oneshot::channel::<()>();
                std::mem::forget(tx);
                Box::pin(async move {
                    let _ = rx.await;
                    Err(clipper_rpc::RpcError::ConnectionClosed)
                })
            }
            fn id(&self) -> String {
                "hung".into()
            }
        }
        Arc::new(Hung)
    }

    #[tokio::test]
    async fn drain_deadline_unwedges_a_hung_transport() {
        // Regression for the ROADMAP item: a BatchTransport whose future
        // never resolves used to stall `drained()` forever. With a drain
        // deadline the remaining in-flight sinks are force-failed.
        let q = spawn_replica_queue(
            "m:0".into(),
            hung_transport(),
            QueueConfig {
                strategy: BatchStrategy::Fixed { size: 1 },
                drain_deadline: Duration::from_millis(100),
                ..Default::default()
            },
            test_metrics(),
        );
        let mut rxs = Vec::new();
        for v in 0..4 {
            let (item, rx) = direct_item(v as f32);
            submit(&q, item);
            rxs.push(rx);
        }
        let start = Instant::now();
        q.shutdown();
        q.drained().await;
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "drain must not hang, took {:?}",
            start.elapsed()
        );
        assert_eq!(state(&q), STATE_STOPPED);
        assert_eq!(q.inflight(), 0, "aborted batches release in-flight");
        // Every waiter settles with an error — none is wedged.
        for rx in rxs {
            let settled = rx.await.expect("waiter woken");
            assert!(settled.is_err());
        }
    }

    #[tokio::test]
    async fn slow_but_healthy_drain_outlasting_the_deadline_is_not_cut_short() {
        // Total drain time (10 items × ~20 ms) far exceeds the 50 ms
        // deadline, but every batch makes progress — the watchdog must
        // keep re-arming and every accepted query must get its real
        // answer, not a force-fail.
        struct SlowAsync;
        impl BatchTransport for SlowAsync {
            fn predict_batch(
                &self,
                inputs: &[Input],
            ) -> clipper_rpc::BoxFuture<Result<PredictReply, clipper_rpc::RpcError>> {
                let outs: Vec<WireOutput> = inputs
                    .iter()
                    .map(|x| WireOutput::Class(x[0] as u32))
                    .collect();
                Box::pin(async move {
                    tokio::time::sleep(Duration::from_millis(20)).await;
                    Ok(PredictReply {
                        outputs: outs,
                        queue_us: 0,
                        compute_us: 20_000,
                    })
                })
            }
            fn id(&self) -> String {
                "slow-async".into()
            }
        }
        let q = spawn_replica_queue(
            "m:0".into(),
            Arc::new(SlowAsync),
            QueueConfig {
                strategy: BatchStrategy::Fixed { size: 1 },
                drain_deadline: Duration::from_millis(50),
                ..Default::default()
            },
            test_metrics(),
        );
        let mut rxs = Vec::new();
        for v in 0..10 {
            let (item, rx) = direct_item(v as f32);
            submit(&q, item);
            rxs.push((v, rx));
        }
        q.shutdown();
        q.drained().await;
        for (v, rx) in rxs {
            let out = rx
                .await
                .unwrap()
                .expect("progressing drain must not force-fail");
            assert_eq!(out, Output::Class(v as u32));
        }
    }

    #[tokio::test]
    async fn drain_deadline_fails_pending_cache_entries_of_a_hung_transport() {
        let cache = PredictionCache::new(16);
        let model = crate::types::ModelId::new("m", 1);
        let q = spawn_replica_queue(
            "m:0".into(),
            hung_transport(),
            QueueConfig {
                strategy: BatchStrategy::Fixed { size: 1 },
                drain_deadline: Duration::from_millis(100),
                ..Default::default()
            },
            test_metrics(),
        );
        let input: Input = Arc::new(vec![5.0]);
        let key = CacheKey::new(&model, &input);
        let rx = match cache.lookup_or_pending(key) {
            crate::cache::Lookup::MustCompute(rx) => rx,
            _ => panic!(),
        };
        submit(&q, queued(input, ReplySink::cache(cache.clone(), key)));
        q.shutdown();
        q.drained().await;
        assert_eq!(cache.pending_len(), 0, "force-fail must settle the entry");
        assert!(matches!(rx.await.unwrap(), Err(PredictError::Failed(_))));
    }

    /// Echoes, but only once `gate` is closed, and tracks how many of
    /// its calls are outstanding at once.
    struct Gate {
        gate: Semaphore,
        current: AtomicUsize,
        peak: AtomicUsize,
    }

    struct Gated(Arc<Gate>);

    impl BatchTransport for Gated {
        fn predict_batch(
            &self,
            inputs: &[Input],
        ) -> clipper_rpc::BoxFuture<Result<PredictReply, clipper_rpc::RpcError>> {
            let this = self.0.clone();
            let outputs = inputs
                .iter()
                .map(|x| WireOutput::Class(x[0] as u32))
                .collect();
            let now = this.current.fetch_add(1, Ordering::SeqCst) + 1;
            this.peak.fetch_max(now, Ordering::SeqCst);
            Box::pin(async move {
                let _ = this.gate.acquire().await;
                this.current.fetch_sub(1, Ordering::SeqCst);
                Ok(PredictReply {
                    outputs,
                    queue_us: 0,
                    compute_us: 0,
                })
            })
        }
        fn id(&self) -> String {
            "gated".into()
        }
    }

    #[tokio::test]
    async fn pipeline_depth_is_the_number_of_batches_in_flight() {
        for depth in [1, 2] {
            let gated = Arc::new(Gate {
                gate: Semaphore::new(0),
                current: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
            });
            let q = spawn_replica_queue(
                "m:0".into(),
                Arc::new(Gated(gated.clone())),
                QueueConfig {
                    strategy: BatchStrategy::Fixed { size: 1 },
                    pipeline_depth: depth,
                    ..Default::default()
                },
                test_metrics(),
            );
            let mut rxs = Vec::new();
            for v in 0..8 {
                let (item, rx) = direct_item(v as f32);
                submit(&q, item);
                rxs.push((v, rx));
            }
            // The gate holds every call, so the lanes fill up and stay
            // full with six more single-query batches waiting behind them.
            let waited = Instant::now();
            while gated.current.load(Ordering::SeqCst) < depth {
                assert!(waited.elapsed() < Duration::from_secs(5), "lanes idle");
                tokio::task::yield_now().await;
            }
            // Room for a batch beyond the depth to show itself.
            tokio::time::sleep(Duration::from_millis(20)).await;
            assert_eq!(q.inflight(), depth);
            assert_eq!(q.len(), 8 - depth);
            gated.gate.close();
            for (v, rx) in rxs {
                assert_eq!(rx.await.unwrap().unwrap(), Output::Class(v as u32));
            }
            assert_eq!(gated.peak.load(Ordering::SeqCst), depth);
        }
    }

    #[tokio::test]
    async fn drain_deadline_settles_every_lane_of_a_hung_transport() {
        let metrics = test_metrics();
        let q = spawn_replica_queue(
            "m:0".into(),
            hung_transport(),
            QueueConfig {
                strategy: BatchStrategy::Fixed { size: 1 },
                pipeline_depth: 2,
                drain_deadline: Duration::from_millis(100),
                ..Default::default()
            },
            metrics.clone(),
        );
        let mut rxs = Vec::new();
        for v in 0..6 {
            let (item, rx) = direct_item(v as f32);
            q.try_submit(item).ok().expect("an empty queue accepts");
            rxs.push(rx);
        }
        q.shutdown();
        q.drained().await;
        assert_eq!(state(&q), STATE_STOPPED);
        assert_eq!(q.inflight(), 0);
        assert_eq!(q.len(), 0);
        // The two batches held by the lanes and the four behind them all
        // settle the same way, each counted once.
        for rx in rxs {
            let settled = rx.await.expect("sink settled, not dropped");
            assert!(
                matches!(settled, Err(PredictError::Failed(ref m)) if m.contains("drain deadline")),
                "{settled:?}"
            );
        }
        assert_eq!(metrics.errors.get(), 6);
    }

    #[tokio::test]
    async fn breaker_opens_and_sheds_to_the_redispatch_hook() {
        // Trip the breaker with a three-failure streak, then confirm the
        // worker refuses batches up front (BreakerOpen) while the
        // redispatch hook keeps rescuing in-budget items.
        let flaky: Arc<dyn BatchTransport> =
            Arc::new(FnTransport::new("flaky", |_: &[Input]| {
                Err(clipper_rpc::RpcError::ConnectionClosed)
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
        };
        let cfg = QueueConfig {
            strategy: BatchStrategy::Fixed { size: 1 },
            breaker: BreakerConfig {
                cooldown: Duration::from_secs(30),
            },
            ..Default::default()
        };
        let q =
            spawn_replica_queue_with_hooks("m:0".into(), flaky, cfg, None, test_metrics(), hooks);
        for v in 0..6 {
            let (tx, rx) = oneshot::channel();
            submit(
                &q,
                QueueItem::new(
                    Arc::new(vec![v as f32]),
                    ReplySink::direct(tx),
                    Instant::now(),
                    Instant::now() + Duration::from_secs(5),
                ),
            );
            let out = rx.await.unwrap().unwrap();
            assert_eq!(out, Output::Class(v));
        }
        assert_eq!(q.breaker().state(), BreakerState::Open);
        assert_ne!(
            q.health(Instant::now()),
            Health::Clean,
            "an open breaker marks the queue suspect"
        );
        assert!(q.breaker().opened() >= 1);
    }

    #[tokio::test]
    async fn breaker_open_and_drain_settle_every_sink_exactly_once() {
        // Breaker-open shed racing a graceful drain on the same queue:
        // every sink settles exactly once and the drain completes.
        let flaky: Arc<dyn BatchTransport> =
            Arc::new(FnTransport::new("flaky", |_: &[Input]| {
                Err(clipper_rpc::RpcError::ConnectionClosed)
            }));
        let cfg = QueueConfig {
            strategy: BatchStrategy::Fixed { size: 1 },
            breaker: BreakerConfig {
                cooldown: Duration::from_secs(30),
            },
            ..Default::default()
        };
        let q = spawn_replica_queue("m:0".into(), flaky, cfg, test_metrics());
        let mut rxs = Vec::new();
        for v in 0..16 {
            let (tx, rx) = oneshot::channel();
            submit(&q, queued(Arc::new(vec![v as f32]), ReplySink::direct(tx)));
            rxs.push(rx);
        }
        q.shutdown();
        q.shutdown(); // idempotent alongside the breaker trip
        q.drained().await;
        for rx in rxs {
            assert!(rx.await.unwrap().is_err(), "all sinks settle with errors");
        }
        assert_eq!(state(&q), STATE_STOPPED);
    }
}
