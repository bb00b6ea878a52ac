//! The model abstraction layer (§4): cache over adaptive batching over
//! replicated container transports.
//!
//! `predict(model, x)` resolves through three stages:
//!
//! 1. **prediction cache** — hit returns immediately; a miss either joins
//!    an in-flight computation or claims responsibility for one;
//! 2. **replica scheduling** — a per-model [scheduler](SchedulerPolicy)
//!    routes the query by *live replica state*, read as two values per
//!    replica: its [`Health`] — one answer, folding the transport's
//!    liveness into the breaker's verdict — and its latency-model
//!    estimate of the work ahead. One walk orders the replicas for every
//!    routing decision — first dispatch, retry redispatch and hedge pick,
//!    under either policy: a replica whose breaker wants its recovery
//!    probe first, then the clean replicas starting at the policy's pick,
//!    then the suspect rest; a `Down` replica is never offered a query.
//!    Power-of-two-choices (the default) picks the sampled
//!    replica with the smaller `α + β·(occupancy + 1)`, so a slow or
//!    backlogged replica receives less traffic than a fast one (each
//!    replica still tunes its own batching independently, §4.4.1); if a
//!    queue refuses — full or draining — the query falls through to the
//!    next replica in that order, and is shed only when every replica is
//!    full. Round-robin, the baseline, picks its cursor and offers the
//!    query to the first eligible replica only: a full queue there sheds
//!    it.
//! 3. **batching queue** — the replica's pull-based lanes form batches
//!    and ship them zero-copy over the transport.
//!
//! Replicas can be attached and removed while traffic flows: removal
//! drains the replica's queue gracefully (every accepted query completes
//! or fail-fills; see [`ReplicaQueue::drained`]), and the scheduler
//! stops routing to it the moment the drain begins.
//!
//! The layer also tracks each model's *running default output* — the
//! substitution value used when straggler mitigation renders a prediction
//! without that model (§5.2.2) — and exposes per-model `queue_depth` /
//! `inflight` gauges plus a `shed` counter in the metrics registry, which
//! counts every query the scheduler sheds, under either policy.

use crate::batching::{
    spawn_replica_queue_with_hooks, Health, LatencyPrior, QueueConfig, QueueHooks, QueueItem,
    QueueMetrics, ReplicaQueue, ReplySink,
};
use crate::cache::{CacheKey, CacheStats, Lookup, PredictionCache};
use crate::error::PredictError;
use crate::types::{Input, ModelId, Output};
use clipper_metrics::{Counter, Registry};
use clipper_rpc::transport::BatchTransport;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use tokio::sync::oneshot;
use tokio::time::Instant;

/// The former name of [`QueueConfig`]; `benchmark/src/stack.rs` is its
/// last user.
pub type BatchConfig = QueueConfig;

/// How a model's scheduler picks a replica for each query
/// ([`QueueConfig::scheduler`]; persisted as `"power_of_two_choices"` or
/// `"round_robin"`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SchedulerPolicy {
    /// Depth-aware power-of-two-choices (the default): sample two distinct
    /// clean replicas, route to the one whose latency model predicts the
    /// earlier completion (`α + β·(queued + inflight + 1)`), falling
    /// through to any replica with room before shedding.
    #[default]
    PowerOfTwoChoices,
    /// Round-robin (the pre-scheduler behavior, kept as the comparison
    /// baseline): the first eligible replica from the cursor, in health
    /// tier order, gets the query; a full queue there sheds it even when
    /// a sibling replica is idle.
    RoundRobin,
}

/// Running summary of a model's outputs, used to substitute for missing
/// predictions under straggler mitigation. For class outputs the default
/// is the modal label (the smallest among equals); for score outputs the
/// running mean vector. Fed by the model's replica queues as each batch
/// settles, so every evaluation counts once however many callers joined
/// it, and whether or not any of them still waits.
#[derive(Default)]
pub(crate) struct DefaultTracker {
    label_counts: HashMap<u32, u64>,
    score_sums: Vec<f64>,
    score_count: u64,
}

impl DefaultTracker {
    pub(crate) fn record(&mut self, out: &Output) {
        match out {
            Output::Class(c) => {
                *self.label_counts.entry(*c).or_insert(0) += 1;
            }
            Output::Scores(s) => {
                if self.score_sums.len() != s.len() {
                    self.score_sums = vec![0.0; s.len()];
                    self.score_count = 0;
                }
                for (acc, &v) in self.score_sums.iter_mut().zip(s.iter()) {
                    *acc += v as f64;
                }
                self.score_count += 1;
                *self.label_counts.entry(out.label()).or_insert(0) += 1;
            }
            Output::Labels(_) => {
                // Sequences have no meaningful average; straggler handling
                // drops missing transcriptions instead.
            }
        }
    }

    fn default_output(&self) -> Option<Output> {
        if self.score_count > 0 {
            let mean: Vec<f32> = self
                .score_sums
                .iter()
                .map(|&s| (s / self.score_count as f64) as f32)
                .collect();
            return Some(Output::Scores(mean));
        }
        // A tie goes to the smaller label, whatever the map's order.
        self.label_counts
            .iter()
            .max_by_key(|(&label, &count)| (count, std::cmp::Reverse(label)))
            .map(|(&label, _)| Output::Class(label))
    }
}

struct ModelHandle {
    id: ModelId,
    cfg: QueueConfig,
    replicas: RwLock<Vec<Arc<ReplicaQueue>>>,
    /// Round-robin cursor and p2c sampling token.
    cursor: AtomicUsize,
    /// Monotonic replica index so hot re-adds get fresh queue ids.
    next_replica_idx: AtomicUsize,
    /// Every query the scheduler sheds, under either policy.
    shed: Counter,
    /// Queries shed up front by SLO-aware admission (§4.4.1): the latency
    /// models said no replica could meet the SLO at current depth.
    admission_shed: Counter,
    defaults: Arc<Mutex<DefaultTracker>>,
}

/// The scheduler's preference tier for a replica: the recovery probe
/// first, clean replicas next, every other live suspect last, and a
/// `Down` replica in no tier at all.
fn tier(health: Health) -> usize {
    match health {
        Health::WantsProbe => 0,
        Health::Clean => 1,
        Health::Probing | Health::CoolingDown | Health::Silent => 2,
        Health::Down => 3,
    }
}

/// splitmix64 — cheap well-mixed bits for the two p2c samples.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ModelHandle {
    /// The index (into `replicas`) the walk's tiers start at: the
    /// cursor position under round-robin, the power-of-two-choices pick
    /// otherwise. `health[i]` is replica `i`'s health, `None` when it is
    /// not a candidate for this decision.
    fn pick(&self, replicas: &[Arc<ReplicaQueue>], health: &[Option<Health>]) -> usize {
        let token = self.cursor.fetch_add(1, Ordering::Relaxed) as u64;
        if self.cfg.scheduler == SchedulerPolicy::RoundRobin {
            return token as usize % replicas.len();
        }
        // Sample among the clean replicas: a black-hole replica fails
        // instantly, keeps an empty queue, and would otherwise look ideal
        // to depth-aware scoring. Fall back to every candidate when all
        // are suspect, and to the bare cursor when there is none, so the
        // walk still starts somewhere.
        let any_clean = health.contains(&Some(Health::Clean));
        let candidates = || {
            (0..health.len())
                .filter(|&i| health[i].is_some_and(|h| !any_clean || h == Health::Clean))
        };
        let nth = |k| candidates().nth(k).expect("k is below the candidate count");
        match candidates().count() {
            0 => token as usize % replicas.len(),
            1 => nth(0),
            m => {
                let h = mix64(token);
                let a = (h % m as u64) as usize;
                // Distinct second sample from the high bits.
                let b = (a + 1 + ((h >> 32) % (m as u64 - 1)) as usize) % m;
                let (a, b) = (nth(a), nth(b));
                let (qa, qb) = (&replicas[a], &replicas[b]);
                // Score with the learned per-replica latency curve
                // (§4.4.1, `α + β·b̂` over the work already ahead) once
                // both candidates' models are established — it separates
                // a replica that is merely busy from one that is
                // intrinsically slow. Raw occupancy otherwise, so an
                // unobserved replica can't win on an artificially zero
                // estimate.
                let a_wins = match (qa.estimated_ns(1), qb.estimated_ns(1)) {
                    (Some(ca), Some(cb)) => ca <= cb,
                    _ => qa.occupancy() <= qb.occupancy(),
                };
                if a_wins {
                    a
                } else {
                    b
                }
            }
        }
    }

    /// The one replica walk behind every routing decision — first
    /// dispatch, retry redispatch and hedge pick. Reads each replica's
    /// health once, then offers the replicas that are neither `Down` nor
    /// `exclude` in preference order until `offer` returns `Some`: a
    /// replica that wants its recovery probe first, then the clean ones
    /// starting at the [`pick`](Self::pick), then the suspect rest.
    ///
    /// The probe tier is what closes the recovery loop: the breaker
    /// admits that query as its single probe batch, success rejoins the
    /// replica to the clean tier, failure re-opens the breaker while the
    /// deadline budget redispatches the query onto a sibling. Without
    /// it, a pull-based queue the scheduler routes around would never
    /// see traffic again and could never prove it recovered.
    fn walk<T>(
        &self,
        replicas: &[Arc<ReplicaQueue>],
        now: Instant,
        exclude: Option<&str>,
        mut offer: impl FnMut(Health, &ReplicaQueue) -> Option<T>,
    ) -> Option<T> {
        let n = replicas.len();
        if n == 0 {
            return None;
        }
        // On the stack for realistic replica counts: no per-query
        // allocation.
        let mut stack = [None; 16];
        let mut heap = Vec::new();
        let health: &mut [Option<Health>] = if n <= stack.len() {
            &mut stack[..n]
        } else {
            heap.resize(n, None);
            &mut heap
        };
        for (h, q) in health.iter_mut().zip(replicas) {
            if exclude != Some(q.id()) {
                *h = Some(q.health(now)).filter(|&h| h != Health::Down);
            }
        }
        let start = self.pick(replicas, health);
        for t in 0..3 {
            for offset in 0..n {
                let i = (start + offset) % n;
                if let Some(h) = health[i].filter(|&h| tier(h) == t) {
                    if let Some(done) = offer(h, &replicas[i]) {
                        return Some(done);
                    }
                }
            }
        }
        None
    }

    /// [`walk`](Self::walk) with a queue item in hand: submit it to the
    /// first replica that is `eligible` and whose queue accepts it —
    /// `try_submit` hands the item back on refusal (full or draining) so
    /// it falls through to the next. `Err(item)` = nobody took it.
    fn place(
        &self,
        replicas: &[Arc<ReplicaQueue>],
        now: Instant,
        exclude: Option<&str>,
        item: QueueItem,
        mut eligible: impl FnMut(Health, &ReplicaQueue) -> bool,
    ) -> Result<(), QueueItem> {
        let mut item = Some(item);
        self.walk(replicas, now, exclude, |h, q| {
            if !eligible(h, q) {
                return None;
            }
            match q.try_submit(item.take()?) {
                Ok(()) => Some(()),
                Err(back) => {
                    item = Some(back);
                    None
                }
            }
        });
        item.map_or(Ok(()), Err)
    }

    /// Whether the replica's latency model says a query admitted now
    /// would complete past the SLO (never, while the model is cold).
    fn over_slo(&self, q: &ReplicaQueue) -> bool {
        let slo_ns = self.cfg.slo.as_nanos().min(u64::MAX as u128) as u64;
        matches!(q.estimated_ns(1), Some(est) if est > slo_ns)
    }

    /// SLO-aware admission (§4.4.1): whether at least one routable
    /// replica's latency model says a query admitted now can still meet
    /// the model's SLO. A replica without an established model admits by
    /// default (cold start must not shed on a guess), and so does a model
    /// with no routable replicas at all — the dispatch loop then reports
    /// `NoReplicas`, not a shed.
    fn can_admit(&self, replicas: &[Arc<ReplicaQueue>], now: Instant) -> bool {
        let mut any_routable = false;
        for q in replicas.iter() {
            // A dead replica, or a breaker that is open and cooling down,
            // can't serve the query at all; its (likely idle) queue must
            // not vouch for admission.
            if matches!(q.health(now), Health::Down | Health::CoolingDown) {
                continue;
            }
            any_routable = true;
            if !self.over_slo(q) {
                return true;
            }
        }
        !any_routable
    }

    /// Route one query. Consumes the sink: on any failure the sink is
    /// completed with the returned error, so cache waiters always settle.
    fn dispatch(&self, input: Input, sink: ReplySink) -> Result<(), PredictError> {
        let replicas = self.replicas.read();
        if replicas.is_empty() {
            sink.complete(Err(PredictError::NoReplicas));
            return Err(PredictError::NoReplicas);
        }
        let now = Instant::now();
        // Admission before routing: an honest 429 now beats a guaranteed
        // late answer. Opt-in per model (`QueueConfig::slo_admission`).
        if self.cfg.slo_admission && !self.can_admit(&replicas, now) {
            self.shed.inc();
            self.admission_shed.inc();
            sink.complete(Err(PredictError::Overloaded));
            return Err(PredictError::Overloaded);
        }
        // The deadline is the retry budget: a retryable upstream failure
        // may redispatch this query onto a sibling replica only while the
        // original SLO window is still open.
        let item = QueueItem::new(input, sink, now, now + self.cfg.slo);
        // With SLO-aware admission on, a replica whose latency model says
        // a query admitted now would finish past the SLO is skipped
        // exactly like a full queue — admission and routing stay
        // coherent: "some replica can meet the deadline" means the query
        // goes to one that can.
        let over_slo = |q: &ReplicaQueue| self.cfg.slo_admission && self.over_slo(q);
        // A suspect replica is reached only after every clean one was
        // passed over: it must never intercept a query a healthy sibling
        // could serve. Round-robin offers the query to one replica only,
        // the first eligible from its cursor; a full queue there sheds it
        // even when a sibling is idle.
        let round_robin = self.cfg.scheduler == SchedulerPolicy::RoundRobin;
        let (mut saw_healthy, mut offered) = (false, false);
        let placed = self.place(&replicas, now, None, item, |_, q| {
            saw_healthy = true;
            if over_slo(q) || (round_robin && offered) {
                return false;
            }
            offered = true;
            true
        });
        let Err(item) = placed else {
            return Ok(());
        };
        let err = if saw_healthy {
            self.shed.inc();
            // Round-robin counts an admission shed when every replica it
            // saw was over the SLO.
            if round_robin && !offered {
                self.admission_shed.inc();
            }
            PredictError::Overloaded
        } else {
            PredictError::NoReplicas
        };
        let QueueItem { sink, .. } = item;
        sink.complete(Err(err.clone()));
        Err(err)
    }

    /// Redispatch a retry-budgeted item that failed on `origin` onto a
    /// *different* clean replica. Draining queues refuse via
    /// `try_submit`, a replica in any suspect health is passed over, and
    /// a single-replica fleet has nowhere to go — `Err(item)` hands the
    /// item back for a typed fail-fill.
    fn redispatch(&self, origin: &str, item: QueueItem) -> Result<(), QueueItem> {
        let replicas = self.replicas.read();
        self.place(&replicas, Instant::now(), Some(origin), item, |h, _| {
            h == Health::Clean
        })
    }

    /// A clean sibling's transport for a hedged dispatch (never the
    /// straggling `origin` replica itself), or `None` when no clean
    /// sibling exists.
    fn hedge_pick(&self, origin: &str) -> Option<Arc<dyn BatchTransport>> {
        let replicas = self.replicas.read();
        self.walk(&replicas, Instant::now(), Some(origin), |h, q| {
            (h == Health::Clean).then(|| q.transport().clone())
        })
    }

    fn queue_depth(&self) -> usize {
        self.replicas.read().iter().map(|q| q.len()).sum()
    }

    fn inflight(&self) -> usize {
        self.replicas.read().iter().map(|q| q.inflight()).sum()
    }
}

/// What [`ModelAbstractionLayer::remove_model`] hands back: everything
/// needed to await the drain and to revive the version later.
pub(crate) struct RemovedModel {
    /// The model's configuration.
    pub cfg: QueueConfig,
    /// The draining replica queues (await `drained()` on each); their
    /// transports stay connected, re-attachable on revive.
    pub queues: Vec<Arc<ReplicaQueue>>,
}

/// The model abstraction layer.
pub struct ModelAbstractionLayer {
    cache: PredictionCache,
    models: RwLock<HashMap<ModelId, Arc<ModelHandle>>>,
    registry: Registry,
}

impl ModelAbstractionLayer {
    /// Create a layer with a prediction cache of `cache_capacity` entries.
    ///
    /// Cache counters are registered as *polled* metrics: the registry
    /// reads the cache's relaxed per-shard atomics at snapshot time, so
    /// serving never pays for metric bookkeeping beyond the shard-local
    /// increments.
    pub fn new(cache_capacity: usize, registry: Registry) -> Arc<Self> {
        let cache = PredictionCache::new(cache_capacity);
        fn poll(
            registry: &Registry,
            name: &str,
            cache: &PredictionCache,
            read: fn(CacheStats) -> u64,
        ) {
            let cache = cache.clone();
            registry.poll_counter(name, move || read(cache.stats()));
        }
        poll(&registry, "cache/hits", &cache, |s| s.hits);
        poll(&registry, "cache/misses", &cache, |s| s.misses);
        poll(&registry, "cache/evictions", &cache, |s| s.evictions);
        poll(&registry, "cache/pending_joins", &cache, |s| {
            s.pending_joins
        });
        Arc::new(ModelAbstractionLayer {
            cache,
            models: RwLock::new(HashMap::new()),
            registry,
        })
    }

    /// Register a model with its configuration, scheduler policy
    /// included. Returns whether the id was newly registered — the check
    /// and the insert happen under one write lock, so exactly one of two
    /// concurrent registrations observes `true` (the control plane's
    /// create-only 409 relies on this); a second registration keeps the
    /// original configuration.
    ///
    /// Also registers per-model poll gauges `model/<id>/queue_depth` and
    /// `model/<id>/inflight` (live replica-state sums) and the scheduler's
    /// `model/<id>/shed` counter.
    pub fn add_model(&self, id: ModelId, cfg: QueueConfig) -> bool {
        let mut models = self.models.write();
        if models.contains_key(&id) {
            return false;
        }
        let registry = &self.registry;
        let handle = Arc::new(ModelHandle {
            id: id.clone(),
            cfg,
            replicas: RwLock::new(Vec::new()),
            cursor: AtomicUsize::new(0),
            next_replica_idx: AtomicUsize::new(0),
            shed: registry.counter(&format!("model/{id}/shed")),
            admission_shed: registry.counter(&format!("model/{id}/admission_shed")),
            defaults: Arc::default(),
        });
        let weak: Weak<ModelHandle> = Arc::downgrade(&handle);
        registry.poll_gauge(&format!("model/{id}/queue_depth"), {
            let weak = weak.clone();
            move || weak.upgrade().map_or(0, |h| h.queue_depth() as i64)
        });
        registry.poll_gauge(&format!("model/{id}/inflight"), move || {
            weak.upgrade().map_or(0, |h| h.inflight() as i64)
        });
        models.insert(id, handle);
        true
    }

    /// The batching configuration a model was registered with.
    pub(crate) fn model_config(&self, id: &ModelId) -> Option<QueueConfig> {
        self.models.read().get(id).map(|h| h.cfg.clone())
    }

    /// Attach a container replica to a registered model — safe while
    /// traffic flows; the scheduler starts routing to it immediately.
    /// Returns the replica's queue id.
    pub fn add_replica(
        &self,
        id: &ModelId,
        transport: Arc<dyn BatchTransport>,
    ) -> Result<String, PredictError> {
        self.add_replica_with_prior(id, transport, None)
    }

    /// [`add_replica`](Self::add_replica) with the replica's own
    /// warm-start curve: a re-registering fleet member is re-admitted with
    /// the curve harvested from its queue when it expired. `None` starts
    /// the replica's latency model cold.
    pub(crate) fn add_replica_with_prior(
        &self,
        id: &ModelId,
        transport: Arc<dyn BatchTransport>,
        prior: Option<LatencyPrior>,
    ) -> Result<String, PredictError> {
        let handle = self
            .models
            .read()
            .get(id)
            .cloned()
            .ok_or(PredictError::ModelUnknown)?;
        let idx = handle.next_replica_idx.fetch_add(1, Ordering::Relaxed);
        let queue_id = format!("{}:{}", handle.id, idx);
        let metrics = QueueMetrics::register(&self.registry, &format!("queue/{queue_id}"));
        // Recovery hooks close the loop from a replica's queue back to the
        // scheduler: retryable batch failures redispatch onto a *different*
        // routable replica, and hedged dispatch borrows a sibling's
        // transport. Weak handles so an unregistered model can drop.
        let hooks = QueueHooks {
            redispatch: Some(Arc::new({
                let weak = Arc::downgrade(&handle);
                let origin = queue_id.clone();
                move |item| match weak.upgrade() {
                    Some(h) => h.redispatch(&origin, item),
                    None => Err(item),
                }
            })),
            hedge_pick: Some(Arc::new({
                let weak = Arc::downgrade(&handle);
                let origin = queue_id.clone();
                move || weak.upgrade().and_then(|h| h.hedge_pick(&origin))
            })),
            defaults: Some(handle.defaults.clone()),
        };
        let queue = spawn_replica_queue_with_hooks(
            queue_id.clone(),
            transport,
            handle.cfg.clone(),
            prior,
            metrics,
            hooks,
        );
        // Per-replica depth and health gauges plus the breaker's
        // transition counters for operators (Weak: an unregistered
        // replica must not be kept alive by the registry;
        // `remove_replica`'s prefix unregister reclaims all of these
        // together).
        let weak_q: Weak<ReplicaQueue> = Arc::downgrade(&queue);
        self.registry
            .poll_gauge(&format!("queue/{queue_id}/depth"), {
                let weak_q = weak_q.clone();
                move || weak_q.upgrade().map_or(0, |q| q.len() as i64)
            });
        self.registry
            .poll_gauge(&format!("queue/{queue_id}/health"), {
                let weak_q = weak_q.clone();
                move || {
                    weak_q
                        .upgrade()
                        .map_or(0, |q| q.health(Instant::now()) as i64)
                }
            });
        self.registry
            .poll_counter(&format!("queue/{queue_id}/breaker_opened"), {
                let weak_q = weak_q.clone();
                move || weak_q.upgrade().map_or(0, |q| q.breaker().opened())
            });
        self.registry
            .poll_counter(&format!("queue/{queue_id}/breaker_half_open"), {
                let weak_q = weak_q.clone();
                move || weak_q.upgrade().map_or(0, |q| q.breaker().half_opened())
            });
        self.registry
            .poll_counter(&format!("queue/{queue_id}/breaker_closed"), move || {
                weak_q.upgrade().map_or(0, |q| q.breaker().closed())
            });
        handle.replicas.write().push(queue);
        Ok(queue_id)
    }

    /// Hot-remove one replica by its queue id (as returned by
    /// [`add_replica`](Self::add_replica)). The replica stops receiving
    /// new queries immediately and drains gracefully: every query already
    /// accepted completes (or fail-fills on transport error) — nothing is
    /// dropped and no pending cache entry is left wedged. Returns the
    /// queue handle so callers can `drained().await` for completion.
    pub(crate) fn remove_replica(
        &self,
        id: &ModelId,
        queue_id: &str,
    ) -> Result<Arc<ReplicaQueue>, PredictError> {
        let handle = self
            .models
            .read()
            .get(id)
            .cloned()
            .ok_or(PredictError::ModelUnknown)?;
        let mut replicas = handle.replicas.write();
        let pos = replicas
            .iter()
            .position(|q| q.id() == queue_id)
            .ok_or(PredictError::NoReplicas)?;
        let queue = replicas.remove(pos);
        self.retire(&queue);
        Ok(queue)
    }

    /// What every removal path does to a replica it has unlisted: begin
    /// the graceful drain, and reclaim the per-queue metrics so churn
    /// doesn't grow the registry without bound (the trailing '/' keeps
    /// "m:v1:1" from matching "m:v1:10"). The draining queue still
    /// updates its own handles; they just stop being reported.
    fn retire(&self, queue: &ReplicaQueue) {
        queue.shutdown();
        self.registry
            .unregister_prefix(&format!("queue/{}/", queue.id()));
    }

    /// Remove all replicas of a model (failure injection / decommission).
    /// Each replica drains gracefully, as in
    /// [`remove_replica`](Self::remove_replica).
    pub(crate) fn remove_replicas(&self, id: &ModelId) {
        if let Some(handle) = self.models.read().get(id) {
            let mut replicas = handle.replicas.write();
            for q in replicas.drain(..) {
                self.retire(&q);
            }
        }
    }

    /// Unregister a model entirely — the control-plane primitive behind
    /// version rollout. The model stops being dispatchable immediately
    /// (new predicts see `ModelUnknown`); every replica queue begins a
    /// graceful drain. The returned [`RemovedModel`] carries the queues
    /// (await `drained()` on each to observe completion; their transports
    /// let the version be *revived* later — rollback re-attaches them)
    /// and the model's batch/scheduler configuration. Per-model
    /// and per-queue metrics are unregistered so churn doesn't grow the
    /// registry without bound.
    pub(crate) fn remove_model(&self, id: &ModelId) -> Result<RemovedModel, PredictError> {
        let handle = self
            .models
            .write()
            .remove(id)
            .ok_or(PredictError::ModelUnknown)?;
        self.registry.unregister_prefix(&format!("model/{id}/"));
        let queues: Vec<_> = handle.replicas.write().drain(..).collect();
        for q in &queues {
            self.retire(q);
        }
        Ok(RemovedModel {
            cfg: handle.cfg.clone(),
            queues,
        })
    }

    /// Whether a model id is registered.
    pub fn has_model(&self, id: &ModelId) -> bool {
        self.models.read().contains_key(id)
    }

    /// Registered model ids.
    pub fn models(&self) -> Vec<ModelId> {
        self.models.read().keys().cloned().collect()
    }

    /// Number of live replicas for a model.
    pub fn replica_count(&self, id: &ModelId) -> usize {
        self.models
            .read()
            .get(id)
            .map_or(0, |h| h.replicas.read().len())
    }

    /// The queue ids of a model's live replicas.
    pub(crate) fn replica_queue_ids(&self, id: &ModelId) -> Vec<String> {
        self.models.read().get(id).map_or_else(Vec::new, |h| {
            h.replicas
                .read()
                .iter()
                .map(|q| q.id().to_string())
                .collect()
        })
    }

    /// One replica's online latency model, by queue id. Ops/test hook:
    /// feed synthetic observations or inspect the learned curve without
    /// driving real traffic through the queue.
    pub fn replica_latency_model(
        &self,
        id: &ModelId,
        queue_id: &str,
    ) -> Option<Arc<crate::batching::LatencyModel>> {
        self.with_queue(id, queue_id, |q| q.latency_model().clone())
    }

    /// Queries shed up front by SLO-aware admission for this model.
    pub fn admission_shed_count(&self, id: &ModelId) -> u64 {
        self.models
            .read()
            .get(id)
            .map_or(0, |h| h.admission_shed.get())
    }

    /// The queue ids of a model's replicas whose health is anything but
    /// [`Health::Clean`] — the transport reports itself dead, the breaker
    /// opened (failure streak or rate) and no probe has succeeded since,
    /// or the fleet monitor reports the heartbeats silent — the
    /// candidates a chaos/ops loop hot-removes via
    /// [`Clipper::remove_replica`](crate::Clipper::remove_replica).
    pub fn suspect_queue_ids(&self, id: &ModelId) -> Vec<String> {
        let now = Instant::now();
        self.models.read().get(id).map_or_else(Vec::new, |h| {
            h.replicas
                .read()
                .iter()
                .filter(|q| q.health(now) != Health::Clean)
                .map(|q| q.id().to_string())
                .collect()
        })
    }

    /// Tell one replica queue's health that its heartbeats went silent
    /// (or came back) — the fleet health monitor's bridge into p2c
    /// suspect-avoidance for replicas that go quiet before their batches
    /// begin failing. Returns whether the queue's flag changed (`false`
    /// for an unknown queue id).
    pub(crate) fn set_replica_suspect_hint(
        &self,
        id: &ModelId,
        queue_id: &str,
        suspect: bool,
    ) -> bool {
        self.with_queue(id, queue_id, |q| q.breaker().set_heartbeat_silent(suspect))
            .unwrap_or(false)
    }

    /// One replica queue's health now (`None` for an unknown queue id).
    pub(crate) fn replica_health(&self, id: &ModelId, queue_id: &str) -> Option<Health> {
        self.with_queue(id, queue_id, |q| q.health(Instant::now()))
    }

    fn with_queue<T>(
        &self,
        id: &ModelId,
        queue_id: &str,
        read: impl FnOnce(&ReplicaQueue) -> T,
    ) -> Option<T> {
        let models = self.models.read();
        let replicas = models.get(id)?.replicas.read();
        let q = replicas.iter().find(|q| q.id() == queue_id)?;
        Some(read(q))
    }

    /// Total estimated backlog across a model's replicas, in nanoseconds
    /// of queued work by each replica's latency model (`Σ α + β·occupancy`
    /// over the busy replicas; a replica whose model is still cold counts
    /// its occupancy) — the autoscaler's primary load signal.
    pub fn backlog_ns(&self, id: &ModelId) -> u64 {
        self.models.read().get(id).map_or(0, |h| {
            h.replicas
                .read()
                .iter()
                .map(|q| q.estimated_ns(0).unwrap_or_else(|| q.occupancy() as u64))
                .sum()
        })
    }

    /// Total queued queries across a model's replicas (live gauge).
    pub fn queue_depth(&self, id: &ModelId) -> usize {
        self.models.read().get(id).map_or(0, |h| h.queue_depth())
    }

    /// Total in-flight (dispatched, unanswered) queries across a model's
    /// replicas (live gauge).
    pub fn inflight(&self, id: &ModelId) -> usize {
        self.models.read().get(id).map_or(0, |h| h.inflight())
    }

    /// The shared prediction cache.
    pub fn cache(&self) -> &PredictionCache {
        &self.cache
    }

    /// The metrics registry this layer reports into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The model's substitution output for straggler mitigation (§5.2.2),
    /// if the model has produced any outputs yet.
    pub(crate) fn default_output(&self, id: &ModelId) -> Option<Output> {
        self.models
            .read()
            .get(id)
            .and_then(|h| h.defaults.lock().default_output())
    }

    /// Evaluate `Predict(model, input)`, using the cache when `use_cache`.
    ///
    /// The cache key is computed exactly once, at the top, and threaded by
    /// value through the lookup, the queue's reply sink, and the failure
    /// path — the input is never hashed a second time. A cache hit
    /// touches only its shard: the model table is consulted lazily, after
    /// the lookup, so hits never contend on the shared `models` lock.
    ///
    /// Cancel-safe once polled: the query's reply sink travels in its
    /// queue item, so dropping this future abandons only the wait — the
    /// cache entry still settles and the output still feeds the model's
    /// running default.
    pub async fn predict(
        &self,
        model: &ModelId,
        input: Input,
        use_cache: bool,
    ) -> Result<Output, PredictError> {
        if use_cache {
            let key = CacheKey::new(model, &input);
            match self.cache.lookup_or_pending(key) {
                Lookup::Hit(out) => Ok(out),
                Lookup::Pending(rx) => await_fill(rx).await,
                Lookup::MustCompute(rx) => {
                    // `dispatch` consumes the sink: on any routing failure
                    // it fail-fills the pending entry, so waiters (and the
                    // rx we hold) always settle.
                    let sink = ReplySink::cache(self.cache.clone(), key);
                    match self.handle(model) {
                        Ok(handle) => handle.dispatch(input, sink)?,
                        Err(e) => {
                            sink.complete(Err(e.clone()));
                            return Err(e);
                        }
                    }
                    await_fill(rx).await
                }
            }
        } else {
            let (tx, rx) = oneshot::channel();
            let handle = self.handle(model)?;
            handle.dispatch(input, ReplySink::direct(tx))?;
            match rx.await {
                Ok(r) => r,
                Err(_) => Err(PredictError::Failed("reply channel dropped".into())),
            }
        }
    }

    fn handle(&self, model: &ModelId) -> Result<Arc<ModelHandle>, PredictError> {
        self.models
            .read()
            .get(model)
            .cloned()
            .ok_or(PredictError::ModelUnknown)
    }
}

async fn await_fill(
    rx: oneshot::Receiver<Result<Output, PredictError>>,
) -> Result<Output, PredictError> {
    rx.await
        .unwrap_or_else(|_| Err(PredictError::Failed("cache fill dropped".into())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipper_rpc::message::{PredictReply, WireOutput};
    use clipper_rpc::transport::FnTransport;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    fn echo() -> Arc<dyn BatchTransport> {
        Arc::new(FnTransport::new("echo", |inputs: &[Input]| {
            Ok(PredictReply {
                outputs: inputs
                    .iter()
                    .map(|x| WireOutput::Class(x[0] as u32))
                    .collect(),
                queue_us: 0,
                compute_us: 1,
            })
        }))
    }

    /// A transport that answers after a per-query async delay — simulates
    /// a replica with a given service rate without burning CPU.
    fn delayed(label: u32, per_item: Duration, counter: Arc<AtomicU64>) -> Arc<dyn BatchTransport> {
        struct Delayed {
            label: u32,
            per_item: Duration,
            counter: Arc<AtomicU64>,
        }
        impl BatchTransport for Delayed {
            fn predict_batch(
                &self,
                inputs: &[Input],
            ) -> clipper_rpc::BoxFuture<Result<PredictReply, clipper_rpc::RpcError>> {
                let n = inputs.len();
                let (label, d, counter) = (self.label, self.per_item, self.counter.clone());
                Box::pin(async move {
                    let total = d * n as u32;
                    tokio::time::sleep(total).await;
                    counter.fetch_add(n as u64, Ordering::Relaxed);
                    Ok(PredictReply {
                        outputs: vec![WireOutput::Class(label); n],
                        queue_us: 0,
                        compute_us: total.as_micros() as u64,
                    })
                })
            }
            fn id(&self) -> String {
                format!("delayed-{}", self.label)
            }
        }
        Arc::new(Delayed {
            label,
            per_item,
            counter,
        })
    }

    fn layer() -> Arc<ModelAbstractionLayer> {
        ModelAbstractionLayer::new(64, Registry::new())
    }

    #[tokio::test]
    async fn predict_through_cache_and_queue() {
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(m.clone(), QueueConfig::default());
        mal.add_replica(&m, echo()).unwrap();
        let out = mal.predict(&m, Arc::new(vec![7.0]), true).await.unwrap();
        assert_eq!(out, Output::Class(7));
        // Second call: cache hit (no new evaluation).
        let out2 = mal.predict(&m, Arc::new(vec![7.0]), true).await.unwrap();
        assert_eq!(out2, Output::Class(7));
        assert!(mal.cache().stats().hits >= 1);
    }

    #[tokio::test]
    async fn unknown_model_is_an_error() {
        let mal = layer();
        let err = mal
            .predict(&ModelId::new("ghost", 1), Arc::new(vec![1.0]), true)
            .await
            .unwrap_err();
        assert_eq!(err, PredictError::ModelUnknown);
    }

    #[tokio::test]
    async fn model_without_replicas_errors() {
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(m.clone(), QueueConfig::default());
        let err = mal
            .predict(&m, Arc::new(vec![1.0]), false)
            .await
            .unwrap_err();
        assert_eq!(err, PredictError::NoReplicas);
    }

    #[tokio::test]
    async fn cache_pending_failure_wakes_waiters_with_error() {
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(m.clone(), QueueConfig::default());
        // No replicas: the MustCompute path must fail-fill the pending
        // entry so the cache doesn't wedge.
        let err = mal
            .predict(&m, Arc::new(vec![1.0]), true)
            .await
            .unwrap_err();
        assert_eq!(err, PredictError::NoReplicas);
        assert_eq!(mal.cache().pending_len(), 0, "no stuck pending entries");
    }

    #[tokio::test]
    async fn round_robin_spreads_across_replicas() {
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(
            m.clone(),
            QueueConfig {
                strategy: crate::batching::BatchStrategy::Fixed { size: 1 },
                scheduler: SchedulerPolicy::RoundRobin,
                ..Default::default()
            },
        );
        let c1 = Arc::new(AtomicU64::new(0));
        let c2 = Arc::new(AtomicU64::new(0));
        for counter in [c1.clone(), c2.clone()] {
            mal.add_replica(&m, counted(counter)).unwrap();
        }
        assert_eq!(mal.replica_count(&m), 2);
        for i in 0..20 {
            // Distinct inputs so the cache doesn't collapse them.
            mal.predict(&m, Arc::new(vec![i as f32]), false)
                .await
                .unwrap();
        }
        let (n1, n2) = (c1.load(Ordering::Relaxed), c2.load(Ordering::Relaxed));
        assert_eq!(n1 + n2, 20);
        assert!(n1 >= 5 && n2 >= 5, "round robin should spread: {n1}/{n2}");
    }

    /// An echo transport that counts the queries it serves.
    fn counted(counter: Arc<AtomicU64>) -> Arc<dyn BatchTransport> {
        Arc::new(FnTransport::new("counted", move |inputs: &[Input]| {
            counter.fetch_add(inputs.len() as u64, Ordering::Relaxed);
            Ok(PredictReply {
                outputs: inputs
                    .iter()
                    .map(|x| WireOutput::Class(x[0] as u32))
                    .collect(),
                queue_us: 0,
                compute_us: 0,
            })
        }))
    }

    /// An echo transport that answers only once the returned gate is
    /// closed, so its replica's queue fills behind the first query.
    fn gated() -> (Arc<dyn BatchTransport>, Arc<tokio::sync::Semaphore>) {
        struct Gated(Arc<tokio::sync::Semaphore>);
        impl BatchTransport for Gated {
            fn predict_batch(
                &self,
                inputs: &[Input],
            ) -> clipper_rpc::BoxFuture<Result<PredictReply, clipper_rpc::RpcError>> {
                let gate = self.0.clone();
                let outputs = inputs
                    .iter()
                    .map(|x| WireOutput::Class(x[0] as u32))
                    .collect();
                Box::pin(async move {
                    let _ = gate.acquire().await;
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
        let gate = Arc::new(tokio::sync::Semaphore::new(0));
        (Arc::new(Gated(gate.clone())), gate)
    }

    /// A round-robin model whose replica queues hold one waiting query
    /// beside the one in flight.
    fn round_robin_model(mal: &ModelAbstractionLayer, cfg: QueueConfig) -> ModelId {
        let m = ModelId::new("m", 1);
        let cfg = QueueConfig {
            strategy: crate::batching::BatchStrategy::Fixed { size: 1 },
            queue_capacity: 1,
            scheduler: SchedulerPolicy::RoundRobin,
            ..cfg
        };
        mal.add_model(m.clone(), cfg);
        m
    }

    /// Start a predict in its own task, then wait until `taken` says a
    /// replica holds it.
    async fn park(
        mal: &Arc<ModelAbstractionLayer>,
        m: &ModelId,
        v: f32,
        taken: impl Fn(&ModelAbstractionLayer) -> bool,
    ) -> tokio::task::JoinHandle<Result<Output, PredictError>> {
        let task = tokio::spawn({
            let (mal, m) = (mal.clone(), m.clone());
            async move { mal.predict(&m, Arc::new(vec![v]), false).await }
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !taken(mal) {
            assert!(std::time::Instant::now() < deadline, "query {v} not taken");
            tokio::task::yield_now().await;
        }
        task
    }

    fn counter(mal: &ModelAbstractionLayer, name: &str) -> u64 {
        match mal.registry().snapshot().values.get(name) {
            Some(clipper_metrics::MetricValue::Counter { value }) => *value,
            other => panic!("{name} is not a counter: {other:?}"),
        }
    }

    #[tokio::test]
    async fn round_robin_shed_on_a_full_queue_counts_in_the_model_shed() {
        let mal = layer();
        let m = round_robin_model(&mal, QueueConfig::default());
        let (t, gate) = gated();
        mal.add_replica(&m, t).unwrap();
        // One query in flight at the held transport, one waiting behind it.
        let first = park(&mal, &m, 0.0, |mal| mal.inflight(&m) == 1).await;
        let second = park(&mal, &m, 1.0, |mal| mal.queue_depth(&m) == 1).await;
        let err = mal
            .predict(&m, Arc::new(vec![2.0]), false)
            .await
            .unwrap_err();
        assert_eq!(err, PredictError::Overloaded);
        assert_eq!(counter(&mal, "model/m:v1/shed"), 1);
        assert_eq!(counter(&mal, "model/m:v1/admission_shed"), 0);
        let snap = mal.registry().snapshot();
        assert!(!snap
            .values
            .keys()
            .any(|k| k.starts_with("queue/") && k.ends_with("/shed")));
        gate.close();
        assert_eq!(first.await.unwrap(), Ok(Output::Class(0)));
        assert_eq!(second.await.unwrap(), Ok(Output::Class(1)));
    }

    #[tokio::test]
    async fn round_robin_sheds_at_its_cursor_while_a_sibling_is_idle() {
        let mal = layer();
        let m = round_robin_model(&mal, QueueConfig::default());
        let (held, gate) = gated();
        let idle = Arc::new(AtomicU64::new(0));
        mal.add_replica(&m, held).unwrap();
        mal.add_replica(&m, counted(idle.clone())).unwrap();
        // The cursor alternates: even queries fill the held replica, odd
        // ones are answered by its idle sibling.
        let first = park(&mal, &m, 0.0, |mal| mal.inflight(&m) >= 1).await;
        mal.predict(&m, Arc::new(vec![1.0]), false).await.unwrap();
        let second = park(&mal, &m, 2.0, |mal| mal.queue_depth(&m) == 1).await;
        mal.predict(&m, Arc::new(vec![3.0]), false).await.unwrap();
        // Back at the full queue: shed, not passed to the idle sibling.
        let err = mal
            .predict(&m, Arc::new(vec![4.0]), false)
            .await
            .unwrap_err();
        assert_eq!(err, PredictError::Overloaded);
        assert_eq!(idle.load(Ordering::Relaxed), 2);
        assert_eq!(counter(&mal, "model/m:v1/shed"), 1);
        gate.close();
        assert_eq!(first.await.unwrap(), Ok(Output::Class(0)));
        assert_eq!(second.await.unwrap(), Ok(Output::Class(2)));
    }

    #[tokio::test]
    async fn round_robin_hands_the_next_query_to_a_replica_that_wants_its_probe() {
        let mal = layer();
        let m = round_robin_model(
            &mal,
            QueueConfig {
                breaker: crate::batching::BreakerConfig {
                    cooldown: Duration::ZERO,
                },
                ..Default::default()
            },
        );
        let (a, b) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let qa = mal.add_replica(&m, counted(a.clone())).unwrap();
        mal.add_replica(&m, counted(b.clone())).unwrap();
        // Open replica a's breaker; with no cooldown it wants its probe
        // at once.
        let health = mal
            .with_queue(&m, &qa, |q| {
                for _ in 0..crate::batching::breaker::STREAK {
                    q.breaker()
                        .record(crate::batching::BatchOutcome::Failed, Instant::now());
                }
                q.health(Instant::now())
            })
            .unwrap();
        assert_eq!(health, Health::WantsProbe);
        // The cursor points at the clean sibling; the probe goes first.
        mal.handle(&m).unwrap().cursor.store(1, Ordering::Relaxed);
        let out = mal.predict(&m, Arc::new(vec![5.0]), false).await.unwrap();
        assert_eq!(out, Output::Class(5));
        assert_eq!(
            (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)),
            (1, 0)
        );
        assert_eq!(
            mal.with_queue(&m, &qa, |q| q.health(Instant::now())),
            Some(Health::Clean),
            "the probe's success closes the breaker"
        );
    }

    #[tokio::test]
    async fn p2c_spreads_load_across_equal_replicas() {
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(
            m.clone(),
            QueueConfig {
                strategy: crate::batching::BatchStrategy::Fixed { size: 1 },
                ..Default::default()
            },
        );
        let c1 = Arc::new(AtomicU64::new(0));
        let c2 = Arc::new(AtomicU64::new(0));
        mal.add_replica(&m, delayed(0, Duration::from_micros(100), c1.clone()))
            .unwrap();
        mal.add_replica(&m, delayed(0, Duration::from_micros(100), c2.clone()))
            .unwrap();
        let mut tasks = Vec::new();
        for i in 0..64 {
            let mal = mal.clone();
            let m = m.clone();
            tasks.push(tokio::spawn(async move {
                mal.predict(&m, Arc::new(vec![i as f32]), false).await
            }));
        }
        for t in tasks {
            t.await.unwrap().unwrap();
        }
        let (n1, n2) = (c1.load(Ordering::Relaxed), c2.load(Ordering::Relaxed));
        assert_eq!(n1 + n2, 64);
        assert!(
            n1 >= 8 && n2 >= 8,
            "p2c must use both equal replicas: {n1}/{n2}"
        );
    }

    #[tokio::test]
    async fn p2c_favors_the_fast_replica_under_heterogeneity() {
        // One replica 20× slower per query: depth-aware routing must give
        // the fast replica the dominant share. Round-robin would split
        // 50/50 and back the slow replica up.
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(
            m.clone(),
            QueueConfig {
                strategy: crate::batching::BatchStrategy::Fixed { size: 1 },
                pipeline_depth: 1,
                ..Default::default()
            },
        );
        let fast = Arc::new(AtomicU64::new(0));
        let slow = Arc::new(AtomicU64::new(0));
        mal.add_replica(&m, delayed(0, Duration::from_micros(200), fast.clone()))
            .unwrap();
        mal.add_replica(&m, delayed(0, Duration::from_millis(4), slow.clone()))
            .unwrap();
        // Sustained concurrent load so queue depths actually differ.
        let mut tasks = Vec::new();
        for c in 0..8 {
            let mal = mal.clone();
            let m = m.clone();
            tasks.push(tokio::spawn(async move {
                for q in 0..25u32 {
                    let _ = mal
                        .predict(&m, Arc::new(vec![c as f32, q as f32]), false)
                        .await;
                }
            }));
        }
        for t in tasks {
            t.await.unwrap();
        }
        let (nf, ns) = (fast.load(Ordering::Relaxed), slow.load(Ordering::Relaxed));
        assert!(
            nf > ns * 2,
            "fast replica should serve a dominant share: fast {nf} vs slow {ns}"
        );
    }

    #[tokio::test]
    async fn p2c_never_sheds_while_a_sibling_has_room() {
        // Replica A is wedged (200ms/query); replica B drains fast. With
        // as many concurrent queries as one queue holds, the old blind
        // round-robin would shed whenever A's queue filled — the
        // depth-aware scheduler must instead fall through to B and
        // complete everything.
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(
            m.clone(),
            QueueConfig {
                strategy: crate::batching::BatchStrategy::Fixed { size: 1 },
                queue_capacity: 16,
                pipeline_depth: 1,
                ..Default::default()
            },
        );
        let stuck = Arc::new(AtomicU64::new(0));
        let idle = Arc::new(AtomicU64::new(0));
        mal.add_replica(&m, delayed(1, Duration::from_millis(200), stuck.clone()))
            .unwrap();
        mal.add_replica(&m, delayed(2, Duration::from_micros(100), idle.clone()))
            .unwrap();
        // Sustained load (not one unbounded burst): each client issues its
        // next query after the previous settles, so the slow replica's
        // rate gets observed and routing converges onto the fast sibling.
        let mut tasks = Vec::new();
        for c in 0..16 {
            let mal = mal.clone();
            let m = m.clone();
            tasks.push(tokio::spawn(async move {
                let mut ok = 0;
                for q in 0..4u32 {
                    if mal
                        .predict(&m, Arc::new(vec![c as f32, q as f32]), false)
                        .await
                        .is_ok()
                    {
                        ok += 1;
                    }
                }
                ok
            }));
        }
        let mut ok = 0;
        for t in tasks {
            ok += t.await.unwrap();
        }
        assert_eq!(ok, 64, "no query may shed while a sibling has room");
        assert!(
            idle.load(Ordering::Relaxed) >= 40,
            "the fast sibling should absorb the load, served {}",
            idle.load(Ordering::Relaxed)
        );
    }

    #[tokio::test]
    async fn p2c_deprioritizes_a_replica_that_only_errors() {
        // The trap: a black-hole replica fails instantly, so its queue is
        // always empty and depth-aware scoring would love it. After a few
        // consecutive failures it must be treated as suspect and avoided.
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(
            m.clone(),
            QueueConfig {
                strategy: crate::batching::BatchStrategy::Fixed { size: 1 },
                ..Default::default()
            },
        );
        let blackhole_hits = Arc::new(AtomicU64::new(0));
        let bh = blackhole_hits.clone();
        let blackhole: Arc<dyn BatchTransport> =
            Arc::new(FnTransport::new("blackhole", move |inputs: &[Input]| {
                bh.fetch_add(inputs.len() as u64, Ordering::Relaxed);
                Err(clipper_rpc::RpcError::Remote("black hole".into()))
            }));
        let good = Arc::new(AtomicU64::new(0));
        mal.add_replica(&m, blackhole).unwrap();
        mal.add_replica(&m, delayed(1, Duration::from_micros(100), good.clone()))
            .unwrap();
        let mut ok = 0;
        for i in 0..40 {
            if mal
                .predict(&m, Arc::new(vec![i as f32]), false)
                .await
                .is_ok()
            {
                ok += 1;
            }
        }
        // A handful of probes land on the black hole before it turns
        // suspect; everything after routes to the good replica.
        assert!(
            ok >= 30,
            "suspect avoidance should rescue most queries, ok {ok} (blackhole ate {})",
            blackhole_hits.load(Ordering::Relaxed)
        );
    }

    #[tokio::test]
    async fn retryable_failures_redispatch_with_zero_client_visible_errors() {
        // One replica drops every batch with a *retryable* error; its
        // sibling is healthy. Deadline-budgeted redispatch must rescue
        // every query — the client sees zero errors, not "mostly ok".
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(
            m.clone(),
            QueueConfig {
                strategy: crate::batching::BatchStrategy::Fixed { size: 1 },
                slo: Duration::from_secs(5),
                ..Default::default()
            },
        );
        let flaky: Arc<dyn BatchTransport> =
            Arc::new(FnTransport::new("flaky", |_: &[Input]| {
                Err(clipper_rpc::RpcError::Injected)
            }));
        let good = Arc::new(AtomicU64::new(0));
        mal.add_replica(&m, flaky).unwrap();
        mal.add_replica(&m, delayed(1, Duration::from_micros(50), good.clone()))
            .unwrap();
        for i in 0..40 {
            let out = mal
                .predict(&m, Arc::new(vec![i as f32]), false)
                .await
                .expect("redispatch must rescue every retryable drop");
            assert_eq!(out, Output::Class(1));
        }
        assert_eq!(good.load(Ordering::Relaxed), 40);
    }

    #[tokio::test]
    async fn breaker_probe_routes_traffic_back_after_heal() {
        // The full recovery story: a replica fails hard enough to trip
        // its breaker and turn suspect, the fleet routes around it, the
        // fault lifts — and the scheduler's probe routing must hand it a
        // query once the cooldown elapses so the breaker can close and
        // the replica rejoins the clean tier. Without the probe, a
        // pull-based queue nobody routes to stays suspect forever.
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(
            m.clone(),
            QueueConfig {
                strategy: crate::batching::BatchStrategy::Fixed { size: 1 },
                slo: Duration::from_secs(1),
                breaker: crate::batching::BreakerConfig {
                    cooldown: Duration::from_millis(20),
                },
                ..Default::default()
            },
        );
        let failing = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let healed_serves = Arc::new(AtomicU64::new(0));
        let flaky: Arc<dyn BatchTransport> = {
            let failing = failing.clone();
            let serves = healed_serves.clone();
            Arc::new(FnTransport::new("flaky", move |inputs: &[Input]| {
                if failing.load(Ordering::Relaxed) {
                    Err(clipper_rpc::RpcError::Injected)
                } else {
                    serves.fetch_add(inputs.len() as u64, Ordering::Relaxed);
                    Ok(PredictReply {
                        outputs: vec![WireOutput::Class(9); inputs.len()],
                        queue_us: 0,
                        compute_us: 1,
                    })
                }
            }))
        };
        mal.add_replica(&m, flaky).unwrap();
        mal.add_replica(&m, echo()).unwrap();

        let breaker_count = |suffix: &str| -> u64 {
            mal.registry()
                .snapshot()
                .values
                .iter()
                .filter(|(name, _)| name.starts_with("queue/") && name.ends_with(suffix))
                .map(|(_, v)| match v {
                    clipper_metrics::MetricValue::Counter { value } => *value,
                    _ => 0,
                })
                .sum()
        };

        // Trip the flaky replica: every query still succeeds (redispatch
        // rescues the ones that land on it first).
        let mut i = 0u32;
        while breaker_count("/breaker_opened") == 0 {
            i += 1;
            assert!(i < 500, "breaker never opened");
            mal.predict(&m, Arc::new(vec![i as f32]), false)
                .await
                .expect("sibling must rescue");
        }

        // Heal, then keep trickling traffic: the probe must close the
        // breaker without any external intervention.
        failing.store(false, Ordering::Relaxed);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while breaker_count("/breaker_closed") == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "breaker never closed after heal: opened {} half-open {} closed {}",
                breaker_count("/breaker_opened"),
                breaker_count("/breaker_half_open"),
                breaker_count("/breaker_closed"),
            );
            i += 1;
            mal.predict(&m, Arc::new(vec![i as f32]), false)
                .await
                .expect("healthy fleet");
            tokio::time::sleep(Duration::from_millis(2)).await;
        }

        // And the healed replica actually serves again (the probe itself
        // counts; steady traffic should follow once it rejoined).
        let before = healed_serves.load(Ordering::Relaxed);
        assert!(before >= 1, "the probe batch must have reached the replica");
        for _ in 0..50 {
            i += 1;
            mal.predict(&m, Arc::new(vec![i as f32]), false)
                .await
                .expect("healthy fleet");
        }
        assert!(
            healed_serves.load(Ordering::Relaxed) > before,
            "a recovered replica must rejoin the rotation"
        );
    }

    #[tokio::test]
    async fn single_replica_retryable_failure_surfaces_typed_and_503() {
        // With no sibling to redispatch onto, a retryable failure must
        // fail exactly as before this feature existed — but typed, so
        // the HTTP layer can answer 503 instead of 500.
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(
            m.clone(),
            QueueConfig {
                strategy: crate::batching::BatchStrategy::Fixed { size: 1 },
                ..Default::default()
            },
        );
        let flaky: Arc<dyn BatchTransport> =
            Arc::new(FnTransport::new("flaky", |_: &[Input]| {
                Err(clipper_rpc::RpcError::Timeout)
            }));
        mal.add_replica(&m, flaky).unwrap();
        let err = mal
            .predict(&m, Arc::new(vec![1.0]), true) // through the cache
            .await
            .unwrap_err();
        match err {
            PredictError::Upstream {
                retryable: true,
                attempts: 1,
                ..
            } => {}
            other => panic!("expected typed retryable upstream error, got {other:?}"),
        }
        assert_eq!(err.http_status(), 503);
        assert_eq!(
            mal.cache().pending_len(),
            0,
            "the failed fill must settle its cache entry"
        );
    }

    #[tokio::test]
    async fn unhealthy_replicas_are_skipped() {
        struct Dead;
        impl BatchTransport for Dead {
            fn predict_batch(
                &self,
                _inputs: &[Input],
            ) -> clipper_rpc::BoxFuture<Result<PredictReply, clipper_rpc::RpcError>> {
                Box::pin(async { Err(clipper_rpc::RpcError::ConnectionClosed) })
            }
            fn id(&self) -> String {
                "dead".into()
            }
            fn is_healthy(&self) -> bool {
                false
            }
        }
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(m.clone(), QueueConfig::default());
        mal.add_replica(&m, Arc::new(Dead)).unwrap();
        mal.add_replica(&m, echo()).unwrap();
        // All queries should route to the healthy replica.
        for i in 0..10 {
            let out = mal
                .predict(&m, Arc::new(vec![i as f32]), false)
                .await
                .unwrap();
            assert_eq!(out, Output::Class(i as u32));
        }
    }

    #[tokio::test]
    async fn default_output_tracks_modal_label() {
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(m.clone(), QueueConfig::default());
        mal.add_replica(&m, echo()).unwrap();
        // 3 queries answer Class(5), 1 answers Class(2).
        for v in [5.0, 5.0, 5.0, 2.0] {
            // distinct inputs: add small noise in second element
            mal.predict(&m, Arc::new(vec![v, rand::random::<f32>()]), false)
                .await
                .unwrap();
        }
        assert_eq!(mal.default_output(&m), Some(Output::Class(5)));
    }

    #[test]
    fn an_even_running_default_goes_to_the_smaller_label_every_time() {
        for _ in 0..64 {
            // A fresh tracker per round: a fresh iteration order.
            let mut t = DefaultTracker::default();
            t.record(&Output::Class(9));
            t.record(&Output::Class(4));
            assert_eq!(t.default_output(), Some(Output::Class(4)));
        }
    }

    #[tokio::test]
    async fn remove_replicas_causes_no_replica_errors() {
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(m.clone(), QueueConfig::default());
        let qid = mal.add_replica(&m, echo()).unwrap();
        let queue_keys = |mal: &ModelAbstractionLayer| {
            let prefix = format!("queue/{qid}/");
            let snap = mal.registry().snapshot();
            snap.values
                .keys()
                .filter(|k| k.starts_with(&prefix))
                .count()
        };
        assert!(queue_keys(&mal) > 0, "the replica registered its metrics");
        mal.remove_replicas(&m);
        assert_eq!(mal.replica_count(&m), 0);
        assert_eq!(queue_keys(&mal), 0, "per-queue metrics must be reclaimed");
        let err = mal
            .predict(&m, Arc::new(vec![1.0]), false)
            .await
            .unwrap_err();
        assert_eq!(err, PredictError::NoReplicas);
    }

    #[tokio::test]
    async fn hot_remove_drains_without_dropping_or_wedging() {
        // Two replicas under concurrent cached traffic; remove one
        // mid-stream. Nothing may hang, and after the drain completes the
        // cache must hold no pending entries.
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(
            m.clone(),
            QueueConfig {
                strategy: crate::batching::BatchStrategy::Fixed { size: 4 },
                ..Default::default()
            },
        );
        let c1 = Arc::new(AtomicU64::new(0));
        let c2 = Arc::new(AtomicU64::new(0));
        let q1 = mal
            .add_replica(&m, delayed(7, Duration::from_micros(300), c1.clone()))
            .unwrap();
        mal.add_replica(&m, delayed(7, Duration::from_micros(300), c2.clone()))
            .unwrap();

        let mut tasks = Vec::new();
        for i in 0..120 {
            let mal = mal.clone();
            let m = m.clone();
            tasks.push(tokio::spawn(async move {
                mal.predict(&m, Arc::new(vec![i as f32]), true).await
            }));
        }
        // Let some traffic land, then yank the first replica.
        tokio::time::sleep(Duration::from_millis(2)).await;
        let q = mal.remove_replica(&m, &q1).unwrap();
        assert_eq!(mal.replica_count(&m), 1);

        let mut ok = 0;
        for t in tasks {
            if t.await.unwrap().is_ok() {
                ok += 1;
            }
        }
        q.drained().await;
        assert_eq!(
            mal.cache().pending_len(),
            0,
            "drained replica must leave no wedged cache entries"
        );
        assert_eq!(ok, 120, "queries accepted before removal must complete");
        // The survivor keeps serving.
        let out = mal.predict(&m, Arc::new(vec![999.0]), true).await.unwrap();
        assert_eq!(out, Output::Class(7));
    }

    #[tokio::test]
    async fn remove_model_drains_and_is_revivable() {
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(m.clone(), QueueConfig::default());
        mal.add_replica(&m, echo()).unwrap();
        mal.predict(&m, Arc::new(vec![3.0]), false).await.unwrap();

        let removed = mal.remove_model(&m).unwrap();
        assert!(!mal.has_model(&m));
        assert_eq!(removed.queues.len(), 1);
        for q in &removed.queues {
            q.drained().await;
        }
        // Dispatch refuses; metrics are reclaimed.
        let err = mal
            .predict(&m, Arc::new(vec![4.0]), false)
            .await
            .unwrap_err();
        assert_eq!(err, PredictError::ModelUnknown);
        let snap = mal.registry().snapshot();
        assert!(
            !snap.values.keys().any(|k| k.starts_with("model/m:v1/")),
            "per-model metrics must be unregistered"
        );

        // Revive the version from what remove_model returned.
        mal.add_model(m.clone(), removed.cfg);
        for q in &removed.queues {
            mal.add_replica(&m, q.transport().clone()).unwrap();
        }
        let out = mal.predict(&m, Arc::new(vec![6.0]), false).await.unwrap();
        assert_eq!(out, Output::Class(6));
    }

    #[tokio::test]
    async fn hot_add_starts_receiving_traffic() {
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(
            m.clone(),
            QueueConfig {
                strategy: crate::batching::BatchStrategy::Fixed { size: 1 },
                ..Default::default()
            },
        );
        let c1 = Arc::new(AtomicU64::new(0));
        mal.add_replica(&m, delayed(0, Duration::from_micros(500), c1.clone()))
            .unwrap();
        for i in 0..8 {
            mal.predict(&m, Arc::new(vec![i as f32]), false)
                .await
                .unwrap();
        }
        // Hot-add a second replica; under concurrent load it must pick up
        // a share of the traffic.
        let c2 = Arc::new(AtomicU64::new(0));
        mal.add_replica(&m, delayed(0, Duration::from_micros(500), c2.clone()))
            .unwrap();
        let mut tasks = Vec::new();
        for i in 0..64 {
            let mal = mal.clone();
            let m = m.clone();
            tasks.push(tokio::spawn(async move {
                mal.predict(&m, Arc::new(vec![100.0 + i as f32]), false)
                    .await
            }));
        }
        for t in tasks {
            t.await.unwrap().unwrap();
        }
        assert!(
            c2.load(Ordering::Relaxed) >= 8,
            "hot-added replica must receive traffic, got {}",
            c2.load(Ordering::Relaxed)
        );
    }

    #[tokio::test]
    async fn per_model_gauges_and_shed_counter_register() {
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(m.clone(), QueueConfig::default());
        mal.add_replica(&m, echo()).unwrap();
        mal.predict(&m, Arc::new(vec![1.0]), false).await.unwrap();
        let snap = mal.registry().snapshot();
        assert!(snap.values.contains_key("model/m:v1/queue_depth"));
        assert!(snap.values.contains_key("model/m:v1/inflight"));
        assert!(snap.values.contains_key("model/m:v1/shed"));
        assert!(snap
            .values
            .keys()
            .any(|k| k.starts_with("queue/m:v1:0/depth")));
        assert_eq!(mal.queue_depth(&m), 0);
        // `dispatch_batch` settles the reply sinks before it drops the
        // in-flight guard (by design), so the reply can arrive a moment
        // ahead of the gauge's release.
        let released = async {
            while mal.inflight(&m) != 0 {
                tokio::task::yield_now().await;
            }
        };
        tokio::time::timeout(Duration::from_secs(5), released)
            .await
            .expect("in-flight guard released after the reply");
    }

    #[tokio::test]
    async fn concurrent_identical_queries_collapse_to_one_evaluation() {
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(m.clone(), QueueConfig::default());
        let evals = Arc::new(AtomicU64::new(0));
        let e2 = evals.clone();
        let t: Arc<dyn BatchTransport> =
            Arc::new(FnTransport::new("slowcount", move |inputs: &[Input]| {
                e2.fetch_add(inputs.len() as u64, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(20));
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(1); inputs.len()],
                    queue_us: 0,
                    compute_us: 0,
                })
            }));
        mal.add_replica(&m, t).unwrap();
        let input: Input = Arc::new(vec![42.0]);
        let mut tasks = Vec::new();
        for _ in 0..16 {
            let mal = mal.clone();
            let m = m.clone();
            let input = input.clone();
            tasks.push(tokio::spawn(async move {
                mal.predict(&m, input, true).await.unwrap()
            }));
        }
        for t in tasks {
            assert_eq!(t.await.unwrap(), Output::Class(1));
        }
        assert_eq!(
            evals.load(Ordering::Relaxed),
            1,
            "16 identical concurrent queries must evaluate once"
        );
    }

    /// A curve whose intercept alone (10ms) blows a 5ms SLO.
    fn hopeless_prior() -> LatencyPrior {
        LatencyPrior {
            alpha_us: 10_000.0,
            beta_us: 1_000.0,
        }
    }

    #[tokio::test]
    async fn slo_admission_sheds_when_no_replica_can_meet_the_slo() {
        let mal = layer();
        let m = ModelId::new("m", 1);
        // The replica starts from its own prior, whose intercept alone
        // (10ms) blows the 5ms SLO: admission must shed up front with an
        // honest Overloaded instead of queueing a query that cannot make
        // it.
        mal.add_model(
            m.clone(),
            QueueConfig {
                slo: Duration::from_millis(5),
                slo_admission: true,
                ..Default::default()
            },
        );
        mal.add_replica_with_prior(&m, echo(), Some(hopeless_prior()))
            .unwrap();
        let err = mal
            .predict(&m, Arc::new(vec![1.0]), false)
            .await
            .unwrap_err();
        assert_eq!(err, PredictError::Overloaded);
        assert_eq!(mal.admission_shed_count(&m), 1);
        // No replicas at all must still surface NoReplicas, not a shed.
        let ghost = ModelId::new("ghost", 1);
        mal.add_model(
            ghost.clone(),
            QueueConfig {
                slo_admission: true,
                ..Default::default()
            },
        );
        let err = mal
            .predict(&ghost, Arc::new(vec![1.0]), false)
            .await
            .unwrap_err();
        assert_eq!(err, PredictError::NoReplicas);
    }

    #[tokio::test]
    async fn slo_admission_admits_while_any_sibling_can_meet_the_slo() {
        let mal = layer();
        let m = ModelId::new("m", 1);
        mal.add_model(
            m.clone(),
            QueueConfig {
                slo: Duration::from_millis(5),
                slo_admission: true,
                ..Default::default()
            },
        );
        mal.add_replica(&m, echo()).unwrap();
        mal.add_replica(&m, echo()).unwrap();
        // Teach replica 0 a curve far over the SLO; replica 1 a fast one.
        let slow = mal.replica_latency_model(&m, "m:v1:0").unwrap();
        let fast = mal.replica_latency_model(&m, "m:v1:1").unwrap();
        for round in 0..4 {
            for b in 1..=8usize {
                let _ = round;
                slow.observe(b, Duration::from_micros(50_000 + 5_000 * b as u64));
                fast.observe(b, Duration::from_micros(100 + 10 * b as u64));
            }
        }
        assert!(slow.is_established() && fast.is_established());
        // One sibling can still meet the deadline: admit.
        let out = mal.predict(&m, Arc::new(vec![3.0]), false).await.unwrap();
        assert_eq!(out, Output::Class(3));
        assert_eq!(mal.admission_shed_count(&m), 0);
        // Now the fast sibling degrades too: shed.
        for round in 0..40 {
            for b in 1..=8usize {
                let _ = round;
                fast.observe(b, Duration::from_micros(50_000 + 5_000 * b as u64));
            }
        }
        let err = mal
            .predict(&m, Arc::new(vec![4.0]), false)
            .await
            .unwrap_err();
        assert_eq!(err, PredictError::Overloaded);
        assert_eq!(mal.admission_shed_count(&m), 1);
    }

    #[tokio::test]
    async fn slo_admission_is_off_by_default() {
        let mal = layer();
        let m = ModelId::new("m", 1);
        // Hopeless curve, but admission control is opt-in: the default
        // config must keep today's queue-then-serve behavior.
        mal.add_model(
            m.clone(),
            QueueConfig {
                slo: Duration::from_millis(5),
                ..Default::default()
            },
        );
        mal.add_replica_with_prior(&m, echo(), Some(hopeless_prior()))
            .unwrap();
        let out = mal.predict(&m, Arc::new(vec![9.0]), false).await.unwrap();
        assert_eq!(out, Output::Class(9));
        assert_eq!(mal.admission_shed_count(&m), 0);
    }
}
