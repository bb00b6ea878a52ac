//! The Clipper facade: applications, prediction, and feedback.
//!
//! `predict` walks the full §3 request path: selection policy chooses
//! models → per-model lookups flow through the prediction cache and
//! adaptive batching queues → results are gathered **only until the
//! latency deadline** (straggler mitigation, §5.2.2) → the policy combines
//! whatever arrived, substituting each missing model's running-default
//! output and reporting agreement-based confidence.
//!
//! `feedback` joins ground truth against the cached predictions of every
//! candidate model (the join the prediction cache accelerates, §4.2) and
//! folds the result into the per-context policy state.
//!
//! Both run the same gather: it builds one evaluation future per model
//! and polls them all from the calling task — no task and no channel per
//! model; one model is the same code with one future. Every future gets
//! a first poll (cache hits resolve there, misses are dispatched to the
//! queues) before the deadline is looked at. Futures still pending when
//! the deadline fires are dropped: the queue still fills the cache entry
//! a straggler was computing and feeds its answer to the model's running
//! default, so no task is left waiting on a hung replica. `feedback`
//! gathers under the same SLO deadline, so a hung model cannot hold a
//! feedback call open.
//!
//! # Control plane (§3, §6.3)
//!
//! Applications and model versions are managed *at runtime*, without
//! restarting the serving tier:
//!
//! - app lifecycle: [`register_app`](Clipper::register_app) /
//!   [`update_app`](Clipper::update_app) /
//!   [`unregister_app`](Clipper::unregister_app);
//! - model-version lifecycle: each model name has a *current version*
//!   (the indirection apps resolve through), a rollback history, and a
//!   parking lot for drained versions.
//!   [`rollout_model`](Clipper::rollout_model) atomically repoints every
//!   referencing app at the new version, waits for predicts that already
//!   selected the old version to settle (they complete against the
//!   version they chose), then drains the old version's replicas through
//!   the queues' graceful-drain machinery — zero dropped queries.
//!   [`rollback_model`](Clipper::rollback_model) restores the previous
//!   version, re-attaching the transports the rollout parked.
//!
//! Registrations persist to the statestore (mirroring the paper's Redis
//! configuration state): an app as its [`AppView`], a model version as
//! its whole [`QueueConfig`], scheduler policy and breaker included.
//! [`sync_config`](Clipper::sync_config) rebuilds the registry from it
//! after a restart.

use crate::abstraction::ModelAbstractionLayer;
use crate::api::{
    self, ApiError, AppPatch, AppView, ModelRecord, ModelView, ReplicaRecord, RolloutOutcome,
    SyncReport,
};
use crate::batching::{QueueConfig, ReplicaQueue};
use crate::error::PredictError;
use crate::fleet::{Fleet, FleetConfig};
use crate::selection::{build_policy, SelectionPolicy, SelectionStateManager};
use crate::types::{AppConfig, Feedback, Input, ModelId, Output, PolicyKind, Prediction};
use clipper_metrics::{Counter, Histogram, Registry};
use clipper_rpc::transport::BatchTransport;
use clipper_statestore::StateStore;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::future::Future;
use std::sync::{Arc, OnceLock};
use std::task::Poll;
use std::time::Duration;
use tokio::time::Instant;

/// Builder for a [`Clipper`] instance.
pub struct ClipperBuilder {
    cache_capacity: usize,
    cache_enabled: bool,
    registry: Registry,
    statestore: Option<Arc<StateStore>>,
    fleet_config: FleetConfig,
}

impl Default for ClipperBuilder {
    fn default() -> Self {
        ClipperBuilder {
            cache_capacity: 32_768,
            cache_enabled: true,
            registry: Registry::new(),
            statestore: None,
            fleet_config: FleetConfig::default(),
        }
    }
}

impl ClipperBuilder {
    /// Prediction-cache capacity (entries). Default 32768.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Disable the prediction cache entirely (ablation / §4.2 comparison).
    pub fn disable_cache(mut self) -> Self {
        self.cache_enabled = false;
        self
    }

    /// Use an existing metrics registry.
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = registry;
        self
    }

    /// Use an existing statestore (e.g. one served over TCP to mirror the
    /// paper's external-Redis deployment).
    pub fn statestore(mut self, store: Arc<StateStore>) -> Self {
        self.statestore = Some(store);
        self
    }

    /// Timing knobs for the fleet manager (heartbeat interval, suspect
    /// and expiry thresholds) — applied when [`Clipper::fleet`] first
    /// constructs it.
    pub fn fleet_config(mut self, cfg: FleetConfig) -> Self {
        self.fleet_config = cfg;
        self
    }

    /// Build the instance.
    pub fn build(self) -> Clipper {
        let registry = self.registry;
        let mal = ModelAbstractionLayer::new(self.cache_capacity, registry.clone());
        let store = self
            .statestore
            .unwrap_or_else(|| Arc::new(StateStore::new()));
        Clipper {
            inner: Arc::new(Inner {
                mal,
                apps: RwLock::new(HashMap::new()),
                models_dir: RwLock::new(HashMap::new()),
                state_mgr: SelectionStateManager::new(store.clone()),
                store,
                cache_enabled: self.cache_enabled,
                latency_us: registry.histogram("clipper/latency_us"),
                deadline_overshoot_us: registry.histogram("clipper/deadline_overshoot_us"),
                feedback_count: registry.counter("clipper/feedback"),
                defaults_used: registry.counter("clipper/defaults_used"),
                substitutions: registry.counter("clipper/straggler_substitutions"),
                registry,
                fleet_cfg: self.fleet_config,
                fleet: OnceLock::new(),
            }),
        }
    }
}

struct App {
    cfg: AppConfig,
    policy: Box<dyn SelectionPolicy>,
}

/// The one validity rule for an app's selection: at least one candidate
/// model, and for Exp3 / Exp4 a finite learning rate above 0. Checks the
/// parts given; `None` is a part an update leaves as it is.
fn check_app(models: Option<&[ModelId]>, policy: Option<&PolicyKind>) -> Result<(), ApiError> {
    if models.is_some_and(<[ModelId]>::is_empty) {
        return Err(ApiError::BadRequest(
            "candidate_models must not be empty".into(),
        ));
    }
    if let Some(PolicyKind::Exp3 { eta } | PolicyKind::Exp4 { eta }) = policy {
        if !(eta.is_finite() && *eta > 0.0) {
            return Err(ApiError::BadRequest(format!(
                "eta must be a finite number above 0, got {eta}"
            )));
        }
    }
    Ok(())
}

impl App {
    fn new(cfg: AppConfig) -> Arc<App> {
        let policy = build_policy(&cfg.policy);
        Arc::new(App { cfg, policy })
    }
}

/// A drained model version kept revivable: its configuration and its
/// still-connected transports. Rollback re-attaches them behind fresh
/// queues.
struct ParkedVersion {
    cfg: QueueConfig,
    transports: Vec<Arc<dyn BatchTransport>>,
}

/// Per-model-name version directory: the current-version indirection that
/// apps resolve through, plus the rollback stack and the parking lot.
struct ModelDir {
    current: u32,
    versions: Vec<u32>,
    history: Vec<u32>,
    parked: HashMap<u32, ParkedVersion>,
}

impl ModelDir {
    fn record(&self, name: &str) -> ModelRecord {
        ModelRecord {
            name: name.to_string(),
            current: self.current,
            versions: self.versions.clone(),
            history: self.history.clone(),
            batch: Vec::new(),
        }
    }
}

struct Inner {
    mal: Arc<ModelAbstractionLayer>,
    apps: RwLock<HashMap<String, Arc<App>>>,
    /// Lock ordering: `models_dir` before `apps`; never the reverse.
    models_dir: RwLock<HashMap<String, ModelDir>>,
    state_mgr: SelectionStateManager,
    store: Arc<StateStore>,
    cache_enabled: bool,
    registry: Registry,
    latency_us: Histogram,
    /// How far past its app's SLO each late reply left (µs); a reply
    /// inside the SLO records nothing.
    deadline_overshoot_us: Histogram,
    feedback_count: Counter,
    defaults_used: Counter,
    substitutions: Counter,
    fleet_cfg: FleetConfig,
    /// Lazily constructed on first [`Clipper::fleet`] call — a deployment
    /// that never touches the fleet surface pays nothing for it.
    fleet: OnceLock<Fleet>,
}

impl Inner {
    fn persist_app(&self, cfg: &AppConfig) {
        if let Ok(bytes) = serde_json::to_vec(&AppView::from(cfg)) {
            self.store.set(&api::app_key(&cfg.name), bytes);
        }
    }

    fn persist_model(&self, name: &str) {
        let record = {
            let dirs = self.models_dir.read();
            let Some(dir) = dirs.get(name) else {
                return;
            };
            let mut rec = dir.record(name);
            // Persist each version's configuration — live versions from
            // the abstraction layer, rolled-away versions from the
            // parking lot — so sync_config() restores it instead of
            // resetting rolled-out models to defaults.
            for &v in &dir.versions {
                let id = ModelId::new(name, v);
                let cfg = self
                    .mal
                    .model_config(&id)
                    .or_else(|| dir.parked.get(&v).map(|p| p.cfg.clone()));
                if let Some(knobs) = cfg {
                    rec.batch.push(api::VersionBatchKnobs { version: v, knobs });
                }
            }
            rec
        };
        if let Ok(bytes) = serde_json::to_vec(&record) {
            self.store.set(&api::model_key(name), bytes);
        }
    }

    /// Every persisted record under `prefix` that parses as a `T`; the
    /// keys of those that do not are appended to `skipped`, so one
    /// corrupt record never aborts the rest of a recovery or sync pass.
    fn records<T: serde::Deserialize>(&self, prefix: &str, skipped: &mut Vec<String>) -> Vec<T> {
        let mut parsed = Vec::new();
        for key in self.store.keys_with_prefix(prefix) {
            let Some(bytes) = self.store.get(&key) else {
                continue;
            };
            match serde_json::from_slice(&bytes) {
                Ok(rec) => parsed.push(rec),
                Err(_) => skipped.push(key),
            }
        }
        parsed
    }

    /// Adopt a persisted model wholesale — its version directory plus
    /// every version with its configuration — unless the name is already
    /// registered here. Returns whether it was adopted.
    fn adopt_model(&self, rec: &ModelRecord) -> bool {
        {
            let mut dirs = self.models_dir.write();
            if dirs.contains_key(&rec.name) {
                return false;
            }
            dirs.insert(
                rec.name.clone(),
                ModelDir {
                    current: rec.current,
                    versions: rec.versions.clone(),
                    history: rec.history.clone(),
                    parked: HashMap::new(),
                },
            );
        }
        for &v in &rec.versions {
            self.adopt_version(rec, v);
        }
        true
    }

    /// Register one persisted version, with its configuration, with the
    /// abstraction layer.
    fn adopt_version(&self, rec: &ModelRecord, v: u32) {
        let cfg = rec.knobs_for(v).cloned().unwrap_or_default();
        self.mal.add_model(ModelId::new(&rec.name, v), cfg);
    }
}

/// The Clipper prediction-serving system.
#[derive(Clone)]
pub struct Clipper {
    inner: Arc<Inner>,
}

impl Clipper {
    /// Start building an instance.
    pub fn builder() -> ClipperBuilder {
        ClipperBuilder::default()
    }

    /// Register (or replace) an application — name, candidate models,
    /// policy, SLO. Upsert semantics; the registration persists to the
    /// statestore. Use [`try_register_app`](Self::try_register_app) for
    /// create-only semantics (the control plane's `POST`).
    ///
    /// # Panics
    ///
    /// On an empty candidate set, or an Exp3 / Exp4 learning rate that is
    /// not a finite number above 0 — before anything is persisted.
    pub fn register_app(&self, cfg: AppConfig) {
        if let Err(e) = check_app(Some(&cfg.candidate_models), Some(&cfg.policy)) {
            panic!("register_app({}): {e}", cfg.name);
        }
        self.inner.persist_app(&cfg);
        let name = cfg.name.clone();
        self.inner.apps.write().insert(name, App::new(cfg));
    }

    /// Create-only app registration: refuses a duplicate name (409), an
    /// empty candidate set or a learning rate that is not a finite number
    /// above 0 (400), and a candidate model that is not registered (404).
    pub fn try_register_app(&self, cfg: AppConfig) -> Result<(), ApiError> {
        check_app(Some(&cfg.candidate_models), Some(&cfg.policy))?;
        for m in &cfg.candidate_models {
            if !self.inner.mal.has_model(m) {
                return Err(ApiError::ModelUnknown(m.to_string()));
            }
        }
        {
            // Check-and-insert under one write lock: two concurrent
            // creates of the same name must yield exactly one 201 — the
            // loser gets the 409, never a silent replace.
            let mut apps = self.inner.apps.write();
            if apps.contains_key(&cfg.name) {
                return Err(ApiError::AppExists(cfg.name.clone()));
            }
            apps.insert(cfg.name.clone(), App::new(cfg.clone()));
        }
        self.inner.persist_app(&cfg);
        Ok(())
    }

    /// Live-update an application with an [`AppPatch`] delta. The swap is
    /// atomic: in-flight predicts finish under the configuration they
    /// started with; the next predict sees the amended one. Learned
    /// policy state survives — when the candidate set changes, per-model
    /// weights carry over by model name. Returns the amended config.
    pub fn update_app(&self, name: &str, patch: AppPatch) -> Result<AppConfig, ApiError> {
        // An empty candidate set would brick the app: selection would have
        // nothing to choose from (and would wipe learned state).
        check_app(patch.candidate_models.as_deref(), patch.policy.as_ref())?;
        if let Some(models) = &patch.candidate_models {
            for m in models {
                if !self.inner.mal.has_model(m) {
                    return Err(ApiError::ModelUnknown(m.to_string()));
                }
            }
        }
        let cfg = {
            let mut apps = self.inner.apps.write();
            let app = apps
                .get_mut(name)
                .ok_or_else(|| ApiError::AppUnknown(name.to_string()))?;
            let cfg = app.cfg.clone().apply(patch);
            *app = App::new(cfg.clone());
            cfg
        };
        self.inner.persist_app(&cfg);
        Ok(cfg)
    }

    /// Unregister an application: it stops routing immediately (predicts
    /// return `AppUnknown` → 404), its persisted registration and its
    /// per-context selection state are deleted. In-flight predicts that
    /// already resolved the app finish normally.
    pub fn unregister_app(&self, name: &str) -> Result<(), ApiError> {
        self.inner
            .apps
            .write()
            .remove(name)
            .ok_or_else(|| ApiError::AppUnknown(name.to_string()))?;
        self.inner.store.del(&api::app_key(name));
        for key in self
            .inner
            .store
            .keys_with_prefix(&format!("selstate/{name}/"))
        {
            self.inner.store.del(&key);
        }
        Ok(())
    }

    /// The registered configuration of one app.
    pub fn app_config(&self, name: &str) -> Option<AppConfig> {
        self.inner.apps.read().get(name).map(|a| a.cfg.clone())
    }

    /// Register a model version with its configuration: per-replica
    /// batching, recovery knobs and the replica-scheduling policy
    /// ([`QueueConfig::scheduler`]). The first registered version of a
    /// name becomes its *current* version; later versions are rollout
    /// candidates until [`rollout_model`](Self::rollout_model) promotes
    /// them. Returns whether the version was newly registered (`false`:
    /// it already existed and keeps its original configuration).
    pub fn add_model(&self, id: ModelId, cfg: QueueConfig) -> bool {
        if !self.inner.mal.add_model(id.clone(), cfg) {
            // Duplicate version: the MAL keeps the original config, the
            // directory already lists the version — nothing to persist.
            return false;
        }
        {
            let mut dirs = self.inner.models_dir.write();
            let dir = dirs.entry(id.name.clone()).or_insert_with(|| ModelDir {
                current: id.version,
                versions: Vec::new(),
                history: Vec::new(),
                parked: HashMap::new(),
            });
            if !dir.versions.contains(&id.version) {
                dir.versions.push(id.version);
                dir.versions.sort_unstable();
            }
        }
        self.inner.persist_model(&id.name);
        true
    }

    /// The version predicts for `name` currently resolve to.
    pub fn current_version(&self, name: &str) -> Option<u32> {
        self.inner.models_dir.read().get(name).map(|d| d.current)
    }

    /// The model catalog: every model name with its version directory and
    /// the live scheduler state of its current version, sorted by name.
    pub fn model_views(&self) -> Vec<ModelView> {
        let dirs = self.inner.models_dir.read();
        let mut views: Vec<ModelView> = dirs
            .iter()
            .map(|(name, dir)| self.view_of(name, dir))
            .collect();
        drop(dirs);
        views.sort_by(|a, b| a.name.cmp(&b.name));
        views
    }

    /// One model's catalog entry.
    pub fn model_view(&self, name: &str) -> Option<ModelView> {
        self.inner
            .models_dir
            .read()
            .get(name)
            .map(|dir| self.view_of(name, dir))
    }

    fn view_of(&self, name: &str, dir: &ModelDir) -> ModelView {
        let id = ModelId::new(name, dir.current);
        let mal = &self.inner.mal;
        ModelView {
            name: name.to_string(),
            current_version: dir.current,
            versions: dir.versions.clone(),
            history: dir.history.clone(),
            replicas: mal.replica_queue_ids(&id),
            queue_depth: mal.queue_depth(&id),
            inflight: mal.inflight(&id),
        }
    }

    /// Roll `name` forward (or sideways) to `to_version`, which must be a
    /// registered version with at least one live replica (a parked
    /// version is revived from its retained transports). Atomically
    /// repoints every app referencing the old version, waits for predicts
    /// that already selected the old version to settle against it, then
    /// gracefully drains the old version's replicas — every accepted
    /// query completes or fail-fills; nothing is dropped and no pending
    /// cache entry is left wedged. The old version parks, revivable by
    /// [`rollback_model`](Self::rollback_model).
    pub async fn rollout_model(
        &self,
        name: &str,
        to_version: u32,
    ) -> Result<RolloutOutcome, ApiError> {
        self.rollout_inner(name, to_version).await
    }

    /// Undo the most recent rollout of `name`: restore the previous
    /// version (reviving its parked replicas), repoint apps back, and
    /// drain the version being rolled back. Errors with
    /// [`ApiError::NoRolloutHistory`] when nothing was rolled out.
    pub async fn rollback_model(&self, name: &str) -> Result<RolloutOutcome, ApiError> {
        let prev = {
            let mut dirs = self.inner.models_dir.write();
            let dir = dirs
                .get_mut(name)
                .ok_or_else(|| ApiError::ModelUnknown(name.to_string()))?;
            dir.history
                .pop()
                .ok_or_else(|| ApiError::NoRolloutHistory(name.to_string()))?
        };
        match self.rollout_inner(name, prev).await {
            Ok(outcome) => Ok(outcome),
            Err(e) => {
                // Undo the pop so a failed rollback stays retryable.
                if let Some(dir) = self.inner.models_dir.write().get_mut(name) {
                    dir.history.push(prev);
                }
                Err(e)
            }
        }
    }

    async fn rollout_inner(&self, name: &str, to_version: u32) -> Result<RolloutOutcome, ApiError> {
        let mal = self.inner.mal.clone();
        let to_id = ModelId::new(name, to_version);
        let from_version = {
            let mut dirs = self.inner.models_dir.write();
            let dir = dirs
                .get_mut(name)
                .ok_or_else(|| ApiError::ModelUnknown(name.to_string()))?;
            if dir.current == to_version {
                return Err(ApiError::AlreadyCurrent {
                    model: name.to_string(),
                    version: to_version,
                });
            }
            if !mal.has_model(&to_id) {
                // Revive a parked version from its retained transports.
                let parked = dir.parked.remove(&to_version).ok_or({
                    ApiError::VersionUnknown {
                        model: name.to_string(),
                        version: to_version,
                    }
                })?;
                mal.add_model(to_id.clone(), parked.cfg);
                for t in parked.transports {
                    let _ = mal.add_replica(&to_id, t);
                }
            }
            if mal.replica_count(&to_id) == 0 {
                return Err(ApiError::NoReplicasForVersion {
                    model: name.to_string(),
                    version: to_version,
                });
            }
            let from = dir.current;
            dir.current = to_version;
            dir.history.push(from);
            if !dir.versions.contains(&to_version) {
                dir.versions.push(to_version);
                dir.versions.sort_unstable();
            }
            from
        };

        // Atomically repoint every app referencing name:vFROM. The old
        // App values are retained so we can wait for predicts that
        // captured them to settle.
        let mut repointed_apps = Vec::new();
        let mut old_apps = Vec::new();
        let mut repointed_cfgs = Vec::new();
        let mut max_slo = Duration::ZERO;
        {
            let mut apps = self.inner.apps.write();
            for (app_name, app) in apps.iter_mut() {
                let refers_from = app
                    .cfg
                    .candidate_models
                    .iter()
                    .any(|m| m.name == name && m.version == from_version);
                let refers_to = app
                    .cfg
                    .candidate_models
                    .iter()
                    .any(|m| m.name == name && m.version == to_version);
                // An app referencing *both* versions is deliberately
                // comparing them (A/B) — rewriting would collapse its
                // candidate set into duplicates. Leave it pinned.
                if !refers_from || refers_to {
                    continue;
                }
                let mut cfg = app.cfg.clone();
                for m in &mut cfg.candidate_models {
                    if m.name == name && m.version == from_version {
                        m.version = to_version;
                    }
                }
                max_slo = max_slo.max(cfg.slo);
                old_apps.push(std::mem::replace(app, App::new(cfg.clone())));
                repointed_apps.push(app_name.clone());
                repointed_cfgs.push(cfg);
            }
        }
        for cfg in &repointed_cfgs {
            self.inner.persist_app(cfg);
        }

        // Quiesce: predicts that selected the old version hold a clone of
        // the replaced App Arc and always return by their SLO deadline
        // (straggler mitigation); wait for those clones to drop — bounded
        // by 2×SLO plus margin. A gather dispatches every model on its
        // first poll, while its predict still holds the Arc, so once the
        // clones are gone every query that chose the old version is in
        // its queue, and the drain below answers it.
        let quiesce_deadline = Instant::now() + max_slo * 2 + Duration::from_millis(250);
        while !old_apps.iter().all(|a| Arc::strong_count(a) == 1) {
            if Instant::now() >= quiesce_deadline {
                break;
            }
            tokio::time::sleep(Duration::from_millis(1)).await;
        }

        // Drain the old version through the graceful-drain machinery and
        // park it (configuration + transports) for rollback — unless an
        // app still references it explicitly (A/B pinning), in which case
        // it stays live and `drained_replicas` reports 0.
        let from_id = ModelId::new(name, from_version);
        let still_referenced = self
            .inner
            .apps
            .read()
            .values()
            .any(|a| a.cfg.candidate_models.contains(&from_id));
        let mut drained_replicas = 0;
        if still_referenced {
            self.inner.persist_model(name);
            return Ok(RolloutOutcome {
                model: name.to_string(),
                from_version,
                to_version,
                repointed_apps,
                drained_replicas,
            });
        }
        if let Ok(removed) = mal.remove_model(&from_id) {
            drained_replicas = removed.queues.len();
            if let Some(dir) = self.inner.models_dir.write().get_mut(name) {
                dir.parked.insert(
                    from_version,
                    ParkedVersion {
                        cfg: removed.cfg,
                        transports: removed
                            .queues
                            .iter()
                            .map(|q| q.transport().clone())
                            .collect(),
                    },
                );
            }
            for q in &removed.queues {
                q.drained().await;
            }
        }
        self.inner.persist_model(name);
        Ok(RolloutOutcome {
            model: name.to_string(),
            from_version,
            to_version,
            repointed_apps,
            drained_replicas,
        })
    }

    /// Reconcile this frontend's in-memory registry against the
    /// statestore's persisted configuration (the paper's external-Redis
    /// config state). On a fresh frontend this is the restart path: the
    /// registry is empty, so every model, app and replica record is
    /// adopted. On a *live* frontend it converges on records another
    /// frontend (sharing the store) moved underneath it. A corrupt record,
    /// or an app record that cannot serve (no candidate model, or a
    /// learning rate that is not a finite number above 0), is skipped
    /// (reported in [`SyncReport::skipped`]) rather than aborting the rest
    /// of the pass.
    ///
    /// Per model record: unknown names are adopted wholesale
    /// (directory + versions with the configuration they were persisted
    /// with, [`ModelRecord::batch`]; a version without one there falls
    /// back to the default configuration, and replicas re-attach afterwards
    /// via [`add_replica`](Self::add_replica)); known
    /// names adopt any versions they lack; and when the persisted
    /// *current* pointer differs from the local one, the full local
    /// rollout path runs — repoint referencing apps, quiesce in-flight
    /// predicts, gracefully drain the outgoing version's local replicas —
    /// so convergence loses nothing, exactly like a locally-initiated
    /// rollout. A pointer move whose target version has no local replicas
    /// is deferred (reported in [`SyncReport::pending`]) and retried by a
    /// later pass, after replicas attach.
    ///
    /// Per app record: unknown apps are adopted, changed records replace
    /// the local registration (next predict sees it; in-flight predicts
    /// finish under the config they captured), and local apps whose
    /// record was deleted are unregistered locally.
    ///
    /// Note the prediction caches need no cross-frontend invalidation on
    /// rollout: cache keys embed the full `ModelId` (name *and* version),
    /// so entries for an outgoing version simply stop being looked up and
    /// age out under CLOCK reclamation.
    pub async fn sync_config(&self) -> SyncReport {
        let inner = &self.inner;
        let mut report = SyncReport::default();

        // Models first: adopting directories/pointer moves also repoints
        // local apps through the rollout path, which the app pass below
        // then observes as already-converged.
        for rec in inner.records::<ModelRecord>(api::MODEL_KEY_PREFIX, &mut report.skipped) {
            if inner.adopt_model(&rec) {
                report.adopted_models += 1;
                continue;
            }
            // Adopt versions the local directory lacks — directly, not via
            // `add_model`, which would persist the *local* (still-stale)
            // current pointer over the record we are adopting.
            {
                let mut dirs = self.inner.models_dir.write();
                let dir = dirs
                    .get_mut(&rec.name)
                    .expect("adopt_model found the name registered");
                for &v in &rec.versions {
                    if !dir.versions.contains(&v) {
                        dir.versions.push(v);
                        dir.versions.sort_unstable();
                        self.inner.adopt_version(&rec, v);
                        report.adopted_versions += 1;
                    }
                }
            }
            let local_current = self.current_version(&rec.name);
            if local_current != Some(rec.current) {
                match self.rollout_inner(&rec.name, rec.current).await {
                    Ok(_) => report.repointed += 1,
                    Err(_) => report
                        .pending
                        .push(format!("{}:v{}", rec.name, rec.current)),
                }
            }
        }

        // Apps: adopt new, replace changed, drop deleted.
        let mut persisted_names = Vec::new();
        for rec in inner.records::<AppView>(api::APP_KEY_PREFIX, &mut report.skipped) {
            if check_app(Some(&rec.candidate_models), Some(&rec.policy)).is_err() {
                report.skipped.push(api::app_key(&rec.name));
                continue;
            }
            persisted_names.push(rec.name.clone());
            let local = self
                .inner
                .apps
                .read()
                .get(&rec.name)
                .map(|a| AppView::from(&a.cfg));
            match local {
                Some(ref cur) if *cur == rec => {}
                found => {
                    let cfg = rec.into_config();
                    let name = cfg.name.clone();
                    self.inner.apps.write().insert(name, App::new(cfg));
                    if found.is_some() {
                        report.updated_apps += 1;
                    } else {
                        report.adopted_apps += 1;
                    }
                }
            }
        }
        let local_apps = self.apps();
        for name in local_apps {
            // Only a truly absent key means "deleted elsewhere" — a
            // present-but-corrupt record was skipped above, not removed.
            if !persisted_names.contains(&name)
                && inner.store.get(&api::app_key(&name)).is_none()
                && self.inner.apps.write().remove(&name).is_some()
            {
                report.removed_apps += 1;
            }
        }

        // Fleet replicas: adopt records another frontend (or this one's
        // previous life) registered, so the fan-in group shares one
        // membership view. Each live record attaches through a matching
        // launcher when one is registered; otherwise the container's own
        // re-dial — or the monitor's expiry — settles it. Expired
        // tombstones stay in the store untouched: they answer late
        // heartbeats with 410 and carry the warm start for
        // re-registration. Records already known locally are no-ops.
        for rec in inner.records::<ReplicaRecord>(api::REPLICA_KEY_PREFIX, &mut report.skipped) {
            if self.fleet().adopt_record(rec) {
                report.adopted_replicas += 1;
            }
        }
        report
    }

    /// Hot-remove and gracefully drain every replica of `id` whose
    /// health is not clean (its breaker opened on a failure streak or
    /// rate and no probe has succeeded since, or the fleet health
    /// monitor reports its heartbeats silent) — the
    /// ops response to a replica that started failing mid-run. Returns
    /// the drained queue ids. Callers decide policy (this will happily
    /// remove the last replica if everything is suspect).
    ///
    /// Idempotent against the fleet's expiry path racing on the same
    /// queue id (a dead replica is usually both silent *and* failing):
    /// `remove_replica` removes under the replica write lock, so exactly
    /// one caller wins each queue — the loser skips it, nothing
    /// double-drains, and each side's drain accounting counts only the
    /// queues it actually won.
    pub async fn drain_suspect_replicas(&self, id: &ModelId) -> Vec<String> {
        let mut removed = Vec::new();
        for qid in self.inner.mal.suspect_queue_ids(id) {
            if let Ok(queue) = self.inner.mal.remove_replica(id, &qid) {
                queue.drained().await;
                removed.push(qid);
            }
        }
        removed
    }

    /// Attach a container replica to a model — safe mid-traffic. Returns
    /// the replica's queue id (the handle for hot removal).
    pub fn add_replica(
        &self,
        id: &ModelId,
        transport: Arc<dyn BatchTransport>,
    ) -> Result<String, PredictError> {
        self.inner.mal.add_replica(id, transport)
    }

    /// Hot-remove one replica by queue id: it stops receiving queries
    /// immediately and drains gracefully (no query dropped, no cache
    /// entry wedged). Await `drained()` on the returned queue to observe
    /// completion.
    pub fn remove_replica(
        &self,
        id: &ModelId,
        queue_id: &str,
    ) -> Result<Arc<ReplicaQueue>, PredictError> {
        self.inner.mal.remove_replica(id, queue_id)
    }

    /// Remove (and gracefully drain) all replicas of a model.
    pub fn remove_replicas(&self, id: &ModelId) {
        self.inner.mal.remove_replicas(id);
    }

    /// The fleet manager (replica self-registration, heartbeat health,
    /// autoscaling) — constructed lazily on first use, over this
    /// instance's abstraction layer, statestore, and metrics registry.
    pub fn fleet(&self) -> Fleet {
        self.inner
            .fleet
            .get_or_init(|| {
                Fleet::new(
                    self.inner.mal.clone(),
                    self.inner.store.clone(),
                    &self.inner.registry,
                    self.inner.fleet_cfg.clone(),
                )
            })
            .clone()
    }

    /// The underlying model abstraction layer.
    pub fn abstraction(&self) -> &Arc<ModelAbstractionLayer> {
        &self.inner.mal
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The contextual selection-state manager.
    pub fn state_manager(&self) -> &SelectionStateManager {
        &self.inner.state_mgr
    }

    /// Registered application names.
    pub fn apps(&self) -> Vec<String> {
        self.inner.apps.read().keys().cloned().collect()
    }

    /// The backing statestore (configuration + selection state).
    pub fn store(&self) -> &Arc<StateStore> {
        &self.inner.store
    }

    fn app(&self, name: &str) -> Result<Arc<App>, PredictError> {
        self.inner
            .apps
            .read()
            .get(name)
            .cloned()
            .ok_or(PredictError::AppUnknown)
    }

    /// Fetch (and lazily reconcile) the selection state for an app. After
    /// an app update or a model-version rollout the stored state may
    /// reference the previous candidate set; it is remapped — weights
    /// carried over by model name — before any selection keys on it.
    fn app_state(
        &self,
        app_name: &str,
        context: Option<&str>,
        app: &App,
    ) -> Result<crate::selection::PolicyState, PredictError> {
        let state = self
            .inner
            .state_mgr
            .get_or_init(
                app_name,
                context,
                app.policy.as_ref(),
                &app.cfg.candidate_models,
                app.cfg.seed,
            )
            .map_err(|e| PredictError::Failed(e.to_string()))?;
        if state.models == app.cfg.candidate_models {
            return Ok(state);
        }
        self.inner
            .state_mgr
            .update(
                app_name,
                context,
                app.policy.as_ref(),
                &app.cfg.candidate_models,
                app.cfg.seed,
                |s| {
                    s.remap_models(&app.cfg.candidate_models);
                },
            )
            .map_err(|e| PredictError::Failed(e.to_string()))
    }

    /// Evaluate `models` on `input` through the cache and the batching
    /// queues, from the calling task, and return the answers that
    /// arrived by `deadline`. A model that failed or is late is simply
    /// absent from the map.
    ///
    /// Every evaluation is polled once — in `models` order, which is
    /// where cache hits resolve and misses are dispatched — before the
    /// deadline is consulted, so an answer that is already there always
    /// counts. Evaluations still pending at the deadline are dropped.
    ///
    /// Dropping an evaluation — there, or with this whole future —
    /// abandons only the wait. Each dispatched query's reply sink travels
    /// inside its queue item, so the queue fills (or fail-fills) the
    /// pending cache entry, and feeds the model's running default, whether
    /// or not anyone is still waiting for it.
    async fn gather(
        &self,
        models: &[ModelId],
        input: &Input,
        deadline: Instant,
    ) -> HashMap<ModelId, Output> {
        let mut preds = HashMap::with_capacity(models.len());
        let (mal, use_cache) = (&self.inner.mal, self.inner.cache_enabled);
        let mut pending: Vec<_> = models
            .iter()
            .map(|model| {
                Box::pin(async move { (model, mal.predict(model, input.clone(), use_cache).await) })
            })
            .collect();
        let all_settled = std::future::poll_fn(|cx| {
            pending.retain_mut(|call| match call.as_mut().poll(cx) {
                Poll::Ready((model, Ok(out))) => {
                    preds.insert(model.clone(), out);
                    false
                }
                Poll::Ready((_, Err(_))) => false,
                Poll::Pending => true,
            });
            if pending.is_empty() {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        });
        // `Timeout` polls its future before its timer.
        let _ = tokio::time::timeout_at(deadline, all_settled).await;
        preds
    }

    /// Serve one prediction for `app`, optionally under a user/session
    /// `context` (§5.3). Always returns by the app's SLO deadline (plus
    /// scheduling noise, which `clipper/deadline_overshoot_us` measures
    /// for each reply that leaves late): stragglers are substituted, and
    /// if *nothing* arrived the app's default output is returned with
    /// zero confidence.
    pub async fn predict(
        &self,
        app_name: &str,
        context: Option<&str>,
        input: Input,
    ) -> Result<Prediction, PredictError> {
        let start = Instant::now();
        if input.is_empty() {
            return Err(PredictError::BadInput("empty feature vector".into()));
        }
        let app = self.app(app_name)?;
        let state = self.app_state(app_name, context, &app)?;

        let selected = app.policy.select(&state, &input);
        if selected.is_empty() {
            return Err(PredictError::Failed("policy selected no models".into()));
        }
        let mut preds = self.gather(&selected, &input, start + app.cfg.slo).await;
        let models_used = preds.len();
        let models_missing = selected.len() - models_used;

        // Substitute each missing model's running default (§5.2.2) so the
        // ensemble can still vote, with the loss of accuracy reflected in
        // the agreement-based confidence.
        if models_missing > 0 {
            for model in &selected {
                if !preds.contains_key(model) {
                    if let Some(default) = self.inner.mal.default_output(model) {
                        preds.insert(model.clone(), default);
                        self.inner.substitutions.inc();
                    }
                }
            }
        }

        let (output, confidence) = if preds.is_empty() {
            self.inner.defaults_used.inc();
            (app.cfg.default_output.clone(), 0.0)
        } else {
            app.policy.combine(&state, &input, &preds)
        };
        let latency = start.elapsed();
        self.inner.latency_us.record(latency.as_micros() as u64);
        if latency > app.cfg.slo {
            let late_us = (latency - app.cfg.slo).as_micros() as u64;
            self.inner.deadline_overshoot_us.record(late_us);
        }
        Ok(Prediction {
            output,
            confidence,
            models_used,
            models_missing,
            latency,
        })
    }

    /// Join application feedback with the candidate models' predictions
    /// for `input` and fold it into the context's policy state. The
    /// join waits no longer than the app's SLO: a model that has not
    /// answered by then is observed as absent.
    pub async fn feedback(
        &self,
        app_name: &str,
        context: Option<&str>,
        input: Input,
        feedback: Feedback,
    ) -> Result<(), PredictError> {
        if input.is_empty() {
            return Err(PredictError::BadInput("empty feature vector".into()));
        }
        let app = self.app(app_name)?;

        // Join feedback with predictions through the cache: recent
        // predictions hit; unseen inputs are evaluated.
        let deadline = Instant::now() + app.cfg.slo;
        let preds = self
            .gather(&app.cfg.candidate_models, &input, deadline)
            .await;

        self.inner
            .state_mgr
            .update(
                app_name,
                context,
                app.policy.as_ref(),
                &app.cfg.candidate_models,
                app.cfg.seed,
                |state| {
                    // Post-rollout/update the stored state may reference
                    // the previous candidate set; remap before observing.
                    state.remap_models(&app.cfg.candidate_models);
                    app.policy.observe(state, &input, &feedback, &preds);
                },
            )
            .map_err(|e| PredictError::Failed(e.to_string()))?;
        self.inner.feedback_count.inc();
        Ok(())
    }

    /// Current policy state for `(app, context)` — used by reports.
    pub fn policy_state(
        &self,
        app_name: &str,
        context: Option<&str>,
    ) -> Result<crate::selection::PolicyState, PredictError> {
        let app = self.app(app_name)?;
        self.app_state(app_name, context, &app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::SchedulerPolicy;
    use crate::api::JsonOutput;
    use crate::batching::{BatchStrategy, BreakerConfig, HedgeConfig};
    use crate::selection::PolicyState;
    use crate::types::PolicyKind;
    use clipper_rpc::message::{PredictReply, WireOutput};
    use proptest::prelude::{any, prop_assert_eq, prop_oneof, proptest, Just, Strategy};
    use std::time::Duration;

    /// A transport answering `label`, optionally after an async delay
    /// (async so single-threaded test runtimes keep their timers running).
    struct ConstTransport {
        label: u32,
        delay: Option<Duration>,
    }

    impl BatchTransport for ConstTransport {
        fn predict_batch(
            &self,
            inputs: &[Input],
        ) -> clipper_rpc::BoxFuture<Result<PredictReply, clipper_rpc::RpcError>> {
            let (label, delay, n) = (self.label, self.delay, inputs.len());
            Box::pin(async move {
                if let Some(d) = delay {
                    tokio::time::sleep(d).await;
                }
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(label); n],
                    queue_us: 0,
                    compute_us: 100,
                })
            })
        }
        fn id(&self) -> String {
            format!("const-{}", self.label)
        }
    }

    fn const_transport(label: u32, delay: Option<Duration>) -> Arc<dyn BatchTransport> {
        Arc::new(ConstTransport { label, delay })
    }

    /// Index of a model in a policy state.
    fn index_of(state: &PolicyState, model: &ModelId) -> Option<usize> {
        state.models.iter().position(|m| m == model)
    }

    fn setup(labels: &[u32], policy: PolicyKind, slo: Duration) -> (Clipper, Vec<ModelId>) {
        let clipper = Clipper::builder().build();
        let models: Vec<ModelId> = labels
            .iter()
            .enumerate()
            .map(|(i, _)| ModelId::new(&format!("m{i}"), 1))
            .collect();
        for (i, &label) in labels.iter().enumerate() {
            clipper.add_model(models[i].clone(), QueueConfig::default());
            clipper
                .add_replica(&models[i], const_transport(label, None))
                .unwrap();
        }
        clipper.register_app(
            AppConfig::new("app", models.clone())
                .with_policy(policy)
                .with_slo(slo),
        );
        (clipper, models)
    }

    /// Samples in `clipper/deadline_overshoot_us`.
    fn overshoots(clipper: &Clipper) -> u64 {
        clipper.inner.deadline_overshoot_us.snapshot().count()
    }

    #[tokio::test]
    async fn a_reply_past_its_slo_records_its_overshoot() {
        let (clipper, _) = setup(
            &[4],
            PolicyKind::Static { model_index: 0 },
            Duration::from_micros(1),
        );
        for i in 1..=3 {
            clipper
                .predict("app", None, Arc::new(vec![i as f32]))
                .await
                .unwrap();
            assert_eq!(overshoots(&clipper), i, "one sample per late reply");
        }
    }

    #[tokio::test]
    async fn a_reply_inside_its_slo_records_no_overshoot() {
        let (clipper, _) = setup(
            &[4],
            PolicyKind::Static { model_index: 0 },
            Duration::from_secs(10),
        );
        for i in 0..3 {
            let p = clipper
                .predict("app", None, Arc::new(vec![i as f32]))
                .await
                .unwrap();
            assert_eq!(p.models_used, 1);
        }
        assert_eq!(overshoots(&clipper), 0);
    }

    #[tokio::test]
    async fn predict_returns_the_models_answer() {
        let (clipper, _) = setup(
            &[4],
            PolicyKind::Static { model_index: 0 },
            Duration::from_millis(100),
        );
        let p = clipper
            .predict("app", None, Arc::new(vec![1.0]))
            .await
            .unwrap();
        assert_eq!(p.output, Output::Class(4));
        assert_eq!(p.confidence, 1.0);
        assert_eq!(p.models_used, 1);
        assert_eq!(p.models_missing, 0);
    }

    #[tokio::test]
    async fn unknown_app_errors() {
        let (clipper, _) = setup(
            &[1],
            PolicyKind::Static { model_index: 0 },
            Duration::from_millis(100),
        );
        let err = clipper
            .predict("ghost", None, Arc::new(vec![1.0]))
            .await
            .unwrap_err();
        assert_eq!(err, PredictError::AppUnknown);
    }

    #[tokio::test]
    async fn ensemble_majority_wins_with_agreement_confidence() {
        let (clipper, _) = setup(
            &[7, 7, 2],
            PolicyKind::MajorityVote,
            Duration::from_millis(200),
        );
        let p = clipper
            .predict("app", None, Arc::new(vec![1.0]))
            .await
            .unwrap();
        assert_eq!(p.output, Output::Class(7));
        assert!((p.confidence - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(p.models_used, 3);
    }

    /// What a [`MoodyTransport`] does with the next batch.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Mood {
        Answers,
        Fails,
        Hangs,
    }

    /// How long a hanging model takes: far past every SLO used here.
    const HANG: Duration = Duration::from_millis(200);

    /// Answers 5, fails, or answers 5 only after [`HANG`] — switchable
    /// while serving.
    struct MoodyTransport(Arc<parking_lot::Mutex<Mood>>);

    impl BatchTransport for MoodyTransport {
        fn predict_batch(
            &self,
            inputs: &[Input],
        ) -> clipper_rpc::BoxFuture<Result<PredictReply, clipper_rpc::RpcError>> {
            let (mood, n) = (*self.0.lock(), inputs.len());
            Box::pin(async move {
                match mood {
                    Mood::Fails => return Err(clipper_rpc::RpcError::Remote("down".into())),
                    Mood::Hangs => tokio::time::sleep(HANG).await,
                    Mood::Answers => {}
                }
                Ok(PredictReply {
                    outputs: vec![WireOutput::Class(5); n],
                    queue_us: 0,
                    compute_us: 100,
                })
            })
        }
        fn id(&self) -> String {
            "moody".into()
        }
    }

    #[tokio::test]
    async fn straggler_is_substituted_not_waited_for() {
        // Every combination of per-model behaviour for one model and for
        // three, each against a cold fleet (no running defaults) and a
        // warmed one (every model has answered 5 before).
        const SLO: Duration = Duration::from_millis(40);
        const MOODS: [Mood; 3] = [Mood::Answers, Mood::Fails, Mood::Hangs];
        for n in [1usize, 3] {
            for case in 0..3usize.pow(n as u32) {
                let moods: Vec<Mood> = (0..n)
                    .map(|i| MOODS[case / 3usize.pow(i as u32) % 3])
                    .collect();
                for warmed in [false, true] {
                    let what = format!("{moods:?}, warmed: {warmed}");
                    let clipper = Clipper::builder().build();
                    let mut models = Vec::new();
                    let mut knobs = Vec::new();
                    for i in 0..n {
                        let model = ModelId::new(&format!("m{i}"), 1);
                        let knob = Arc::new(parking_lot::Mutex::new(Mood::Answers));
                        clipper.add_model(model.clone(), QueueConfig::default());
                        clipper
                            .add_replica(&model, Arc::new(MoodyTransport(knob.clone())))
                            .unwrap();
                        models.push(model);
                        knobs.push(knob);
                    }
                    clipper.register_app(
                        AppConfig::new("app", models)
                            .with_policy(PolicyKind::MajorityVote)
                            .with_slo(SLO)
                            .with_default_output(Output::Class(42)),
                    );
                    if warmed {
                        let p = clipper
                            .predict("app", None, Arc::new(vec![0.0]))
                            .await
                            .unwrap();
                        assert_eq!(p.models_used, n, "{what}");
                    }
                    for (knob, &mood) in knobs.iter().zip(&moods) {
                        *knob.lock() = mood;
                    }
                    let substitutions = clipper.inner.substitutions.get();
                    let defaults_used = clipper.inner.defaults_used.get();

                    let start = Instant::now();
                    let p = clipper
                        .predict("app", None, Arc::new(vec![1.0]))
                        .await
                        .unwrap();
                    let elapsed = start.elapsed();

                    let answered = moods.iter().filter(|&&m| m == Mood::Answers).count();
                    assert!(
                        elapsed < SLO + Duration::from_millis(50),
                        "must not wait for a straggler, took {elapsed:?}: {what}"
                    );
                    assert_eq!(p.models_used, answered, "{what}");
                    assert_eq!(p.models_used + p.models_missing, n, "{what}");
                    // Only a warmed model has a running default to
                    // substitute; the app default is the last resort.
                    let substituted = if warmed { n - answered } else { 0 };
                    assert_eq!(
                        clipper.inner.substitutions.get() - substitutions,
                        substituted as u64,
                        "{what}"
                    );
                    let fell_back = answered == 0 && !warmed;
                    assert_eq!(
                        clipper.inner.defaults_used.get() - defaults_used,
                        u64::from(fell_back),
                        "{what}"
                    );
                    if fell_back {
                        assert_eq!(p.output, Output::Class(42), "{what}");
                        assert_eq!(p.confidence, 0.0, "{what}");
                    } else {
                        assert_eq!(p.output, Output::Class(5), "{what}");
                    }
                }
            }
        }
    }

    #[tokio::test]
    async fn spent_budget_returns_what_is_ready() {
        // Answers already sitting in the cache count even when the
        // deadline has passed before the gather starts — for one model
        // and for an ensemble alike.
        for n in [1usize, 2, 4] {
            let (clipper, _) = setup(
                &vec![3; n],
                PolicyKind::MajorityVote,
                Duration::from_millis(100),
            );
            let input: Input = Arc::new(vec![1.0]);
            let warm = clipper.predict("app", None, input.clone()).await.unwrap();
            assert_eq!(warm.models_used, n);
            clipper
                .update_app(
                    "app",
                    AppPatch {
                        slo_ms: Some(0),
                        ..AppPatch::default()
                    },
                )
                .unwrap();
            let substitutions = clipper.inner.substitutions.get();
            let p = clipper.predict("app", None, input).await.unwrap();
            assert_eq!(p.models_used, n, "n = {n}");
            assert_eq!(p.models_missing, 0, "n = {n}");
            assert_eq!(clipper.inner.substitutions.get(), substitutions, "n = {n}");
        }
    }

    #[tokio::test]
    async fn dropping_a_predict_mid_gather_leaves_no_pending_entry() {
        let clipper = Clipper::builder().build();
        let models: Vec<ModelId> = (0..3).map(|i| ModelId::new(&format!("m{i}"), 1)).collect();
        for m in &models {
            clipper.add_model(m.clone(), QueueConfig::default());
            clipper
                .add_replica(m, const_transport(2, Some(Duration::from_millis(20))))
                .unwrap();
        }
        clipper.register_app(
            AppConfig::new("app", models.clone())
                .with_policy(PolicyKind::MajorityVote)
                .with_slo(Duration::from_millis(500)),
        );
        let cache = clipper.abstraction().cache().clone();
        let input: Input = Arc::new(vec![8.0]);

        // One poll dispatches every model; then the caller goes away.
        let mut cold = Box::pin(clipper.predict("app", None, input.clone()));
        std::future::poll_fn(|cx| {
            assert!(cold.as_mut().poll(cx).is_pending());
            Poll::Ready(())
        })
        .await;
        assert_eq!(cache.pending_len(), models.len());
        drop(cold);

        // The replicas answer into the cache all the same.
        let waited = Instant::now();
        while cache.pending_len() > 0 {
            assert!(waited.elapsed() < Duration::from_secs(5), "entry wedged");
            tokio::time::sleep(Duration::from_millis(5)).await;
        }
        let before = cache.stats();
        let p = clipper.predict("app", None, input).await.unwrap();
        let after = cache.stats();
        assert_eq!(p.models_used, models.len());
        assert_eq!(after.hits - before.hits, models.len() as u64);
        assert_eq!(after.misses, before.misses);
    }

    #[tokio::test]
    async fn all_models_missing_returns_default_output() {
        let clipper = Clipper::builder().build();
        let m = ModelId::new("slow", 1);
        clipper.add_model(m.clone(), QueueConfig::default());
        clipper
            .add_replica(&m, const_transport(1, Some(Duration::from_millis(200))))
            .unwrap();
        clipper.register_app(
            AppConfig::new("app", vec![m])
                .with_policy(PolicyKind::MajorityVote)
                .with_slo(Duration::from_millis(30))
                .with_default_output(Output::Class(42)),
        );
        let p = clipper
            .predict("app", None, Arc::new(vec![1.0]))
            .await
            .unwrap();
        assert_eq!(p.output, Output::Class(42));
        assert_eq!(p.confidence, 0.0);
        assert_eq!(p.models_used, 0);
    }

    #[tokio::test]
    async fn feedback_shifts_exp3_toward_the_accurate_model() {
        // Model 0 always answers 0 (wrong); model 1 answers 1 (right).
        let (clipper, models) = setup(
            &[0, 1],
            PolicyKind::Exp3 { eta: 0.5 },
            Duration::from_millis(100),
        );
        for i in 0..60 {
            let input: Input = Arc::new(vec![i as f32]);
            clipper
                .feedback("app", None, input, Feedback::class(1))
                .await
                .unwrap();
        }
        let state = clipper.policy_state("app", None).unwrap();
        let idx_good = index_of(&state, &models[1]).unwrap();
        let probs = state.probabilities();
        assert!(
            probs[idx_good] > 0.8,
            "good model should dominate: {probs:?}"
        );
    }

    /// A hung model: its batches never answer.
    struct NeverAnswers;

    impl BatchTransport for NeverAnswers {
        fn predict_batch(
            &self,
            _inputs: &[Input],
        ) -> clipper_rpc::BoxFuture<Result<PredictReply, clipper_rpc::RpcError>> {
            Box::pin(std::future::pending())
        }
        fn id(&self) -> String {
            "never".into()
        }
    }

    #[tokio::test]
    async fn feedback_on_a_hung_model_returns_by_the_slo() {
        const SLO: Duration = Duration::from_millis(20);
        let clipper = Clipper::builder().build();
        let models = vec![ModelId::new("hung", 1), ModelId::new("ok", 1)];
        clipper.add_model(models[0].clone(), QueueConfig::default());
        clipper
            .add_replica(&models[0], Arc::new(NeverAnswers))
            .unwrap();
        clipper.add_model(models[1].clone(), QueueConfig::default());
        clipper
            .add_replica(&models[1], const_transport(1, None))
            .unwrap();
        clipper.register_app(
            AppConfig::new("app", models)
                .with_policy(PolicyKind::Exp4 { eta: 0.2 })
                .with_slo(SLO),
        );
        let feedback = clipper.feedback("app", None, Arc::new(vec![1.0]), Feedback::class(1));
        let outcome = tokio::time::timeout(SLO + Duration::from_millis(50), feedback).await;
        assert!(
            matches!(outcome, Ok(Ok(()))),
            "feedback must return Ok by the SLO: {outcome:?}"
        );
    }

    #[tokio::test]
    async fn contexts_learn_independently() {
        let (clipper, models) = setup(
            &[0, 1],
            PolicyKind::Exp3 { eta: 0.5 },
            Duration::from_millis(100),
        );
        // User A's truth is 1 (model 1 right); user B's truth is 0.
        for i in 0..50 {
            clipper
                .feedback(
                    "app",
                    Some("userA"),
                    Arc::new(vec![i as f32]),
                    Feedback::class(1),
                )
                .await
                .unwrap();
            clipper
                .feedback(
                    "app",
                    Some("userB"),
                    Arc::new(vec![1000.0 + i as f32]),
                    Feedback::class(0),
                )
                .await
                .unwrap();
        }
        let sa = clipper.policy_state("app", Some("userA")).unwrap();
        let sb = clipper.policy_state("app", Some("userB")).unwrap();
        let good_a = sa.probabilities()[index_of(&sa, &models[1]).unwrap()];
        let good_b = sb.probabilities()[index_of(&sb, &models[0]).unwrap()];
        assert!(good_a > 0.7, "user A favors model 1: {good_a}");
        assert!(good_b > 0.7, "user B favors model 0: {good_b}");
    }

    #[tokio::test]
    async fn cached_predictions_accelerate_feedback() {
        let (clipper, _) = setup(
            &[1, 1],
            PolicyKind::Exp4 { eta: 0.2 },
            Duration::from_millis(100),
        );
        let input: Input = Arc::new(vec![5.0]);
        clipper.predict("app", None, input.clone()).await.unwrap();
        // Give the cache a moment to fill both models.
        tokio::time::sleep(Duration::from_millis(20)).await;
        let before = clipper.abstraction().cache().stats();
        clipper
            .feedback("app", None, input, Feedback::class(1))
            .await
            .unwrap();
        let after = clipper.abstraction().cache().stats();
        assert!(
            after.hits > before.hits,
            "feedback join should hit the cache: {} -> {}",
            before.hits,
            after.hits
        );
    }

    #[tokio::test]
    async fn empty_input_is_bad_input_not_internal() {
        let (clipper, _) = setup(
            &[1],
            PolicyKind::Static { model_index: 0 },
            Duration::from_millis(50),
        );
        let err = clipper
            .predict("app", None, Arc::new(vec![]))
            .await
            .unwrap_err();
        assert_eq!(err, PredictError::BadInput("empty feature vector".into()));
        assert_eq!(err.http_status(), 400);
        let err = clipper
            .feedback("app", None, Arc::new(vec![]), Feedback::class(1))
            .await
            .unwrap_err();
        assert!(matches!(err, PredictError::BadInput(_)));
    }

    #[tokio::test]
    async fn try_register_app_refuses_duplicates_and_unknown_models() {
        let (clipper, models) = setup(
            &[1],
            PolicyKind::Static { model_index: 0 },
            Duration::from_millis(50),
        );
        let dup = clipper.try_register_app(AppConfig::new("app", models.clone()));
        assert!(matches!(dup, Err(crate::api::ApiError::AppExists(_))));
        let ghost =
            clipper.try_register_app(AppConfig::new("other", vec![ModelId::new("missing", 1)]));
        assert!(matches!(ghost, Err(crate::api::ApiError::ModelUnknown(_))));
        clipper
            .try_register_app(AppConfig::new("other", models))
            .unwrap();
    }

    #[tokio::test]
    async fn update_app_applies_delta_live_and_persists() {
        let (clipper, models) = setup(
            &[3],
            PolicyKind::Static { model_index: 0 },
            Duration::from_millis(50),
        );
        let cfg = clipper
            .update_app(
                "app",
                AppPatch {
                    slo_ms: Some(75),
                    policy: Some(PolicyKind::MajorityVote),
                    ..AppPatch::default()
                },
            )
            .unwrap();
        assert_eq!(cfg.slo, Duration::from_millis(75));
        // The next predict runs under the amended config.
        let p = clipper
            .predict("app", None, Arc::new(vec![1.0]))
            .await
            .unwrap();
        assert_eq!(p.output, Output::Class(3));
        // Persisted record reflects the update.
        let bytes = clipper
            .store()
            .get(&crate::api::app_key("app"))
            .expect("app persisted");
        let rec: AppView = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(rec.slo_ms, 75);
        assert_eq!(rec.candidate_models, models);
        // Unknown app → typed error.
        assert!(matches!(
            clipper.update_app("ghost", AppPatch::default()),
            Err(crate::api::ApiError::AppUnknown(_))
        ));
        // An empty candidate set would brick the app — refused, and the
        // app keeps serving with its previous set.
        assert!(matches!(
            clipper.update_app(
                "app",
                AppPatch {
                    candidate_models: Some(vec![]),
                    ..AppPatch::default()
                }
            ),
            Err(crate::api::ApiError::BadRequest(_))
        ));
        let p = clipper
            .predict("app", None, Arc::new(vec![2.0]))
            .await
            .unwrap();
        assert_eq!(p.output, Output::Class(3));
    }

    #[tokio::test]
    async fn unregister_app_stops_routing_and_cleans_state() {
        let (clipper, _) = setup(
            &[1],
            PolicyKind::Static { model_index: 0 },
            Duration::from_millis(50),
        );
        clipper
            .feedback("app", Some("u1"), Arc::new(vec![1.0]), Feedback::class(1))
            .await
            .unwrap();
        clipper.unregister_app("app").unwrap();
        let err = clipper
            .predict("app", None, Arc::new(vec![1.0]))
            .await
            .unwrap_err();
        assert_eq!(err, PredictError::AppUnknown);
        assert!(clipper.store().get(&crate::api::app_key("app")).is_none());
        assert!(clipper.store().keys_with_prefix("selstate/app/").is_empty());
        assert!(matches!(
            clipper.unregister_app("app"),
            Err(crate::api::ApiError::AppUnknown(_))
        ));
    }

    #[tokio::test]
    async fn rollout_repoints_apps_and_rollback_revives_the_old_version() {
        let clipper = Clipper::builder().build();
        let v1 = ModelId::new("m", 1);
        let v2 = ModelId::new("m", 2);
        clipper.add_model(v1.clone(), QueueConfig::default());
        clipper.add_replica(&v1, const_transport(1, None)).unwrap();
        clipper.add_model(v2.clone(), QueueConfig::default());
        clipper.add_replica(&v2, const_transport(2, None)).unwrap();
        assert_eq!(clipper.current_version("m"), Some(1));
        clipper.register_app(
            AppConfig::new("app", vec![v1.clone()])
                .with_policy(PolicyKind::Static { model_index: 0 })
                .with_slo(Duration::from_millis(50)),
        );
        let p = clipper
            .predict("app", None, Arc::new(vec![0.0]))
            .await
            .unwrap();
        assert_eq!(p.output, Output::Class(1));

        let outcome = clipper.rollout_model("m", 2).await.unwrap();
        assert_eq!(outcome.from_version, 1);
        assert_eq!(outcome.to_version, 2);
        assert_eq!(outcome.repointed_apps, vec!["app".to_string()]);
        assert_eq!(outcome.drained_replicas, 1);
        assert_eq!(clipper.current_version("m"), Some(2));
        assert_eq!(
            clipper.app_config("app").unwrap().candidate_models,
            vec![v2.clone()]
        );
        let p = clipper
            .predict("app", None, Arc::new(vec![1.0]))
            .await
            .unwrap();
        assert_eq!(p.output, Output::Class(2), "served by the new version");
        assert_eq!(clipper.abstraction().cache().pending_len(), 0);

        // Rollback restores v1 — including its replicas, revived from the
        // transports the rollout parked.
        let back = clipper.rollback_model("m").await.unwrap();
        assert_eq!(back.to_version, 1);
        assert_eq!(clipper.current_version("m"), Some(1));
        let p = clipper
            .predict("app", None, Arc::new(vec![2.0]))
            .await
            .unwrap();
        assert_eq!(p.output, Output::Class(1), "old version serves again");
        assert_eq!(clipper.abstraction().cache().pending_len(), 0);
    }

    #[tokio::test]
    async fn rollout_guards_bad_targets() {
        let clipper = Clipper::builder().build();
        let v1 = ModelId::new("m", 1);
        clipper.add_model(v1.clone(), QueueConfig::default());
        clipper.add_replica(&v1, const_transport(1, None)).unwrap();
        assert!(matches!(
            clipper.rollout_model("ghost", 2).await,
            Err(crate::api::ApiError::ModelUnknown(_))
        ));
        assert!(matches!(
            clipper.rollout_model("m", 1).await,
            Err(crate::api::ApiError::AlreadyCurrent { .. })
        ));
        assert!(matches!(
            clipper.rollout_model("m", 9).await,
            Err(crate::api::ApiError::VersionUnknown { .. })
        ));
        // A registered but replica-less version is refused.
        clipper.add_model(ModelId::new("m", 2), QueueConfig::default());
        assert!(matches!(
            clipper.rollout_model("m", 2).await,
            Err(crate::api::ApiError::NoReplicasForVersion { .. })
        ));
        // Nothing rolled out yet → nothing to roll back.
        assert!(matches!(
            clipper.rollback_model("m").await,
            Err(crate::api::ApiError::NoRolloutHistory(_))
        ));
    }

    #[tokio::test]
    async fn rollout_keeps_learned_policy_weights_by_model_name() {
        // Exp3 learns that "good" beats "bad"; rolling "good" to v2 must
        // keep the learned weight rather than resetting the bandit.
        let clipper = Clipper::builder().build();
        let good1 = ModelId::new("good", 1);
        let bad = ModelId::new("bad", 1);
        clipper.add_model(good1.clone(), QueueConfig::default());
        clipper
            .add_replica(&good1, const_transport(1, None))
            .unwrap();
        clipper.add_model(bad.clone(), QueueConfig::default());
        clipper.add_replica(&bad, const_transport(0, None)).unwrap();
        clipper.register_app(
            AppConfig::new("app", vec![good1.clone(), bad.clone()])
                .with_policy(PolicyKind::Exp3 { eta: 0.5 })
                .with_slo(Duration::from_millis(100)),
        );
        for i in 0..40 {
            clipper
                .feedback("app", None, Arc::new(vec![i as f32]), Feedback::class(1))
                .await
                .unwrap();
        }
        let before = clipper.policy_state("app", None).unwrap();
        let w_good = before.weights[index_of(&before, &good1).unwrap()];

        let good2 = ModelId::new("good", 2);
        clipper.add_model(good2.clone(), QueueConfig::default());
        clipper
            .add_replica(&good2, const_transport(1, None))
            .unwrap();
        clipper.rollout_model("good", 2).await.unwrap();

        let after = clipper.policy_state("app", None).unwrap();
        let idx = index_of(&after, &good2).expect("state remapped to v2");
        assert_eq!(
            after.weights[idx], w_good,
            "learned weight carries across the version bump"
        );
        assert_eq!(after.total, before.total);
    }

    #[tokio::test]
    async fn registry_rehydrates_from_the_statestore() {
        let store = Arc::new(clipper_statestore::StateStore::new());
        {
            let first = Clipper::builder().statestore(store.clone()).build();
            let v1 = ModelId::new("m", 1);
            let v2 = ModelId::new("m", 2);
            first.add_model(v1.clone(), QueueConfig::default());
            first.add_replica(&v1, const_transport(1, None)).unwrap();
            first.add_model(v2.clone(), QueueConfig::default());
            first.add_replica(&v2, const_transport(2, None)).unwrap();
            first.register_app(
                AppConfig::new("app", vec![v1])
                    .with_policy(PolicyKind::Static { model_index: 0 })
                    .with_slo(Duration::from_millis(42)),
            );
            first.rollout_model("m", 2).await.unwrap();
        }
        // A fresh frontend instance over the same store restores the
        // registry: versions, current pointer, history, app config.
        let second = Clipper::builder().statestore(store).build();
        let report = second.sync_config().await;
        assert_eq!((report.adopted_models, report.adopted_apps), (1, 1));
        assert!(report.skipped.is_empty());
        assert_eq!(second.current_version("m"), Some(2));
        let view = second.model_view("m").unwrap();
        assert_eq!(view.versions, vec![1, 2]);
        assert_eq!(view.history, vec![1]);
        let cfg = second.app_config("app").unwrap();
        assert_eq!(cfg.candidate_models, vec![ModelId::new("m", 2)]);
        assert_eq!(cfg.slo, Duration::from_millis(42));
        // Replicas re-attach and serving resumes.
        second
            .add_replica(&ModelId::new("m", 2), const_transport(2, None))
            .unwrap();
        let p = second
            .predict("app", None, Arc::new(vec![5.0]))
            .await
            .unwrap();
        assert_eq!(p.output, Output::Class(2));
        // Rehydration is idempotent.
        let again = second.sync_config().await;
        assert_eq!((again.adopted_models, again.adopted_apps), (0, 0));
    }

    #[tokio::test]
    async fn rehydrate_restores_persisted_batch_knobs() {
        // The PR-4 gap: rolled-out models used to rehydrate with default
        // batching, silently discarding their tuned knobs.
        let store = Arc::new(clipper_statestore::StateStore::new());
        let tuned = QueueConfig {
            strategy: crate::BatchStrategy::Fixed { size: 7 },
            slo: Duration::from_micros(900),
            batch_wait_timeout: Duration::from_millis(3),
            queue_capacity: 123,
            max_batch_cap: 64,
            pipeline_depth: 2,
            drain_deadline: Duration::from_secs(9),
            slo_admission: true,
            retry_max_attempts: 1,
            hedge: Some(HedgeConfig {
                delay_factor: 2.0,
                min_delay: Duration::from_micros(700),
            }),
            breaker: BreakerConfig {
                cooldown: Duration::from_millis(10),
            },
            scheduler: SchedulerPolicy::RoundRobin,
        };
        {
            let first = Clipper::builder().statestore(store.clone()).build();
            let v1 = ModelId::new("m", 1);
            let v2 = ModelId::new("m", 2);
            first.add_model(v1.clone(), QueueConfig::default());
            first.add_replica(&v1, const_transport(1, None)).unwrap();
            first.add_model(v2.clone(), tuned.clone());
            first.add_replica(&v2, const_transport(2, None)).unwrap();
            // Roll v2 current so v1 parks — parked versions must persist
            // their knobs too (from the parking lot, not the live MAL).
            first.rollout_model("m", 2).await.unwrap();
        }
        let second = Clipper::builder().statestore(store).build();
        let report = second.sync_config().await;
        assert_eq!(report.adopted_models, 1);
        let restored = second.abstraction().model_config(&ModelId::new("m", 2));
        assert_eq!(restored, Some(tuned));
        // The parked old version's knobs survived as well (defaults).
        let v1_cfg = second.abstraction().model_config(&ModelId::new("m", 1));
        assert_eq!(v1_cfg, Some(QueueConfig::default()));
    }

    /// A model version's configuration over every field: each batching
    /// strategy, whole-µs durations, hedging on and off, a breaker
    /// cooldown and both schedulers.
    fn arb_queue_config() -> impl Strategy<Value = QueueConfig> {
        let micros = |max: u64| (0..max).prop_map(Duration::from_micros);
        let strategy = prop_oneof![
            (0.5f64..8.0, 0.1f64..1.0)
                .prop_map(|(step, backoff)| BatchStrategy::Aimd { step, backoff }),
            Just(BatchStrategy::QuantileRegression),
            (1usize..256).prop_map(|size| BatchStrategy::Fixed { size }),
            (0.0f64..0.5).prop_map(|headroom| BatchStrategy::Autotune { headroom }),
        ];
        let hedge = prop_oneof![
            Just(None),
            (1.0f64..5.0, micros(10_000)).prop_map(|(delay_factor, min_delay)| {
                Some(HedgeConfig {
                    delay_factor,
                    min_delay,
                })
            }),
        ];
        let scheduler = prop_oneof![
            Just(SchedulerPolicy::PowerOfTwoChoices),
            Just(SchedulerPolicy::RoundRobin),
        ];
        (
            (strategy, micros(100_000), micros(5_000), 1usize..10_000),
            (1usize..5_000, 1usize..4, micros(10_000_000), any::<bool>()),
            (1u32..5, hedge, micros(2_000_000), scheduler),
        )
            .prop_map(
                |(
                    (strategy, slo, batch_wait_timeout, queue_capacity),
                    (max_batch_cap, pipeline_depth, drain_deadline, slo_admission),
                    (retry_max_attempts, hedge, cooldown, scheduler),
                )| QueueConfig {
                    strategy,
                    slo,
                    batch_wait_timeout,
                    queue_capacity,
                    max_batch_cap,
                    pipeline_depth,
                    drain_deadline,
                    slo_admission,
                    retry_max_attempts,
                    hedge,
                    breaker: BreakerConfig { cooldown },
                    scheduler,
                },
            )
    }

    /// An app registration that can serve: a non-empty candidate set, a
    /// learning rate above 0, any SLO down to a few µs.
    fn arb_app_config() -> impl Strategy<Value = AppConfig> {
        let model = ("[a-z]{1,6}", 0u32..5).prop_map(|(name, v)| ModelId::new(&name, v));
        let policy = prop_oneof![
            (0.01f64..3.0).prop_map(|eta| PolicyKind::Exp3 { eta }),
            (0.01f64..3.0).prop_map(|eta| PolicyKind::Exp4 { eta }),
            Just(PolicyKind::MajorityVote),
            (0usize..4).prop_map(|model_index| PolicyKind::Static { model_index }),
        ];
        let default_output = prop_oneof![
            any::<u32>().prop_map(|label| JsonOutput::Class { label }),
            proptest::collection::vec(-10.0f32..10.0, 0..4)
                .prop_map(|scores| JsonOutput::Scores { scores }),
            proptest::collection::vec(any::<u32>(), 0..4)
                .prop_map(|labels| JsonOutput::Labels { labels }),
        ];
        (
            ("[a-z]{1,12}", proptest::collection::vec(model, 1..4)),
            policy,
            (1u64..100_000).prop_map(Duration::from_micros),
            default_output,
            any::<u64>(),
        )
            .prop_map(|((name, models), policy, slo, out, seed)| {
                AppConfig::new(&name, models)
                    .with_policy(policy)
                    .with_slo(slo)
                    .with_default_output(out.into())
                    .with_seed(seed)
            })
    }

    proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Whatever a model version is registered with, a fresh frontend's
        /// `sync_config()` restores it, for the live version and for the
        /// parked one a rollout left behind.
        #[test]
        fn sync_config_restores_every_model_knob(
            v1 in arb_queue_config(),
            v2 in arb_queue_config(),
        ) {
            let (id1, id2) = (ModelId::new("m", 1), ModelId::new("m", 2));
            let restored = tokio::runtime::Runtime::new().unwrap().block_on(async {
                let store = Arc::new(clipper_statestore::StateStore::new());
                let first = Clipper::builder().statestore(store.clone()).build();
                first.add_model(id1.clone(), v1.clone());
                first.add_model(id2.clone(), v2.clone());
                first.add_replica(&id2, const_transport(2, None)).unwrap();
                first.rollout_model("m", 2).await.unwrap();
                let second = Clipper::builder().statestore(store).build();
                second.sync_config().await;
                let mal = second.abstraction();
                (mal.model_config(&id1), mal.model_config(&id2))
            });
            prop_assert_eq!(restored, (Some(v1), Some(v2)));
        }

        /// The app-side twin: a fresh frontend restores every field of a
        /// registration, a sub-millisecond SLO included.
        #[test]
        fn sync_config_restores_every_app_field(cfg in arb_app_config()) {
            let restored = tokio::runtime::Runtime::new().unwrap().block_on(async {
                let store = Arc::new(clipper_statestore::StateStore::new());
                Clipper::builder()
                    .statestore(store.clone())
                    .build()
                    .register_app(cfg.clone());
                let second = Clipper::builder().statestore(store).build();
                second.sync_config().await;
                second.app_config(&cfg.name)
            });
            prop_assert_eq!(restored, Some(cfg));
        }
    }

    /// A replica attached with `add_replica` after a restart starts cold,
    /// even when the persisted model record still lists a learned curve
    /// for its attach position: that curve may have been another
    /// container's. The record itself still adopts.
    #[tokio::test]
    async fn rehydrated_replica_starts_cold_whatever_the_record_lists() {
        let store = Arc::new(clipper_statestore::StateStore::new());
        store.set(
            &api::model_key("m"),
            br#"{"name":"m","current":1,"versions":[1],"history":[],"batch":[{"version":1,"knobs":{"strategy":{"kind":"autotune","headroom":0.1},"slo_us":20000,"batch_wait_timeout_us":0,"queue_capacity":8192,"max_batch_cap":4096,"pipeline_depth":1,"drain_deadline_us":5000000,"latency_prior":{"alpha_us":90.0,"beta_us":45.0},"slo_admission":false,"retry_max_attempts":3,"hedge":null},"replicas":[{"queue_id":"m:v1:0","alpha_us":100.0,"beta_us":50.0,"b_max":350,"samples":160}]}]}"#.to_vec(),
        );
        let clipper = Clipper::builder().statestore(store).build();
        assert_eq!(clipper.sync_config().await.adopted_models, 1);
        let id = ModelId::new("m", 1);
        assert_eq!(
            clipper.abstraction().model_config(&id).unwrap().strategy,
            BatchStrategy::Autotune { headroom: 0.1 }
        );
        let qid = clipper.add_replica(&id, const_transport(1, None)).unwrap();
        assert_eq!(qid, "m:v1:0");
        let model = clipper
            .abstraction()
            .replica_latency_model(&id, &qid)
            .unwrap();
        assert!(!model.is_established(), "no curve from the model record");
    }

    /// Two frontends over one store: A owns the initial registration, B
    /// rehydrates from it and attaches its own replicas (the soak's
    /// fan-in construction).
    async fn two_frontends() -> (Clipper, Clipper, Arc<clipper_statestore::StateStore>) {
        let store = Arc::new(clipper_statestore::StateStore::new());
        let a = Clipper::builder().statestore(store.clone()).build();
        let v1 = ModelId::new("m", 1);
        let v2 = ModelId::new("m", 2);
        a.add_model(v1.clone(), QueueConfig::default());
        a.add_replica(&v1, const_transport(1, None)).unwrap();
        a.add_model(v2.clone(), QueueConfig::default());
        a.add_replica(&v2, const_transport(2, None)).unwrap();
        a.register_app(
            AppConfig::new("app", vec![v1.clone()])
                .with_policy(PolicyKind::Static { model_index: 0 })
                .with_slo(Duration::from_millis(50)),
        );
        let b = Clipper::builder().statestore(store.clone()).build();
        b.sync_config().await;
        b.add_replica(&v1, const_transport(1, None)).unwrap();
        b.add_replica(&v2, const_transport(2, None)).unwrap();
        (a, b, store)
    }

    #[tokio::test]
    async fn sync_config_adopts_a_remote_rollout_and_drains_locally() {
        let (a, b, _store) = two_frontends().await;
        a.rollout_model("m", 2).await.unwrap();
        // B is stale: still serving v1.
        assert_eq!(b.current_version("m"), Some(1));
        let p = b.predict("app", None, Arc::new(vec![1.0])).await.unwrap();
        assert_eq!(p.output, Output::Class(1));

        let report = b.sync_config().await;
        assert_eq!(report.repointed, 1);
        assert!(report.pending.is_empty(), "{:?}", report.pending);
        assert_eq!(b.current_version("m"), Some(2));
        assert_eq!(
            b.app_config("app").unwrap().candidate_models,
            vec![ModelId::new("m", 2)]
        );
        // B's local v1 replicas drained and parked, exactly as if B had
        // initiated the rollout itself.
        assert!(!b.abstraction().has_model(&ModelId::new("m", 1)));
        let p = b.predict("app", None, Arc::new(vec![2.0])).await.unwrap();
        assert_eq!(p.output, Output::Class(2));
        assert_eq!(b.abstraction().cache().pending_len(), 0);

        // Converged: the next pass is a no-op.
        assert!(b.sync_config().await.is_noop());

        // A remote rollback converges the same way (B revives its parked
        // v1 replicas).
        a.rollback_model("m").await.unwrap();
        let report = b.sync_config().await;
        assert_eq!(report.repointed, 1);
        assert_eq!(b.current_version("m"), Some(1));
        let p = b.predict("app", None, Arc::new(vec![3.0])).await.unwrap();
        assert_eq!(p.output, Output::Class(1));
    }

    #[tokio::test]
    async fn sync_config_defers_pointer_moves_without_local_replicas() {
        let store = Arc::new(clipper_statestore::StateStore::new());
        let a = Clipper::builder().statestore(store.clone()).build();
        let v1 = ModelId::new("m", 1);
        let v2 = ModelId::new("m", 2);
        a.add_model(v1.clone(), QueueConfig::default());
        a.add_replica(&v1, const_transport(1, None)).unwrap();
        let b = Clipper::builder().statestore(store.clone()).build();
        b.sync_config().await;
        b.add_replica(&v1, const_transport(1, None)).unwrap();
        // A registers v2 and rolls it out; B never attached v2 replicas.
        a.add_model(v2.clone(), QueueConfig::default());
        a.add_replica(&v2, const_transport(2, None)).unwrap();
        a.rollout_model("m", 2).await.unwrap();

        let report = b.sync_config().await;
        assert_eq!(report.adopted_versions, 1, "v2 adopted into the directory");
        assert_eq!(report.repointed, 0);
        assert_eq!(report.pending, vec!["m:v2".to_string()]);
        assert_eq!(b.current_version("m"), Some(1), "move deferred");

        // Replicas attach; the next pass applies the deferred move.
        b.add_replica(&v2, const_transport(2, None)).unwrap();
        let report = b.sync_config().await;
        assert_eq!(report.repointed, 1);
        assert!(report.pending.is_empty());
        assert_eq!(b.current_version("m"), Some(2));
    }

    #[tokio::test]
    async fn sync_config_adopts_updates_and_removes_apps() {
        let (a, b, store) = two_frontends().await;
        // A registers a new app, updates the shared one, then B syncs.
        a.register_app(
            AppConfig::new("fresh", vec![ModelId::new("m", 1)])
                .with_policy(PolicyKind::Static { model_index: 0 })
                .with_slo(Duration::from_millis(30)),
        );
        a.update_app(
            "app",
            AppPatch {
                slo_ms: Some(99),
                ..AppPatch::default()
            },
        )
        .unwrap();
        let report = b.sync_config().await;
        assert_eq!(report.adopted_apps, 1);
        assert_eq!(report.updated_apps, 1);
        assert_eq!(
            b.app_config("fresh").unwrap().slo,
            Duration::from_millis(30)
        );
        assert_eq!(b.app_config("app").unwrap().slo, Duration::from_millis(99));

        // A deletes it; B's next pass drops it locally. A corrupt record
        // is skipped, never treated as a deletion.
        a.unregister_app("fresh").unwrap();
        store.set(&crate::api::app_key("app"), b"not json".to_vec());
        let report = b.sync_config().await;
        assert_eq!(report.removed_apps, 1);
        assert_eq!(report.skipped, vec![crate::api::app_key("app")]);
        assert!(b.app_config("fresh").is_none());
        assert!(b.app_config("app").is_some(), "corrupt ≠ deleted");
    }

    #[tokio::test]
    async fn suspect_queue_ids_is_empty_for_healthy_replicas() {
        let (clipper, models) = setup(
            &[1],
            PolicyKind::Static { model_index: 0 },
            Duration::from_millis(50),
        );
        clipper
            .predict("app", None, Arc::new(vec![1.0]))
            .await
            .unwrap();
        assert!(clipper
            .abstraction()
            .suspect_queue_ids(&models[0])
            .is_empty());
        assert!(clipper.drain_suspect_replicas(&models[0]).await.is_empty());
    }

    #[tokio::test]
    async fn rehydrate_skips_corrupt_records_and_restores_the_rest() {
        let store = Arc::new(clipper_statestore::StateStore::new());
        {
            let first = Clipper::builder().statestore(store.clone()).build();
            let v1 = ModelId::new("good", 1);
            first.add_model(v1.clone(), QueueConfig::default());
            first.register_app(AppConfig::new("app", vec![v1]));
        }
        store.set(&crate::api::model_key("bad"), b"not json".to_vec());
        let second = Clipper::builder().statestore(store).build();
        let report = second.sync_config().await;
        assert_eq!((report.adopted_models, report.adopted_apps), (1, 1));
        assert_eq!(report.skipped, vec![crate::api::model_key("bad")]);
        assert!(second.app_config("app").is_some());
    }

    #[tokio::test]
    async fn sync_config_skips_an_app_record_with_a_retired_policy() {
        // ε-greedy, UCB1 and Thompson sampling are no longer policies: a
        // record naming one is reported and skipped, and the same pass
        // still adopts everything else.
        let store = Arc::new(clipper_statestore::StateStore::new());
        {
            let first = Clipper::builder().statestore(store.clone()).build();
            let v1 = ModelId::new("good", 1);
            first.add_model(v1.clone(), QueueConfig::default());
            first.register_app(AppConfig::new("app", vec![v1]));
        }
        let live = String::from_utf8(store.get(&crate::api::app_key("app")).unwrap()).unwrap();
        let retired = live
            .replace(r#""name":"app""#, r#""name":"old""#)
            .replace(r#"{"Exp3":{"eta":0.1}}"#, r#""Thompson""#);
        assert!(retired.contains(r#""policy":"Thompson""#), "{retired}");
        store.set(&crate::api::app_key("old"), retired.into_bytes());

        let second = Clipper::builder().statestore(store).build();
        let report = second.sync_config().await;
        assert_eq!((report.adopted_models, report.adopted_apps), (1, 1));
        assert_eq!(report.skipped, vec![crate::api::app_key("old")]);
        assert!(second.app_config("app").is_some());
        assert!(second.app_config("old").is_none());
    }

    #[tokio::test]
    async fn sync_config_skips_an_app_record_whose_learning_rate_cannot_serve() {
        let store = Arc::new(clipper_statestore::StateStore::new());
        {
            let first = Clipper::builder().statestore(store.clone()).build();
            let v1 = ModelId::new("good", 1);
            first.add_model(v1.clone(), QueueConfig::default());
            first.register_app(AppConfig::new("app", vec![v1]));
        }
        let live = String::from_utf8(store.get(&crate::api::app_key("app")).unwrap()).unwrap();
        let bad = live
            .replace(r#""name":"app""#, r#""name":"bad""#)
            .replace(r#"{"Exp3":{"eta":0.1}}"#, r#"{"Exp3":{"eta":-1.0}}"#);
        assert!(bad.contains(r#""eta":-1.0"#), "{bad}");
        store.set(&crate::api::app_key("bad"), bad.into_bytes());

        let second = Clipper::builder().statestore(store).build();
        let report = second.sync_config().await;
        assert_eq!((report.adopted_models, report.adopted_apps), (1, 1));
        assert_eq!(report.skipped, vec![crate::api::app_key("bad")]);
        assert!(second.app_config("bad").is_none());
    }

    #[test]
    fn register_app_refuses_a_learning_rate_not_above_zero_before_persisting() {
        let clipper = Clipper::builder().build();
        let m = ModelId::new("m", 1);
        clipper.add_model(m.clone(), QueueConfig::default());
        for eta in [0.0, -1.0, f64::INFINITY] {
            let cfg = AppConfig::new("bad", vec![m.clone()]).with_policy(PolicyKind::Exp4 { eta });
            let registered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                clipper.register_app(cfg)
            }));
            assert!(registered.is_err(), "eta {eta} must be refused");
            assert!(clipper.store().get(&crate::api::app_key("bad")).is_none());
        }
    }

    #[tokio::test]
    async fn selection_state_with_legacy_counts_still_serves() {
        // Older builds stored a per-model `counts` vector beside the
        // weights; such a state decodes with the field skipped, keeps its
        // learned weights, and is re-encoded without it.
        let store = Arc::new(clipper_statestore::StateStore::new());
        let clipper = Clipper::builder().statestore(store.clone()).build();
        let models = [ModelId::new("m0", 1), ModelId::new("m1", 1)];
        for (id, label) in models.iter().zip([4, 7]) {
            clipper.add_model(id.clone(), QueueConfig::default());
            clipper
                .add_replica(id, const_transport(label, None))
                .unwrap();
        }
        clipper.register_app(
            AppConfig::new("app", models.to_vec())
                .with_policy(PolicyKind::Exp4 { eta: 0.1 })
                .with_slo(Duration::from_millis(50)),
        );
        let key = "selstate/app/user";
        store.set(
            key,
            br#"{"models":[{"name":"m0","version":1},{"name":"m1","version":1}],"weights":[1.9,0.1],"counts":[12,3],"total":15,"seed":5}"#.to_vec(),
        );
        let p = clipper
            .predict("app", Some("user"), Arc::new(vec![1.0]))
            .await
            .unwrap();
        assert_eq!(
            p.output,
            Output::Class(4),
            "the heavier model wins the vote"
        );
        let state = clipper.policy_state("app", Some("user")).unwrap();
        assert_eq!(state.weights, vec![1.9, 0.1]);
        assert_eq!((state.total, state.seed), (15, 5));

        clipper
            .feedback("app", Some("user"), Arc::new(vec![1.0]), Feedback::class(4))
            .await
            .unwrap();
        assert_eq!(clipper.policy_state("app", Some("user")).unwrap().total, 16);
        let stored = String::from_utf8(store.get(key).unwrap()).unwrap();
        assert!(!stored.contains("counts"), "{stored}");
    }

    #[tokio::test]
    async fn rollout_leaves_ab_pinned_apps_and_their_old_version_alone() {
        // An app deliberately comparing v1 vs v2 must keep both pins, and
        // the old version must stay live while it is still referenced.
        let clipper = Clipper::builder().build();
        let v1 = ModelId::new("m", 1);
        let v2 = ModelId::new("m", 2);
        clipper.add_model(v1.clone(), QueueConfig::default());
        clipper.add_replica(&v1, const_transport(1, None)).unwrap();
        clipper.add_model(v2.clone(), QueueConfig::default());
        clipper.add_replica(&v2, const_transport(2, None)).unwrap();
        clipper.register_app(
            AppConfig::new("ab", vec![v1.clone(), v2.clone()])
                .with_policy(PolicyKind::MajorityVote)
                .with_slo(Duration::from_millis(50)),
        );
        clipper.register_app(
            AppConfig::new("plain", vec![v1.clone()])
                .with_policy(PolicyKind::Static { model_index: 0 })
                .with_slo(Duration::from_millis(50)),
        );
        let outcome = clipper.rollout_model("m", 2).await.unwrap();
        assert_eq!(outcome.repointed_apps, vec!["plain".to_string()]);
        assert_eq!(
            outcome.drained_replicas, 0,
            "v1 is still pinned by the A/B app and must not drain"
        );
        // The A/B app keeps its explicit pins and both versions serve.
        assert_eq!(
            clipper.app_config("ab").unwrap().candidate_models,
            vec![v1.clone(), v2.clone()]
        );
        assert!(clipper.abstraction().has_model(&v1));
        let p = clipper
            .predict("ab", None, Arc::new(vec![1.0]))
            .await
            .unwrap();
        assert_eq!(p.models_used, 2, "both pinned versions answered");
        // The repointed app serves from v2.
        let p = clipper
            .predict("plain", None, Arc::new(vec![2.0]))
            .await
            .unwrap();
        assert_eq!(p.output, Output::Class(2));
    }

    #[tokio::test]
    async fn batching_strategy_flows_to_queues() {
        let clipper = Clipper::builder().build();
        let m = ModelId::new("m", 1);
        clipper.add_model(
            m.clone(),
            QueueConfig {
                strategy: BatchStrategy::Fixed { size: 1 },
                ..Default::default()
            },
        );
        clipper.add_replica(&m, const_transport(1, None)).unwrap();
        clipper.register_app(AppConfig::new("app", vec![m]).with_slo(Duration::from_millis(50)));
        for i in 0..10 {
            clipper
                .predict("app", None, Arc::new(vec![i as f32]))
                .await
                .unwrap();
        }
        // Fixed { size: 1 } → every dispatched batch has size 1.
        let snap = clipper.registry().snapshot();
        let key = snap
            .values
            .keys()
            .find(|k| k.contains("batch_size"))
            .cloned()
            .expect("batch size histogram registered");
        if let clipper_metrics::MetricValue::Histogram { max, .. } = snap.values[&key] {
            assert_eq!(max, 1);
        } else {
            panic!("expected histogram");
        }
    }
}
