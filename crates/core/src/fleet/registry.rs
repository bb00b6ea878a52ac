//! Fleet membership: self-registration, persistence, and launchers.
//!
//! The registry is the single source of truth for *who is in the fleet*:
//! every container that announced itself (over HTTP or by dialing the RPC
//! data plane) has a `Member` entry keyed by container name, and a
//! mirrored `config/replica/{name}` record in the statestore so a
//! restarted or sibling frontend re-adopts the same membership view.
//! Expired members stay behind as tombstones: a heartbeat arriving after
//! expiry gets an unambiguous 410 (re-register, don't resume), and the
//! tombstone carries the learned latency curve harvested at expiry — the
//! one warm start a replica has, handed back only when the same container
//! returns.
//!
//! A member records when it last beat and whether it expired; nothing
//! else about its health. The rest is its queue's one health answer,
//! which [`ReplicaView::health`] reads.

use crate::abstraction::ModelAbstractionLayer;
use crate::api::{
    self, ApiError, RegisterOutcome, ReplicaRecord, ReplicaSpec, ReplicaView,
    REPLICA_STATE_EXPIRED, REPLICA_STATE_REGISTERED,
};
use crate::batching::{Health, LatencyPrior};
use crate::types::ModelId;
use clipper_metrics::{Counter, Registry};
use clipper_rpc::server::{ContainerInfo, RpcServer, TcpContainerHandle};
use clipper_rpc::transport::BatchTransport;
use clipper_statestore::StateStore;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use tokio::time::Instant;

/// Timing knobs for the fleet control loop.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// The heartbeat interval containers are told to report on.
    pub heartbeat_interval: Duration,
    /// Missed intervals before a member's queue is flagged
    /// heartbeat-silent (the member reads `"suspect"`).
    pub suspect_after: u32,
    /// Missed intervals before a member expires and is drained.
    pub expire_after: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            heartbeat_interval: Duration::from_millis(500),
            suspect_after: 2,
            expire_after: 4,
        }
    }
}

/// Pluggable replica factory the autoscaler (and registration path)
/// drives. A launcher serves one capability string; a replica whose
/// `capabilities` list names it can be launched/attached by it.
pub trait ReplicaLauncher: Send + Sync {
    /// The capability this launcher serves (e.g. `"local:noop"`).
    fn capability(&self) -> &str;
    /// Launch a replica for `record`, returning its transport for the
    /// frontend to attach.
    fn launch(&self, record: &ReplicaRecord) -> Result<Arc<dyn BatchTransport>, String>;
}

/// In-process launcher: a transport-factory closure under a capability
/// name. The workhorse for tests, benches, and single-process
/// deployments.
pub struct FnLauncher {
    capability: String,
    #[allow(clippy::type_complexity)]
    factory: Box<dyn Fn(&ReplicaRecord) -> Arc<dyn BatchTransport> + Send + Sync>,
}

impl FnLauncher {
    /// Wrap `factory` under `capability`.
    pub fn new<F>(capability: &str, factory: F) -> Self
    where
        F: Fn(&ReplicaRecord) -> Arc<dyn BatchTransport> + Send + Sync + 'static,
    {
        FnLauncher {
            capability: capability.to_string(),
            factory: Box::new(factory),
        }
    }
}

impl ReplicaLauncher for FnLauncher {
    fn capability(&self) -> &str {
        &self.capability
    }
    fn launch(&self, record: &ReplicaRecord) -> Result<Arc<dyn BatchTransport>, String> {
        Ok((self.factory)(record))
    }
}

/// Timeline entry for observability and bench assertions.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FleetEvent {
    /// A container registered (first time or after deregistration).
    Registered {
        /// Container name.
        container: String,
        /// Whether a persisted tune warm-started the admission.
        warm_start: bool,
    },
    /// An expired container re-registered.
    Readmitted {
        /// Container name.
        container: String,
        /// Whether a persisted tune warm-started the re-admission.
        warm_start: bool,
    },
    /// Heartbeats went late: the member's queue flag went from clear to
    /// heartbeat-silent, and p2c now deprioritizes it.
    Suspected {
        /// Container name.
        container: String,
        /// Silence observed when the transition fired, ms.
        silent_ms: u64,
    },
    /// Heartbeats stopped; the member was drained and tombstoned.
    Expired {
        /// Container name.
        container: String,
        /// Silence observed when the transition fired, ms — the
        /// detection latency the bench gates on.
        silent_ms: u64,
        /// Whether this path won the (idempotent) drain race.
        drained: bool,
    },
    /// The autoscaler launched a managed replica.
    ScaledUp {
        /// Container name of the launched replica.
        container: String,
    },
    /// The autoscaler drained and removed a managed replica.
    ScaledDown {
        /// Container name of the removed replica.
        container: String,
    },
}

/// One fleet member (keyed by container name in [`Fleet`]).
pub(crate) struct Member {
    pub(crate) model: ModelId,
    pub(crate) capabilities: Vec<String>,
    pub(crate) queue_id: Option<String>,
    /// Set once the monitor expired the member: it is a tombstone until
    /// the container re-registers.
    pub(crate) expired: bool,
    pub(crate) last_beat: Instant,
    /// Dialed in over the RPC data plane: the connection's own passive
    /// probing counts as a heartbeat (its queue reads anything but
    /// `Health::Down`), so an RPC container doesn't need a parallel HTTP
    /// beat loop.
    pub(crate) rpc: bool,
    /// Started by the autoscaler (eligible for scale-down reaping).
    pub(crate) managed: bool,
    /// Monotonic admission order; scale-down reaps the newest.
    pub(crate) joined_seq: u64,
}

/// How [`Fleet::admit`] attaches a replica.
enum Via {
    /// `POST /api/v1/replicas` (or the autoscaler): a launcher matching
    /// the capabilities attaches it in-process, and a failed attach fails
    /// the registration.
    Register { managed: bool },
    /// A persisted record: as `Register`, but a failed attach admits the
    /// member unattached (its heartbeats or the monitor's expiry settle
    /// it).
    Adopt,
    /// A container that dialed the RPC data plane, over its connection.
    Rpc(Arc<dyn BatchTransport>),
}

/// What one [`Fleet::admit`] produced.
struct Admitted {
    /// The registration, with the warm start it was admitted with.
    record: ReplicaRecord,
    queue_id: Option<String>,
    /// Whether the admission replaced an expired tombstone.
    readmitted: bool,
}

pub(crate) struct FleetInner {
    pub(crate) mal: Arc<ModelAbstractionLayer>,
    pub(crate) store: Arc<StateStore>,
    pub(crate) cfg: FleetConfig,
    pub(crate) members: Mutex<HashMap<String, Member>>,
    launchers: Mutex<Vec<Arc<dyn ReplicaLauncher>>>,
    rpc_addr: Mutex<Option<SocketAddr>>,
    events: Mutex<Vec<FleetEvent>>,
    next_seq: Mutex<u64>,
    /// Queues this fleet won the drain race for (expiry, deregister,
    /// scale-down). `remove_replica` is exclusive under the replica
    /// write lock, so a concurrent `drain_suspect_replicas` on the same
    /// queue id can never double-count here.
    pub(crate) drains: Counter,
    pub(crate) registrations: Counter,
    pub(crate) expiries: Counter,
}

/// The fleet manager: membership registry + health monitor + autoscaler
/// hooks over one [`ModelAbstractionLayer`]. Cheap to clone (shared
/// inner).
#[derive(Clone)]
pub struct Fleet {
    pub(crate) inner: Arc<FleetInner>,
}

impl Fleet {
    /// Build a fleet manager over `mal`, persisting membership to
    /// `store` and reporting metrics into `registry`.
    pub fn new(
        mal: Arc<ModelAbstractionLayer>,
        store: Arc<StateStore>,
        registry: &Registry,
        cfg: FleetConfig,
    ) -> Fleet {
        Fleet {
            inner: Arc::new(FleetInner {
                mal,
                store,
                cfg,
                members: Mutex::new(HashMap::new()),
                launchers: Mutex::new(Vec::new()),
                rpc_addr: Mutex::new(None),
                events: Mutex::new(Vec::new()),
                next_seq: Mutex::new(0),
                drains: registry.counter("fleet/drains"),
                registrations: registry.counter("fleet/registrations"),
                expiries: registry.counter("fleet/expiries"),
            }),
        }
    }

    /// The fleet's timing configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.inner.cfg
    }

    /// Register a launcher; replicas whose capability list names it can
    /// be attached in-process (registration) or launched (autoscaler).
    pub fn add_launcher(&self, launcher: Arc<dyn ReplicaLauncher>) {
        self.inner.launchers.lock().push(launcher);
    }

    /// The RPC data-plane address handed to registrants, once
    /// [`serve_rpc`](Self::serve_rpc) is running.
    pub fn rpc_addr(&self) -> Option<SocketAddr> {
        *self.inner.rpc_addr.lock()
    }

    /// Snapshot of the event timeline (registration, health transitions,
    /// scaling decisions) — the bench's assertion surface.
    pub fn events(&self) -> Vec<FleetEvent> {
        self.inner.events.lock().clone()
    }

    /// Queues this fleet gracefully drained (expiry/deregister/reap).
    pub fn drain_count(&self) -> u64 {
        self.inner.drains.get()
    }

    /// One member's current view, if registered (tombstones included).
    pub fn view(&self, name: &str) -> Option<ReplicaView> {
        let view = self
            .inner
            .members
            .lock()
            .get(name)
            .map(|m| view_of(name, m));
        view.map(|mut v| {
            self.mark_suspect(&mut v);
            v
        })
    }

    /// Every member's current view, sorted by container name.
    pub fn list(&self) -> Vec<ReplicaView> {
        let mut views: Vec<ReplicaView> = self
            .inner
            .members
            .lock()
            .iter()
            .map(|(n, m)| view_of(n, m))
            .collect();
        for v in &mut views {
            self.mark_suspect(v);
        }
        views.sort_by(|a, b| a.container_name.cmp(&b.container_name));
        views
    }

    /// Mark a live, attached member's view `"suspect"` while its queue's
    /// health reads `Silent` or `Down`. Reads the abstraction layer, so
    /// it runs after the members lock is released.
    fn mark_suspect(&self, view: &mut ReplicaView) {
        let Some(qid) = view.queue_id.as_deref().filter(|_| view.health == HEALTHY) else {
            return;
        };
        let model = ModelId::new(&view.model_name, view.model_version);
        if matches!(
            self.inner.mal.replica_health(&model, qid),
            Some(Health::Silent | Health::Down)
        ) {
            view.health = "suspect".to_string();
        }
    }

    pub(crate) fn push_event(&self, e: FleetEvent) {
        self.inner.events.lock().push(e);
    }

    fn next_seq(&self) -> u64 {
        let mut seq = self.inner.next_seq.lock();
        *seq += 1;
        *seq
    }

    pub(crate) fn load_record(&self, name: &str) -> Option<ReplicaRecord> {
        let bytes = self.inner.store.get(&api::replica_key(name))?;
        serde_json::from_slice(&bytes).ok()
    }

    pub(crate) fn persist_record(&self, rec: &ReplicaRecord) {
        if let Ok(bytes) = serde_json::to_vec(rec) {
            self.inner
                .store
                .set(&api::replica_key(&rec.container_name), bytes);
        }
    }

    fn match_launcher(&self, capabilities: &[String]) -> Option<Arc<dyn ReplicaLauncher>> {
        let launchers = self.inner.launchers.lock();
        launchers
            .iter()
            .find(|l| capabilities.iter().any(|c| c == l.capability()))
            .cloned()
    }

    /// Handle `POST /api/v1/replicas`: validate the announced
    /// model/version against the directory, attach the replica (via a
    /// matching launcher, in-process) or point it at the RPC data plane,
    /// persist the registration, and admit it to the membership view.
    /// A previously-expired container is re-admitted with the latency
    /// curve harvested when it was drained (warm start).
    pub fn register(&self, spec: ReplicaSpec) -> Result<RegisterOutcome, ApiError> {
        self.register_inner(spec, false)
    }

    pub(crate) fn register_inner(
        &self,
        spec: ReplicaSpec,
        managed: bool,
    ) -> Result<RegisterOutcome, ApiError> {
        if spec.container_name.is_empty() {
            return Err(ApiError::BadRequest(
                "container_name must not be empty".into(),
            ));
        }
        let model = ModelId::new(&spec.model_name, spec.model_version);
        if !self.inner.mal.has_model(&model) {
            let name_known = self
                .inner
                .mal
                .models()
                .iter()
                .any(|m| m.name == spec.model_name);
            return Err(if name_known {
                ApiError::VersionUnknown {
                    model: spec.model_name,
                    version: spec.model_version,
                }
            } else {
                ApiError::ModelUnknown(spec.model_name)
            });
        }
        let admitted = self.admit(
            ReplicaRecord {
                container_name: spec.container_name,
                model_name: spec.model_name,
                model_version: spec.model_version,
                capabilities: spec.capabilities,
                state: REPLICA_STATE_REGISTERED.to_string(),
                tune: None,
            },
            Via::Register { managed },
        )?;
        let warm_start = admitted.record.tune.is_some();
        self.announce(&admitted);
        Ok(RegisterOutcome {
            container_name: admitted.record.container_name,
            queue_id: admitted.queue_id,
            rpc_addr: self.rpc_addr().map(|a| a.to_string()),
            warm_start,
            heartbeat_interval_ms: self.inner.cfg.heartbeat_interval.as_millis() as u64,
        })
    }

    /// The one admission path behind [`register`](Self::register),
    /// [`adopt_record`](Self::adopt_record) and `admit_rpc`: look up the
    /// warm start, attach the replica with it as the queue's prior, and
    /// insert the membership entry.
    ///
    /// Insert-or-replace: `readmitted` says whether this replaced an
    /// expired tombstone. If a *live* entry with an attached queue is
    /// replaced (container restarted faster than the monitor noticed),
    /// its old queue is drained in the background — distinct queue ids
    /// keep the drains independent.
    fn admit(&self, mut record: ReplicaRecord, via: Via) -> Result<Admitted, ApiError> {
        // Warm start: the tune harvested when this container last expired
        // (or was last persisted) rides back in as the queue's prior.
        record.tune = self
            .load_record(&record.container_name)
            .and_then(|r| r.tune);
        let model = ModelId::new(&record.model_name, record.model_version);
        let lenient = matches!(via, Via::Adopt);
        let (transport, rpc, managed) = match via {
            Via::Register { managed } => (self.launch(&record)?, false, managed),
            Via::Adopt => (self.launch(&record).unwrap_or(None), false, false),
            Via::Rpc(t) => (Some(t), true, false),
        };
        let attached = transport.map(|t| {
            self.inner
                .mal
                .add_replica_with_prior(&model, t, record.tune)
        });
        let queue_id = match attached {
            None => None,
            Some(Ok(qid)) => Some(qid),
            Some(Err(_)) if lenient => None,
            Some(Err(e)) => return Err(ApiError::Internal(e.to_string())),
        };
        let member = Member {
            model,
            capabilities: record.capabilities.clone(),
            queue_id: queue_id.clone(),
            expired: false,
            last_beat: Instant::now(),
            rpc,
            managed,
            joined_seq: self.next_seq(),
        };
        let old = self
            .inner
            .members
            .lock()
            .insert(record.container_name.clone(), member);
        let readmitted = old.as_ref().is_some_and(|m| m.expired);
        if let Some(old) = old {
            if !old.expired {
                if let Some(old_qid) = old.queue_id {
                    let fleet = self.clone();
                    tokio::spawn(async move {
                        if let Ok(q) = fleet.inner.mal.remove_replica(&old.model, &old_qid) {
                            q.drained().await;
                            fleet.inner.drains.inc();
                        }
                    });
                }
            }
        }
        Ok(Admitted {
            record,
            queue_id,
            readmitted,
        })
    }

    /// Attach `record` through a launcher matching its capabilities:
    /// `None` when no launcher matched (the container dials in itself).
    fn launch(&self, record: &ReplicaRecord) -> Result<Option<Arc<dyn BatchTransport>>, ApiError> {
        let Some(launcher) = self.match_launcher(&record.capabilities) else {
            return Ok(None);
        };
        launcher
            .launch(record)
            .map(Some)
            .map_err(ApiError::Internal)
    }

    /// Persist a registration, count it, and push its event — what
    /// `register` and `admit_rpc` do after an admission, and an adopted
    /// record does not.
    fn announce(&self, admitted: &Admitted) {
        self.persist_record(&admitted.record);
        self.inner.registrations.inc();
        let container = admitted.record.container_name.clone();
        let warm_start = admitted.record.tune.is_some();
        self.push_event(if admitted.readmitted {
            FleetEvent::Readmitted {
                container,
                warm_start,
            }
        } else {
            FleetEvent::Registered {
                container,
                warm_start,
            }
        });
    }

    /// Handle `POST /api/v1/replicas/{name}/heartbeat`. A beat from an
    /// expired member gets 410 (`replica_gone`): its queue is already
    /// drained, so resuming silently would serve from a ghost — it must
    /// re-register. Any other beat clears its queue's heartbeat-silent
    /// flag at once.
    pub fn heartbeat(&self, name: &str) -> Result<ReplicaView, ApiError> {
        let view = {
            let mut members = self.inner.members.lock();
            match members.get_mut(name) {
                Some(m) if m.expired => return Err(ApiError::ReplicaGone(name.to_string())),
                Some(m) => {
                    m.last_beat = Instant::now();
                    Some(view_of(name, m))
                }
                None => None,
            }
        };
        let Some(view) = view else {
            return Err(match self.load_record(name) {
                Some(r) if r.state == REPLICA_STATE_EXPIRED => {
                    ApiError::ReplicaGone(name.to_string())
                }
                _ => ApiError::ReplicaUnknown(name.to_string()),
            });
        };
        if let Some(qid) = &view.queue_id {
            let model = ModelId::new(&view.model_name, view.model_version);
            self.inner.mal.set_replica_suspect_hint(&model, qid, false);
        }
        Ok(view)
    }

    /// Handle `DELETE /api/v1/replicas/{name}`: graceful deregistration.
    /// The queue drains zero-drop, the membership entry and persisted
    /// record are removed — the name is immediately free to re-register.
    pub async fn deregister(&self, name: &str) -> Result<(), ApiError> {
        let member = self
            .inner
            .members
            .lock()
            .remove(name)
            .ok_or_else(|| ApiError::ReplicaUnknown(name.to_string()))?;
        if let Some(qid) = &member.queue_id {
            if let Ok(queue) = self.inner.mal.remove_replica(&member.model, qid) {
                queue.drained().await;
                self.inner.drains.inc();
            }
        }
        self.inner.store.del(&api::replica_key(name));
        Ok(())
    }

    /// Adopt a persisted registration written by another frontend (or a
    /// previous life of this one): attach via a matching launcher when
    /// possible, otherwise admit unattached — the container's own
    /// heartbeats (or the monitor's expiry) settle it. Returns whether a
    /// new member was admitted.
    pub(crate) fn adopt_record(&self, rec: ReplicaRecord) -> bool {
        if rec.state != REPLICA_STATE_REGISTERED {
            return false;
        }
        let model = ModelId::new(&rec.model_name, rec.model_version);
        if !self.inner.mal.has_model(&model) {
            return false;
        }
        if self.inner.members.lock().contains_key(&rec.container_name) {
            return false;
        }
        self.admit(rec, Via::Adopt).is_ok()
    }

    /// Serve the RPC data plane for self-registering containers: bind,
    /// then accept `Register` frames forever, attaching each container
    /// as a fleet member (its connection's passive health probing counts
    /// as its heartbeat).
    pub async fn serve_rpc(&self, addr: &str) -> Result<SocketAddr, ApiError> {
        let mut server = RpcServer::bind(addr)
            .await
            .map_err(|e| ApiError::Internal(e.to_string()))?;
        let local = server.local_addr();
        *self.inner.rpc_addr.lock() = Some(local);
        let fleet = self.clone();
        tokio::spawn(async move {
            while let Some((info, handle)) = server.next_container().await {
                fleet.admit_rpc(info, handle);
            }
        });
        Ok(local)
    }

    /// Admit one RPC-registered container. Unknown model/version frames
    /// are dropped (the container sees its connection close on the next
    /// probe cycle) — the RPC surface has no error channel at register
    /// time.
    pub(crate) fn admit_rpc(&self, info: ContainerInfo, handle: TcpContainerHandle) {
        let model = ModelId::new(&info.model_name, info.model_version);
        if !self.inner.mal.has_model(&model) {
            return;
        }
        let interval = self.inner.cfg.heartbeat_interval;
        let grace = interval * self.inner.cfg.suspect_after.max(1);
        handle.start_heartbeats(interval, grace);
        let record = ReplicaRecord {
            container_name: info.container_name,
            model_name: info.model_name,
            model_version: info.model_version,
            capabilities: Vec::new(),
            state: REPLICA_STATE_REGISTERED.to_string(),
            tune: None,
        };
        if let Ok(admitted) = self.admit(record, Via::Rpc(Arc::new(handle))) {
            self.announce(&admitted);
        }
    }

    /// Harvest a replica's learned latency curve, if its model is
    /// established — the warm start persisted with the tombstone at
    /// expiry.
    pub(crate) fn harvest_tune(&self, model: &ModelId, queue_id: &str) -> Option<LatencyPrior> {
        let m = self.inner.mal.replica_latency_model(model, queue_id)?;
        m.is_established().then(|| LatencyPrior {
            alpha_us: m.alpha_us(),
            beta_us: m.beta_us(),
        })
    }
}

const HEALTHY: &str = "healthy";

/// A member's view as its membership entry alone knows it: `"expired"`
/// or `"healthy"`. [`Fleet::mark_suspect`] adds the queue's side.
fn view_of(name: &str, m: &Member) -> ReplicaView {
    ReplicaView {
        container_name: name.to_string(),
        model_name: m.model.name.clone(),
        model_version: m.model.version,
        health: if m.expired { "expired" } else { HEALTHY }.to_string(),
        queue_id: m.queue_id.clone(),
        managed: m.managed,
    }
}
