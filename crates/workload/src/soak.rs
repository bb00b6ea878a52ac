//! Multi-frontend fan-in soak harness.
//!
//! The ROADMAP's top open item, and the first harness that composes every
//! subsystem under one sustained adversarial run: N in-process frontends
//! (each a full [`Clipper`] behind an [`HttpFrontend`]) share one
//! statestore and one replica fleet while an open-loop mixed workload
//! (predict + feedback) flows and a scripted **event timeline** injects
//! control-plane churn (rollout/rollback over `/api/v1`), a mid-soak
//! frontend crash + [`Clipper::sync_config`] restart, and replica faults
//! through [`FaultyTransport`] — asserting that nothing is *lost*: every
//! accepted query completes or fail-fills, explicit admission sheds and
//! down-frontend refusals are answered promptly, and every frontend's
//! cache drains to `pending_len() == 0`.
//!
//! # Topology
//!
//! One model name with two versions; each version's replicas are a shared
//! fleet of [`FaultyTransport`]-wrapped transports (the chaos handles).
//! Every frontend builds its *own* queues over the *same* transports —
//! that is the fan-in: one replica fleet, N schedulers pulling into it.
//! Frontend 0 registers the deployment (persisting it); frontends `1..N`
//! — and every restart — rebuild from the store via `sync_config()`.
//!
//! # Cross-frontend cache story (measured, not hand-waved)
//!
//! Each frontend keeps its own sharded prediction cache, and rollouts
//! need **no cross-frontend invalidation**: cache keys embed the full
//! `ModelId` (name *and* version), so a rollout makes the old version's
//! entries unreachable and CLOCK reclaims them; the new version warms on
//! first miss. The per-frontend [`CacheStats`] in the report carry the
//! measured cost (the post-rollout miss spike) of that design.
//!
//! # Outcome taxonomy
//!
//! - **Ok** — completed (possibly degraded: stragglers substituted;
//!   possibly rescued: an upstream batch failure redispatched onto a
//!   sibling replica inside the deadline budget);
//! - **Shed** — refused by admission control (an answered 429);
//! - **Refused** — the target frontend was down (crash window);
//! - **Lost** — timed out past the client-side detector, hung, or
//!   hard-failed. A lossless soak has exactly zero of these.

use crate::arrivals::ArrivalProcess;
use crate::churn::{http_request, ActionOutcome};
use crate::report::{PhaseOutcome, PhaseRecorder, PhaseStats};
use clipper_core::batching::QueueConfig;
use clipper_core::{
    AppConfig, CacheStats, Clipper, Feedback, HttpFrontend, ModelId, Output, PolicyKind,
    PredictError,
};
use clipper_metrics::Counter;
use clipper_rpc::faulty::{FaultConfig, FaultyTransport};
use clipper_rpc::message::{PredictReply, WireOutput};
use clipper_rpc::transport::{BatchTransport, FnTransport, Input};
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The soak's model name ("m") and application name ("app").
const MODEL: &str = "m";
/// The application every query targets.
const APP: &str = "app";
/// Container name used by the fleet register/expire timeline actions.
const FLEET_REPLICA: &str = "soak-fleet-replica";
/// Launcher capability the fleet actions attach through.
const FLEET_CAPABILITY: &str = "soak:inproc";

/// One scheduled timeline event.
#[derive(Clone, Debug)]
pub struct SoakEvent {
    /// Offset into the run at which the event fires. Events are applied
    /// sequentially in offset order; a slow action (a rollout quiescing
    /// under load) delays later events rather than overlapping them, so
    /// runs are reproducible.
    pub at: Duration,
    /// What happens.
    pub action: SoakAction,
}

/// The chaos/churn vocabulary of the timeline.
#[derive(Clone, Debug)]
pub enum SoakAction {
    /// Advance the phase recorder: later samples land in this window.
    Phase(String),
    /// Drop frontend `i` whole — HTTP listener and Clipper instance.
    /// In-flight queries hold their own handle and complete; new queries
    /// targeting the slot are `Refused` until restart.
    CrashFrontend(usize),
    /// Rebuild frontend `i` from the statestore (`sync_config()`), re-attach
    /// the shared fleet, and bind a fresh HTTP listener.
    RestartFrontend(usize),
    /// `POST /api/v1/models/{MODEL}/rollout` over frontend `via`'s HTTP
    /// surface.
    Rollout {
        /// Target version.
        version: u32,
        /// Frontend whose HTTP API performs it.
        via: usize,
    },
    /// `POST /api/v1/models/{MODEL}/rollback` over frontend `via`.
    Rollback {
        /// Frontend whose HTTP API performs it.
        via: usize,
    },
    /// Frontend `i` reconciles against the statestore
    /// ([`Clipper::sync_config`]) — how the *other* frontends converge on
    /// a rollout one of them performed.
    SyncConfig(usize),
    /// Flip one fleet replica into a black hole (every request fails).
    FaultOn {
        /// Model version whose fleet the replica belongs to.
        version: u32,
        /// Replica index within that version's fleet.
        replica: usize,
    },
    /// Restore the replica to a clean pass-through.
    FaultOff {
        /// Model version whose fleet the replica belongs to.
        version: u32,
        /// Replica index within that version's fleet.
        replica: usize,
    },
    /// Make one fleet replica *flaky*: each request independently fails
    /// with probability `drop_prob` — a transient-fault window (the
    /// retry path should absorb it invisibly) rather than a black hole
    /// (which the suspect/drain machinery handles). `drop_prob: 0.0`
    /// restores a clean pass-through.
    FlakyReplica {
        /// Model version whose fleet the replica belongs to.
        version: u32,
        /// Replica index within that version's fleet.
        replica: usize,
        /// Per-request failure probability while the window is open.
        drop_prob: f64,
    },
    /// Every frontend hot-removes and drains the replicas its scheduler
    /// marked suspect ([`Clipper::drain_suspect_replicas`]).
    DrainSuspects,
    /// A container self-registers over frontend `via`'s
    /// `POST /api/v1/replicas` surface (an in-process launcher attaches
    /// it immediately) and starts serving traffic as `soak-fleet-replica`.
    RegisterReplica {
        /// Model version the container announces.
        version: u32,
        /// Frontend whose HTTP API performs the registration.
        via: usize,
    },
    /// Frontend `via`'s fleet expires `soak-fleet-replica` — the
    /// deterministic equivalent of its heartbeats stopping: the member
    /// is tombstoned and its queue gracefully drained (zero-drop).
    ExpireReplica {
        /// Frontend whose fleet performs the expiry.
        via: usize,
    },
}

impl SoakAction {
    fn label(&self) -> String {
        match self {
            SoakAction::Phase(name) => format!("phase:{name}"),
            SoakAction::CrashFrontend(i) => format!("crash f{i}"),
            SoakAction::RestartFrontend(i) => format!("restart f{i}"),
            SoakAction::Rollout { version, via } => {
                format!("rollout {MODEL}→v{version} via f{via}")
            }
            SoakAction::Rollback { via } => format!("rollback {MODEL} via f{via}"),
            SoakAction::SyncConfig(i) => format!("sync f{i}"),
            SoakAction::FaultOn { version, replica } => format!("fault on v{version}r{replica}"),
            SoakAction::FaultOff { version, replica } => format!("fault off v{version}r{replica}"),
            SoakAction::FlakyReplica {
                version,
                replica,
                drop_prob,
            } => format!("flaky v{version}r{replica} p={drop_prob}"),
            SoakAction::DrainSuspects => "drain suspects".into(),
            SoakAction::RegisterReplica { version, via } => {
                format!("register {FLEET_REPLICA} v{version} via f{via}")
            }
            SoakAction::ExpireReplica { via } => format!("expire {FLEET_REPLICA} via f{via}"),
        }
    }
}

/// Everything that parameterizes a soak run.
#[derive(Clone, Debug)]
pub struct SoakSpec {
    /// Number of in-process frontends (≥ 2 for the fan-in claims).
    pub frontends: usize,
    /// Fleet replicas per model version.
    pub replicas_per_version: usize,
    /// Total open-loop arrival rate (qps), round-robined across
    /// frontends.
    pub rate: f64,
    /// Soak duration (events are scheduled inside it).
    pub duration: Duration,
    /// Arrival/selection seed — runs are repeatable.
    pub seed: u64,
    /// Per-app latency objective.
    pub slo: Duration,
    /// Client-side lost detector: a query not answered within this is
    /// counted `Lost` (the server must answer *everything* it accepts).
    pub timeout: Duration,
    /// Every k-th request is a feedback call instead of a predict.
    pub feedback_every: u64,
    /// Distinct inputs per frontend (smaller → hotter cache).
    pub input_space: u64,
    /// Distinct user contexts cycling through requests.
    pub contexts: usize,
    /// Per-frontend prediction-cache capacity.
    pub cache_capacity: usize,
    /// The scripted timeline.
    pub events: Vec<SoakEvent>,
}

impl SoakSpec {
    /// A spec with no events — steady-state fan-in only.
    pub fn new(frontends: usize, rate: f64, duration: Duration) -> Self {
        SoakSpec {
            frontends,
            replicas_per_version: 2,
            rate,
            duration,
            seed: 42,
            slo: Duration::from_millis(50),
            timeout: Duration::from_secs(2),
            feedback_every: 10,
            // Larger than the cache: a steady miss stream keeps real
            // batches flowing to the replica fleet (an all-hit soak
            // would never exercise the schedulers or the fault paths).
            input_space: 16_384,
            contexts: 8,
            cache_capacity: 8_192,
            events: Vec::new(),
        }
    }

    /// Attach the standard adversarial timeline, scaled to `duration`:
    ///
    /// | offset | events |
    /// |--------|--------|
    /// | 15%    | phase `rollout`: roll `m`→v2 via f0's HTTP API, sync f1..N |
    /// | 18–26% | phase `flaky`: one v2 replica drops 60% of requests — the retry path must absorb it |
    /// | 30%    | phase `crash`: drop frontend 1 |
    /// | 45%    | phase `recovery`: rebuild frontend 1 via `sync_config()` |
    /// | 60%    | phase `chaos`: black-hole one v2 fleet replica |
    /// | 72%    | every frontend drains its suspect replicas; fault lifted |
    /// | 80%    | phase `recovered`: roll back to v1 via f0, sync f1..N |
    pub fn with_standard_timeline(mut self) -> Self {
        let d = self.duration;
        let frac = |f: f64| d.mul_f64(f);
        let mut events = vec![
            SoakEvent {
                at: frac(0.15),
                action: SoakAction::Phase("rollout".into()),
            },
            SoakEvent {
                at: frac(0.15),
                action: SoakAction::Rollout { version: 2, via: 0 },
            },
        ];
        for i in 1..self.frontends {
            events.push(SoakEvent {
                at: frac(0.15),
                action: SoakAction::SyncConfig(i),
            });
        }
        events.extend([
            SoakEvent {
                at: frac(0.18),
                action: SoakAction::Phase("flaky".into()),
            },
            SoakEvent {
                at: frac(0.18),
                action: SoakAction::FlakyReplica {
                    version: 2,
                    replica: 1,
                    drop_prob: 0.6,
                },
            },
            SoakEvent {
                at: frac(0.26),
                action: SoakAction::FlakyReplica {
                    version: 2,
                    replica: 1,
                    drop_prob: 0.0,
                },
            },
            SoakEvent {
                at: frac(0.30),
                action: SoakAction::Phase("crash".into()),
            },
            SoakEvent {
                at: frac(0.30),
                action: SoakAction::CrashFrontend(1),
            },
            SoakEvent {
                at: frac(0.45),
                action: SoakAction::Phase("recovery".into()),
            },
            SoakEvent {
                at: frac(0.45),
                action: SoakAction::RestartFrontend(1),
            },
            SoakEvent {
                at: frac(0.60),
                action: SoakAction::Phase("chaos".into()),
            },
            SoakEvent {
                at: frac(0.60),
                action: SoakAction::FaultOn {
                    version: 2,
                    replica: 0,
                },
            },
            SoakEvent {
                at: frac(0.72),
                action: SoakAction::DrainSuspects,
            },
            SoakEvent {
                at: frac(0.72),
                action: SoakAction::FaultOff {
                    version: 2,
                    replica: 0,
                },
            },
            SoakEvent {
                at: frac(0.80),
                action: SoakAction::Phase("recovered".into()),
            },
            SoakEvent {
                at: frac(0.80),
                action: SoakAction::Rollback { via: 0 },
            },
        ]);
        for i in 1..self.frontends {
            events.push(SoakEvent {
                at: frac(0.80),
                action: SoakAction::SyncConfig(i),
            });
        }
        self.events = events;
        self
    }
}

/// Per-frontend outcome counters plus end-of-run registry state.
#[derive(Clone, Debug)]
pub struct FrontendStats {
    /// Completed requests served by this frontend.
    pub ok: u64,
    /// Completed requests that substituted at least one straggler
    /// (fail-fill visible to the client as reduced confidence, not an
    /// error).
    pub degraded: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests refused because the frontend was down.
    pub refused: u64,
    /// Requests lost (timed out / hard-failed).
    pub lost: u64,
    /// Queries rescued by deadline-budgeted retry: an upstream batch
    /// failure redispatched onto a sibling replica instead of
    /// fail-filling. Summed over the frontend's live queues at the end
    /// of the run (drained queues unregister their counters).
    pub retried: u64,
    /// Batches re-dispatched by the hedging knob (0 unless hedging is
    /// enabled on the model's queue config).
    pub hedged: u64,
    /// End-of-run cache counters — the measured cross-frontend cache
    /// story (per-frontend caches, version-keyed, no invalidation).
    pub cache: CacheStats,
    /// Cache entries still pending after drain — must be 0.
    pub pending_len: usize,
    /// The version the frontend's directory resolved `m` to at the end.
    pub current_version: Option<u32>,
    /// Whether the frontend was up at the end of the run.
    pub alive: bool,
}

/// Everything a soak run measured.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Arrivals issued by the open-loop schedule.
    pub issued: u64,
    /// Per-phase windows, in timeline order.
    pub phases: Vec<PhaseStats>,
    /// Whole-run rollup.
    pub totals: PhaseStats,
    /// Per-frontend breakdown.
    pub frontends: Vec<FrontendStats>,
    /// Every timeline event's outcome, in firing order.
    pub actions: Vec<ActionOutcome>,
    /// Whether every live frontend ended on the same current version and
    /// app candidate set as the statestore record.
    pub converged: bool,
}

impl SoakReport {
    /// Queries lost across the whole run.
    pub fn lost(&self) -> u64 {
        self.totals.lost
    }

    /// Queries rescued by retry across every live frontend's queues.
    pub fn retried(&self) -> u64 {
        self.frontends.iter().map(|f| f.retried).sum()
    }

    /// Hedged batch dispatches across every live frontend's queues.
    pub fn hedged(&self) -> u64 {
        self.frontends.iter().map(|f| f.hedged).sum()
    }

    /// Whether every timeline action succeeded.
    pub fn all_actions_ok(&self) -> bool {
        self.actions.iter().all(|a| a.result.is_ok())
    }

    /// Every issued arrival is accounted for by exactly one outcome.
    pub fn accounted(&self) -> bool {
        self.totals.completed + self.totals.shed + self.totals.refused + self.totals.lost
            == self.issued
    }

    /// The lossless verdict the soak exists to check: zero lost queries,
    /// every action landed, every arrival accounted for, every frontend's
    /// cache fully drained. Sheds and refusals are tolerated — they are
    /// answered decisions, not losses.
    pub fn is_lossless(&self) -> bool {
        self.lost() == 0
            && self.all_actions_ok()
            && self.accounted()
            && self.frontends.iter().all(|f| f.pending_len == 0)
    }
}

/// One live frontend: a Clipper and its HTTP listener.
struct Slot {
    clipper: Clipper,
    frontend: HttpFrontend,
}

struct FrontendCounters {
    ok: Counter,
    degraded: Counter,
    shed: Counter,
    refused: Counter,
    lost: Counter,
    /// Peak observed `queue/*/retried` / `queue/*/hedged` sums for this
    /// frontend. The per-queue counters unregister when a replica is
    /// removed (rollback, drained suspects), so the harness re-samples at
    /// every timeline action and keeps the high-water mark — otherwise a
    /// run that ends in a rollback would report the recovery work as 0.
    peak_retried: std::sync::atomic::AtomicU64,
    peak_hedged: std::sync::atomic::AtomicU64,
}

impl FrontendCounters {
    fn new() -> Self {
        FrontendCounters {
            ok: Counter::new(),
            degraded: Counter::new(),
            shed: Counter::new(),
            refused: Counter::new(),
            lost: Counter::new(),
            peak_retried: std::sync::atomic::AtomicU64::new(0),
            peak_hedged: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

/// The shared fleet: per version, the chaos-wrapped transports every
/// frontend attaches its own queues to.
struct Fleet {
    versions: Vec<(u32, Vec<Arc<FaultyTransport>>)>,
}

impl Fleet {
    fn build(replicas_per_version: usize, seed: u64) -> Self {
        let versions = [1u32, 2u32]
            .iter()
            .map(|&v| {
                let transports = (0..replicas_per_version)
                    .map(|r| {
                        let inner: Arc<dyn BatchTransport> = Arc::new(FnTransport::new(
                            &format!("{MODEL}-v{v}-r{r}"),
                            move |inputs: &[Input]| {
                                Ok(PredictReply {
                                    outputs: vec![WireOutput::Class(v); inputs.len()],
                                    queue_us: 0,
                                    compute_us: 50,
                                })
                            },
                        ));
                        Arc::new(FaultyTransport::new(
                            inner,
                            FaultConfig::default(),
                            seed ^ (u64::from(v) << 8) ^ r as u64,
                        ))
                    })
                    .collect();
                (v, transports)
            })
            .collect();
        Fleet { versions }
    }

    fn transport(&self, version: u32, replica: usize) -> Option<&Arc<FaultyTransport>> {
        self.versions
            .iter()
            .find(|(v, _)| *v == version)
            .and_then(|(_, ts)| ts.get(replica))
    }

    /// Attach this fleet to every model version `clipper` has registered.
    fn attach(&self, clipper: &Clipper) {
        for (v, transports) in &self.versions {
            let id = ModelId::new(MODEL, *v);
            if clipper.abstraction().has_model(&id) {
                for t in transports {
                    let _ = clipper.add_replica(&id, t.clone() as Arc<dyn BatchTransport>);
                }
            }
        }
    }
}

struct Harness {
    spec: SoakSpec,
    store: Arc<clipper_statestore::StateStore>,
    slots: Vec<RwLock<Option<Slot>>>,
    fleet: Fleet,
    recorder: Arc<PhaseRecorder>,
    counters: Vec<FrontendCounters>,
}

impl Harness {
    /// Build frontend `i`. Frontend 0 registers the deployment and
    /// persists it; everyone else (and every restart) rebuilds from the
    /// store — restart-by-rehydration is the normal path here, not a
    /// test fixture.
    async fn build_frontend(&self, i: usize) -> Slot {
        let clipper = Clipper::builder()
            .statestore(self.store.clone())
            .cache_capacity(self.spec.cache_capacity)
            .build();
        let restored = clipper.sync_config().await;
        if i == 0 && restored.is_noop() {
            clipper.add_model(ModelId::new(MODEL, 1), QueueConfig::default());
            clipper.add_model(ModelId::new(MODEL, 2), QueueConfig::default());
            clipper.register_app(
                AppConfig::new(APP, vec![ModelId::new(MODEL, 1)])
                    .with_policy(PolicyKind::Static { model_index: 0 })
                    .with_slo(self.spec.slo)
                    .with_default_output(Output::Class(0)),
            );
        }
        self.fleet.attach(&clipper);
        let frontend = HttpFrontend::bind("127.0.0.1:0", clipper.clone())
            .await
            .expect("bind soak frontend");
        Slot { clipper, frontend }
    }

    fn clipper(&self, i: usize) -> Option<Clipper> {
        self.slots
            .get(i)
            .and_then(|s| s.read().as_ref().map(|slot| slot.clipper.clone()))
    }

    fn addr(&self, i: usize) -> Option<std::net::SocketAddr> {
        self.slots
            .get(i)
            .and_then(|s| s.read().as_ref().map(|slot| slot.frontend.local_addr()))
    }

    /// Fold every live frontend's current `queue/*` recovery counters
    /// into its high-water marks (see [`FrontendCounters`]). Called
    /// before each timeline action so counts survive queue churn.
    fn sample_recovery_counters(&self) {
        use std::sync::atomic::Ordering;
        for (i, counters) in self.counters.iter().enumerate() {
            if let Some(c) = self.clipper(i) {
                let (retried, hedged) = queue_recovery_counters(c.abstraction().registry());
                counters.peak_retried.fetch_max(retried, Ordering::Relaxed);
                counters.peak_hedged.fetch_max(hedged, Ordering::Relaxed);
            }
        }
    }

    async fn apply(&self, action: &SoakAction) -> Result<String, String> {
        match action {
            SoakAction::Phase(name) => {
                self.recorder.advance(name);
                Ok(format!("phase {name} open"))
            }
            SoakAction::CrashFrontend(i) => {
                let slot = self
                    .slots
                    .get(*i)
                    .ok_or_else(|| format!("no frontend {i}"))?
                    .write()
                    .take();
                match slot {
                    Some(_) => Ok(format!("frontend {i} dropped")),
                    None => Err(format!("frontend {i} already down")),
                }
            }
            SoakAction::RestartFrontend(i) => {
                if self.slots.get(*i).is_none() {
                    return Err(format!("no frontend {i}"));
                }
                let slot = self.build_frontend(*i).await;
                let report = slot.clipper.sync_config().await;
                let summary = format!(
                    "frontend {i} rebuilt: current={:?} sync={:?}",
                    slot.clipper.current_version(MODEL),
                    report.pending
                );
                *self.slots[*i].write() = Some(slot);
                Ok(summary)
            }
            SoakAction::Rollout { version, via } => {
                let addr = self
                    .addr(*via)
                    .ok_or_else(|| format!("frontend {via} down"))?;
                let body = format!("{{\"version\":{version}}}");
                let (status, resp) = http_request(
                    addr,
                    "POST",
                    &format!("/api/v1/models/{MODEL}/rollout"),
                    &body,
                )
                .await
                .map_err(|e| format!("rollout io: {e}"))?;
                if status == 200 {
                    Ok(resp)
                } else {
                    Err(format!("rollout {status}: {resp}"))
                }
            }
            SoakAction::Rollback { via } => {
                let addr = self
                    .addr(*via)
                    .ok_or_else(|| format!("frontend {via} down"))?;
                let (status, resp) = http_request(
                    addr,
                    "POST",
                    &format!("/api/v1/models/{MODEL}/rollback"),
                    "",
                )
                .await
                .map_err(|e| format!("rollback io: {e}"))?;
                if status == 200 {
                    Ok(resp)
                } else {
                    Err(format!("rollback {status}: {resp}"))
                }
            }
            SoakAction::SyncConfig(i) => {
                let clipper = self
                    .clipper(*i)
                    .ok_or_else(|| format!("frontend {i} down"))?;
                let report = clipper.sync_config().await;
                Ok(format!(
                    "f{i}: repointed={} pending={:?} apps+{}~{}-{}",
                    report.repointed,
                    report.pending,
                    report.adopted_apps,
                    report.updated_apps,
                    report.removed_apps
                ))
            }
            SoakAction::FaultOn { version, replica } => {
                let t = self
                    .fleet
                    .transport(*version, *replica)
                    .ok_or_else(|| format!("no fleet replica v{version}r{replica}"))?;
                t.fail_hard(true);
                Ok(format!("v{version}r{replica} black-holed"))
            }
            SoakAction::FaultOff { version, replica } => {
                let t = self
                    .fleet
                    .transport(*version, *replica)
                    .ok_or_else(|| format!("no fleet replica v{version}r{replica}"))?;
                t.fail_hard(false);
                Ok(format!("v{version}r{replica} restored"))
            }
            SoakAction::FlakyReplica {
                version,
                replica,
                drop_prob,
            } => {
                let t = self
                    .fleet
                    .transport(*version, *replica)
                    .ok_or_else(|| format!("no fleet replica v{version}r{replica}"))?;
                t.set_config(FaultConfig {
                    drop_prob: *drop_prob,
                    ..FaultConfig::default()
                });
                Ok(format!("v{version}r{replica} drop_prob={drop_prob}"))
            }
            SoakAction::DrainSuspects => {
                let mut drained = Vec::new();
                for i in 0..self.slots.len() {
                    let Some(clipper) = self.clipper(i) else {
                        continue;
                    };
                    for id in clipper.abstraction().models() {
                        for qid in clipper.drain_suspect_replicas(&id).await {
                            drained.push(format!("f{i}/{qid}"));
                        }
                    }
                }
                if drained.is_empty() {
                    Err("no suspect replicas found to drain".into())
                } else {
                    Ok(format!("drained {drained:?}"))
                }
            }
            SoakAction::RegisterReplica { version, via } => {
                let clipper = self
                    .clipper(*via)
                    .ok_or_else(|| format!("frontend {via} down"))?;
                // Launcher for the announced capability, so the HTTP
                // registration attaches the replica in-process.
                let v = *version;
                clipper
                    .fleet()
                    .add_launcher(Arc::new(clipper_core::FnLauncher::new(
                        FLEET_CAPABILITY,
                        move |_rec| {
                            Arc::new(FnTransport::new(
                                FLEET_REPLICA,
                                move |inputs: &[Input]| {
                                    Ok(PredictReply {
                                        outputs: vec![WireOutput::Class(v); inputs.len()],
                                        queue_us: 0,
                                        compute_us: 50,
                                    })
                                },
                            )) as Arc<dyn BatchTransport>
                        },
                    )));
                let addr = self
                    .addr(*via)
                    .ok_or_else(|| format!("frontend {via} down"))?;
                let body = format!(
                    "{{\"container_name\":\"{FLEET_REPLICA}\",\"model_name\":\"{MODEL}\",\
                     \"model_version\":{version},\"capabilities\":[\"{FLEET_CAPABILITY}\"]}}"
                );
                let (status, resp) = http_request(addr, "POST", "/api/v1/replicas", &body)
                    .await
                    .map_err(|e| format!("register io: {e}"))?;
                if status == 201 && resp.contains("\"queue_id\":\"") {
                    Ok(resp)
                } else {
                    Err(format!("register {status}: {resp}"))
                }
            }
            SoakAction::ExpireReplica { via } => {
                let clipper = self
                    .clipper(*via)
                    .ok_or_else(|| format!("frontend {via} down"))?;
                if clipper.fleet().expire(FLEET_REPLICA).await {
                    Ok(format!("{FLEET_REPLICA} expired and drained"))
                } else {
                    Err(format!("{FLEET_REPLICA} not expirable (not a live member)"))
                }
            }
        }
    }
}

/// Sum the `queue/*/retried` and `queue/*/hedged` counters across every
/// live queue in `registry`. Queues removed from the fleet (drained
/// suspects, rollback churn) unregister their counters, so a single
/// end-of-run read can miss recovery work — the harness instead samples
/// this before every timeline action and keeps per-frontend high-water
/// marks (see [`FrontendCounters`]).
fn queue_recovery_counters(registry: &clipper_metrics::Registry) -> (u64, u64) {
    let snap = registry.snapshot();
    let sum = |suffix: &str| -> u64 {
        snap.values
            .iter()
            .filter(|(name, _)| name.starts_with("queue/") && name.ends_with(suffix))
            .map(|(_, v)| match v {
                clipper_metrics::MetricValue::Counter { value } => *value,
                _ => 0,
            })
            .sum()
    };
    (sum("/retried"), sum("/hedged"))
}

/// Classify one client-visible result.
fn classify(
    result: Result<Result<usize, PredictError>, tokio::time::error::Elapsed>,
) -> (PhaseOutcome, usize) {
    match result {
        Err(_) => (PhaseOutcome::Lost, 0),
        Ok(Err(PredictError::Overloaded)) => (PhaseOutcome::Shed, 0),
        Ok(Err(_)) => (PhaseOutcome::Lost, 0),
        Ok(Ok(missing)) => (PhaseOutcome::Ok, missing),
    }
}

/// Run one soak. Builds the deployment, drives the open-loop mixed
/// workload against all frontends while the timeline fires, waits for
/// every queue to drain, and reports.
pub async fn run_soak(spec: SoakSpec) -> SoakReport {
    let n = spec.frontends.max(1);
    let store = Arc::new(clipper_statestore::StateStore::new());
    let fleet = Fleet::build(spec.replicas_per_version, spec.seed);
    let recorder = PhaseRecorder::new("steady");
    let harness = Arc::new(Harness {
        store,
        slots: (0..n).map(|_| RwLock::new(None)).collect(),
        fleet,
        recorder: recorder.clone(),
        counters: (0..n).map(|_| FrontendCounters::new()).collect(),
        spec,
    });
    // Frontend 0 first (it registers + persists), then the rest fan in.
    for i in 0..n {
        let slot = harness.build_frontend(i).await;
        *harness.slots[i].write() = Some(slot);
    }

    // The timeline and the arrivals run on the runtime's timers, so
    // their schedule is kept in the runtime's clock.
    let start = tokio::time::Instant::now();

    // The timeline: one task, events strictly in order.
    let mut events = harness.spec.events.clone();
    events.sort_by_key(|e| e.at);
    let timeline = {
        let harness = harness.clone();
        tokio::spawn(async move {
            let mut outcomes = Vec::with_capacity(events.len());
            for ev in events {
                tokio::time::sleep_until(start + ev.at).await;
                let fired_at = start.elapsed();
                // Capture recovery counters before the action can remove
                // queues (rollback and drain churn unregister them).
                harness.sample_recovery_counters();
                let t0 = Instant::now();
                let result = harness.apply(&ev.action).await;
                outcomes.push(ActionOutcome {
                    label: ev.action.label(),
                    fired_at,
                    took: t0.elapsed(),
                    result,
                });
            }
            outcomes
        })
    };

    // The open-loop mixed workload, round-robined across frontends.
    let contexts: Arc<Vec<String>> = Arc::new(
        (0..harness.spec.contexts.max(1))
            .map(|c| format!("user{c}"))
            .collect(),
    );
    let arrivals = ArrivalProcess::Poisson {
        rate: harness.spec.rate,
    };
    let deadline = start + harness.spec.duration;
    let inflight = Arc::new(tokio::sync::Semaphore::new(65_536));
    let mut issued: u64 = 0;
    let mut next_fire = tokio::time::Instant::now();
    let mut handles = Vec::new();
    for (seq, gap) in arrivals.gaps(harness.spec.seed).enumerate() {
        let seq = seq as u64;
        next_fire += gap;
        if next_fire >= deadline {
            break;
        }
        tokio::time::sleep_until(next_fire).await;
        issued += 1;
        let harness = harness.clone();
        let contexts = contexts.clone();
        let permit = inflight.clone().acquire_owned().await.expect("semaphore");
        handles.push(tokio::spawn(async move {
            let idx = (seq % harness.slots.len() as u64) as usize;
            let t0 = Instant::now();
            let clipper = harness.clipper(idx);
            let Some(clipper) = clipper else {
                harness.counters[idx].refused.inc();
                harness.recorder.record(PhaseOutcome::Refused, 0);
                drop(permit);
                return;
            };
            let spec = &harness.spec;
            // 80/20 hot/cold input mix: the hot eighth of the space keeps
            // the caches warm while the cold stream keeps real batches
            // flowing to the replica fleet (a pure cyclic scan would
            // always evict before reuse and measure nothing).
            let h = (seq ^ spec.seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let val = if (h >> 33) % 10 < 8 {
                (h >> 13) % (spec.input_space / 8).max(1)
            } else {
                (h >> 13) % spec.input_space
            };
            let input: Input = Arc::new(vec![val as f32, idx as f32]);
            let ctx = &contexts[(seq % contexts.len() as u64) as usize];
            let result = tokio::time::timeout(spec.timeout, async {
                if spec.feedback_every > 0 && seq.is_multiple_of(spec.feedback_every) {
                    clipper
                        .feedback(APP, Some(ctx), input, Feedback::class(1))
                        .await
                        .map(|_| 0)
                } else {
                    clipper
                        .predict(APP, Some(ctx), input)
                        .await
                        .map(|p| p.models_missing)
                }
            })
            .await;
            let (outcome, missing) = classify(result);
            let counters = &harness.counters[idx];
            match outcome {
                PhaseOutcome::Ok => {
                    counters.ok.inc();
                    if missing > 0 {
                        counters.degraded.inc();
                    }
                }
                PhaseOutcome::Shed => counters.shed.inc(),
                PhaseOutcome::Refused => counters.refused.inc(),
                PhaseOutcome::Lost => counters.lost.inc(),
            }
            harness
                .recorder
                .record(outcome, t0.elapsed().as_micros() as u64);
            drop(permit);
        }));
        if handles.len() >= 4_096 {
            handles.retain(|h| !h.is_finished());
        }
    }
    for h in handles {
        let _ = h.await;
    }
    let actions = timeline.await.unwrap_or_default();

    // Drain: every accepted query must clear the queues; nothing may be
    // left pending in any cache.
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let busy = (0..n).any(|i| {
            harness.clipper(i).is_some_and(|c| {
                c.abstraction()
                    .models()
                    .iter()
                    .any(|m| c.abstraction().queue_depth(m) + c.abstraction().inflight(m) > 0)
            })
        });
        if !busy || Instant::now() >= drain_deadline {
            break;
        }
        tokio::time::sleep(Duration::from_millis(10)).await;
    }

    // Convergence: every live frontend agrees with the persisted record.
    let persisted_current = harness
        .store
        .get(&clipper_core::api::model_key(MODEL))
        .and_then(|b| serde_json::from_slice::<clipper_core::api::ModelRecord>(&b).ok())
        .map(|r| r.current);
    let mut converged = persisted_current.is_some();
    let mut frontends = Vec::with_capacity(n);
    harness.sample_recovery_counters();
    for i in 0..n {
        let counters = &harness.counters[i];
        let retried = counters
            .peak_retried
            .load(std::sync::atomic::Ordering::Relaxed);
        let hedged = counters
            .peak_hedged
            .load(std::sync::atomic::Ordering::Relaxed);
        let (cache, pending_len, current_version, alive) = match harness.clipper(i) {
            Some(c) => {
                let cur = c.current_version(MODEL);
                if cur != persisted_current {
                    converged = false;
                }
                (
                    c.abstraction().cache().stats(),
                    c.abstraction().cache().pending_len(),
                    cur,
                    true,
                )
            }
            None => (CacheStats::default(), 0, None, false),
        };
        frontends.push(FrontendStats {
            ok: counters.ok.get(),
            degraded: counters.degraded.get(),
            shed: counters.shed.get(),
            refused: counters.refused.get(),
            lost: counters.lost.get(),
            retried,
            hedged,
            cache,
            pending_len,
            current_version,
            alive,
        });
    }

    SoakReport {
        issued,
        phases: recorder.phase_stats(),
        totals: recorder.totals(),
        frontends,
        actions,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steady-state fan-in, no events: everything completes, nothing is
    /// lost, both frontends serve, caches drain.
    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn steady_fan_in_is_lossless() {
        let mut spec = SoakSpec::new(2, 300.0, Duration::from_millis(800));
        // Short run: keep the input space small enough to revisit.
        spec.input_space = 16;
        let report = run_soak(spec).await;
        assert!(report.issued > 100, "traffic flowed: {}", report.issued);
        assert!(report.accounted(), "every arrival accounted");
        assert_eq!(report.lost(), 0, "zero lost: {:?}", report.totals);
        assert!(report.is_lossless());
        assert!(report.converged);
        for (i, f) in report.frontends.iter().enumerate() {
            assert!(f.alive, "frontend {i} up");
            assert!(f.ok > 0, "frontend {i} served: {f:?}");
            assert_eq!(f.pending_len, 0, "frontend {i} cache drained");
            assert_eq!(f.current_version, Some(1));
        }
        // Repeated inputs hit the per-frontend caches.
        let hits: u64 = report.frontends.iter().map(|f| f.cache.hits).sum();
        assert!(hits > 0, "cache warmed: {:?}", report.frontends);
    }

    /// A transient-fault window: one of two replicas drops most requests
    /// for a stretch of the run. With deadline-budgeted retry on (the
    /// default), every affected query is redispatched onto the healthy
    /// sibling — zero client-visible errors, zero degraded fail-fills,
    /// and the `retried` counters show the rescue actually happened.
    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn flaky_replica_window_is_invisible_to_clients() {
        let mut spec = SoakSpec::new(1, 400.0, Duration::from_millis(900));
        spec.input_space = 16_384; // miss-heavy: real batches reach the fleet
        spec.slo = Duration::from_millis(250); // headroom against CI jitter
        spec.events = vec![
            SoakEvent {
                at: Duration::from_millis(200),
                action: SoakAction::Phase("flaky".into()),
            },
            SoakEvent {
                at: Duration::from_millis(200),
                action: SoakAction::FlakyReplica {
                    version: 1,
                    replica: 0,
                    drop_prob: 0.7,
                },
            },
            SoakEvent {
                at: Duration::from_millis(600),
                action: SoakAction::Phase("healed".into()),
            },
            SoakEvent {
                at: Duration::from_millis(600),
                action: SoakAction::FlakyReplica {
                    version: 1,
                    replica: 0,
                    drop_prob: 0.0,
                },
            },
        ];
        let report = run_soak(spec).await;
        assert!(report.all_actions_ok(), "{:?}", report.actions);
        assert_eq!(report.lost(), 0, "zero lost: {:?}", report.totals);
        assert!(report.is_lossless());
        assert!(
            report.retried() > 0,
            "the flaky window must actually exercise the retry path: {:?}",
            report.frontends
        );
        // The strong claim: failures were *survived*, not surfaced — no
        // query had to fall back to the app's default output.
        for (i, f) in report.frontends.iter().enumerate() {
            assert_eq!(
                f.degraded, 0,
                "frontend {i} fail-filled despite a healthy sibling: {f:?}"
            );
        }
    }

    /// A crash window with no restart: the down frontend's arrivals are
    /// refused — answered, not lost.
    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn crash_window_refuses_instead_of_losing() {
        let mut spec = SoakSpec::new(2, 300.0, Duration::from_millis(700));
        spec.events = vec![
            SoakEvent {
                at: Duration::from_millis(200),
                action: SoakAction::Phase("down".into()),
            },
            SoakEvent {
                at: Duration::from_millis(200),
                action: SoakAction::CrashFrontend(1),
            },
        ];
        let report = run_soak(spec).await;
        assert_eq!(report.lost(), 0, "{:?}", report.totals);
        assert!(report.all_actions_ok(), "{:?}", report.actions);
        assert!(report.accounted());
        assert!(report.totals.refused > 0, "down window visible");
        assert!(!report.frontends[1].alive);
        assert!(report.frontends[0].alive);
        // The "down" phase is where the refusals live.
        let down = report.phases.iter().find(|p| p.name == "down").unwrap();
        assert!(down.refused > 0);
        assert_eq!(report.phases[0].refused, 0, "steady phase was clean");
    }
}
