//! The versioned control-plane API: wire types, persisted records, and
//! the typed HTTP error taxonomy.
//!
//! Everything the `/api/v1/` REST surface speaks lives here, decoupled
//! from the in-memory domain types ([`AppConfig`], [`ModelId`], …):
//!
//! - [`ApiError`] — every failure the control plane or data plane can
//!   report, each with a canonical HTTP status and a stable machine code;
//! - [`ErrorBody`] — the serde-serialized error envelope. **All** error
//!   responses are built through it, never by string formatting, so a
//!   message containing quotes or backslashes can't produce invalid JSON;
//! - [`JsonOutput`] — the wire form of a model output;
//! - [`AppSpec`] / [`AppPatch`] / [`AppView`] — app registration,
//!   live-update delta, and read-back shapes; an [`AppView`] is also
//!   what the statestore holds for an app;
//! - [`ModelView`] / [`RolloutRequest`] / [`RolloutOutcome`] — model
//!   catalog and version-rollout shapes;
//! - [`ModelRecord`] — a model's persisted version directory, each
//!   version with its whole [`QueueConfig`]. With the app records it
//!   mirrors the paper's Redis configuration state, and lets a frontend
//!   rehydrate its registry after a restart.
//!
//! The `#[derive(Serialize, Deserialize)]` on each type **is** its wire
//! format: declaration field order, no whitespace. The tests below pin
//! the bytes of every response shape and persisted record as literals, so
//! a change to a type or to the codec that moves the wire shows up as a
//! failed literal, not as two code paths drifting apart.

use crate::batching::{LatencyPrior, QueueConfig};
use crate::error::PredictError;
use crate::types::{AppConfig, ModelId, Output, PolicyKind};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Statestore key prefix for persisted app registrations.
pub(crate) const APP_KEY_PREFIX: &str = "config/app/";
/// Statestore key prefix for persisted model registrations.
pub(crate) const MODEL_KEY_PREFIX: &str = "config/model/";
/// Statestore key prefix for persisted fleet replica registrations.
pub(crate) const REPLICA_KEY_PREFIX: &str = "config/replica/";

/// Statestore key for an app's persisted registration.
pub fn app_key(name: &str) -> String {
    format!("{APP_KEY_PREFIX}{name}")
}

/// Statestore key for a model's persisted registration.
pub fn model_key(name: &str) -> String {
    format!("{MODEL_KEY_PREFIX}{name}")
}

/// Statestore key for a fleet replica's persisted registration.
pub fn replica_key(name: &str) -> String {
    format!("{REPLICA_KEY_PREFIX}{name}")
}

// ---------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------

/// Every failure the HTTP surface can report, with a canonical status
/// mapping. Data-plane failures arrive via [`PredictError`] (which carries
/// its own taxonomy); the remaining variants are control-plane outcomes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApiError {
    /// A data-plane (predict/feedback) failure.
    Predict(PredictError),
    /// Registration refused: the app already exists (use PATCH). HTTP 409.
    AppExists(String),
    /// The named app is not registered. HTTP 404.
    AppUnknown(String),
    /// The named model is not registered. HTTP 404.
    ModelUnknown(String),
    /// The model exists but the requested version was never registered.
    /// HTTP 404.
    VersionUnknown {
        /// Model name.
        model: String,
        /// The unregistered version.
        version: u32,
    },
    /// Registration refused: this model version already exists. HTTP 409.
    VersionExists {
        /// Model name.
        model: String,
        /// The already-registered version.
        version: u32,
    },
    /// Rollout refused: the requested version is already current. HTTP 409.
    AlreadyCurrent {
        /// Model name.
        model: String,
        /// The already-current version.
        version: u32,
    },
    /// Rollout refused: the target version has no live replicas, so
    /// repointing apps at it would immediately fail predicts. HTTP 409.
    NoReplicasForVersion {
        /// Model name.
        model: String,
        /// The replica-less version.
        version: u32,
    },
    /// Rollback refused: no rollout has happened, nothing to restore.
    /// HTTP 409.
    NoRolloutHistory(String),
    /// The named fleet replica is not registered. HTTP 404.
    ReplicaUnknown(String),
    /// The named fleet replica was expired by the health monitor; it must
    /// re-register, not heartbeat. HTTP 410.
    ReplicaGone(String),
    /// The request body or parameters were malformed. HTTP 400.
    BadRequest(String),
    /// No route matches the request. HTTP 404.
    NotFound,
    /// An internal failure (serialization, statestore). HTTP 500.
    Internal(String),
}

impl From<PredictError> for ApiError {
    fn from(e: PredictError) -> Self {
        ApiError::Predict(e)
    }
}

impl ApiError {
    /// Canonical HTTP status.
    pub fn http_status(&self) -> u16 {
        match self {
            ApiError::Predict(e) => e.http_status(),
            ApiError::AppExists(_)
            | ApiError::VersionExists { .. }
            | ApiError::AlreadyCurrent { .. }
            | ApiError::NoReplicasForVersion { .. }
            | ApiError::NoRolloutHistory(_) => 409,
            ApiError::AppUnknown(_)
            | ApiError::ModelUnknown(_)
            | ApiError::VersionUnknown { .. }
            | ApiError::ReplicaUnknown(_)
            | ApiError::NotFound => 404,
            ApiError::ReplicaGone(_) => 410,
            ApiError::BadRequest(_) => 400,
            ApiError::Internal(_) => 500,
        }
    }

    /// Stable machine-readable code.
    pub fn code(&self) -> &'static str {
        match self {
            ApiError::Predict(e) => e.code(),
            ApiError::AppExists(_) => "app_exists",
            ApiError::AppUnknown(_) => "app_unknown",
            ApiError::ModelUnknown(_) => "model_unknown",
            ApiError::VersionUnknown { .. } => "version_unknown",
            ApiError::VersionExists { .. } => "version_exists",
            ApiError::AlreadyCurrent { .. } => "already_current",
            ApiError::NoReplicasForVersion { .. } => "no_replicas_for_version",
            ApiError::NoRolloutHistory(_) => "no_rollout_history",
            ApiError::ReplicaUnknown(_) => "replica_unknown",
            ApiError::ReplicaGone(_) => "replica_gone",
            ApiError::BadRequest(_) => "bad_request",
            ApiError::NotFound => "not_found",
            ApiError::Internal(_) => "internal",
        }
    }

    /// Whether retrying the identical request later may succeed.
    pub fn is_retryable(&self) -> bool {
        match self {
            ApiError::Predict(e) => e.is_retryable(),
            _ => false,
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::Predict(e) => write!(f, "{e}"),
            ApiError::AppExists(name) => {
                write!(f, "application \"{name}\" already exists (PATCH to update)")
            }
            ApiError::AppUnknown(name) => write!(f, "unknown application \"{name}\""),
            ApiError::ModelUnknown(name) => write!(f, "unknown model \"{name}\""),
            ApiError::VersionUnknown { model, version } => {
                write!(f, "model \"{model}\" has no registered version {version}")
            }
            ApiError::VersionExists { model, version } => {
                write!(
                    f,
                    "model \"{model}\" version {version} is already registered"
                )
            }
            ApiError::AlreadyCurrent { model, version } => {
                write!(f, "model \"{model}\" version {version} is already current")
            }
            ApiError::NoReplicasForVersion { model, version } => {
                write!(
                    f,
                    "model \"{model}\" version {version} has no live replicas"
                )
            }
            ApiError::NoRolloutHistory(model) => {
                write!(f, "model \"{model}\" has no rollout to roll back")
            }
            ApiError::ReplicaUnknown(name) => write!(f, "unknown replica \"{name}\""),
            ApiError::ReplicaGone(name) => {
                write!(
                    f,
                    "replica \"{name}\" was expired by the health monitor; re-register"
                )
            }
            ApiError::BadRequest(m) => write!(f, "bad request: {m}"),
            ApiError::NotFound => write!(f, "not found"),
            ApiError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ApiError {}

/// The error payload inside [`ErrorBody`].
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct ErrorInfo {
    /// Stable machine-readable code (e.g. `"app_unknown"`).
    pub code: String,
    /// Human-readable message.
    pub message: String,
    /// Whether retrying the identical request later may succeed.
    pub retryable: bool,
    /// Whether this failure was load shedding (the shed-aware marker on
    /// 429 responses: the request was refused by an admission decision,
    /// not broken by a fault).
    pub shed: bool,
}

/// The JSON envelope of every error response: `{"error": {...}}`.
///
/// Always serde-serialized — error messages containing quotes,
/// backslashes, or control characters stay valid JSON.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct ErrorBody {
    /// The error payload.
    pub error: ErrorInfo,
}

impl ErrorBody {
    /// Build the envelope for an error.
    pub(crate) fn of(err: &ApiError) -> Self {
        ErrorBody {
            error: ErrorInfo {
                code: err.code().to_string(),
                message: err.to_string(),
                retryable: err.is_retryable(),
                shed: matches!(err, ApiError::Predict(PredictError::Overloaded)),
            },
        }
    }
}

// ---------------------------------------------------------------------
// Output wire shape
// ---------------------------------------------------------------------

/// JSON shape for model outputs (the wire form of [`Output`], whose
/// tuple-variant enum can't derive serde directly).
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum JsonOutput {
    /// A class label.
    Class {
        /// The label.
        label: u32,
    },
    /// Per-class scores.
    Scores {
        /// The score vector.
        scores: Vec<f32>,
    },
    /// A label sequence (speech transcription).
    Labels {
        /// The sequence.
        labels: Vec<u32>,
    },
}

impl From<Output> for JsonOutput {
    fn from(o: Output) -> Self {
        match o {
            Output::Class(label) => JsonOutput::Class { label },
            Output::Scores(scores) => JsonOutput::Scores { scores },
            Output::Labels(labels) => JsonOutput::Labels { labels },
        }
    }
}

impl From<JsonOutput> for Output {
    fn from(o: JsonOutput) -> Self {
        match o {
            JsonOutput::Class { label } => Output::Class(label),
            JsonOutput::Scores { scores } => Output::Scores(scores),
            JsonOutput::Labels { labels } => Output::Labels(labels),
        }
    }
}

// ---------------------------------------------------------------------
// App lifecycle shapes
// ---------------------------------------------------------------------

/// `POST /api/v1/apps` request body: a full app registration.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct AppSpec {
    /// Application name (the predict/feedback routing key).
    pub name: String,
    /// Candidate models the selection layer chooses among.
    pub candidate_models: Vec<ModelId>,
    /// Selection policy (defaults to Exp3, η=0.1).
    #[serde(default)]
    pub policy: Option<PolicyKind>,
    /// Latency objective in milliseconds (defaults to 20).
    #[serde(default)]
    pub slo_ms: Option<u64>,
    /// Answer when no model responds in time (defaults to class 0).
    #[serde(default)]
    pub default_output: Option<JsonOutput>,
    /// Seed for the policy's reproducible randomness (defaults to 0).
    #[serde(default)]
    pub seed: Option<u64>,
}

impl AppSpec {
    /// Materialize the spec into an [`AppConfig`], filling defaults.
    pub(crate) fn into_config(self) -> AppConfig {
        let mut cfg = AppConfig::new(&self.name, self.candidate_models);
        if let Some(policy) = self.policy {
            cfg = cfg.with_policy(policy);
        }
        if let Some(ms) = self.slo_ms {
            cfg = cfg.with_slo(Duration::from_millis(ms));
        }
        if let Some(out) = self.default_output {
            cfg = cfg.with_default_output(out.into());
        }
        if let Some(seed) = self.seed {
            cfg = cfg.with_seed(seed);
        }
        cfg
    }
}

/// `PATCH /api/v1/apps/{app}` request body, and the delta
/// [`Clipper::update_app`](crate::Clipper::update_app) applies: absent
/// fields keep their current values.
#[derive(Clone, Debug, Default, Serialize, Deserialize, PartialEq)]
pub struct AppPatch {
    /// New latency objective in milliseconds.
    #[serde(default)]
    pub slo_ms: Option<u64>,
    /// New selection policy.
    #[serde(default)]
    pub policy: Option<PolicyKind>,
    /// New candidate model set.
    #[serde(default)]
    pub candidate_models: Option<Vec<ModelId>>,
    /// New default output.
    #[serde(default)]
    pub default_output: Option<JsonOutput>,
    /// New policy seed.
    #[serde(default)]
    pub seed: Option<u64>,
}

/// `GET /api/v1/apps[/{app}]` response shape (also what a registration
/// echoes back), and the statestore-persisted form of an app.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct AppView {
    /// Application name.
    pub name: String,
    /// Candidate models.
    pub candidate_models: Vec<ModelId>,
    /// Selection policy.
    pub policy: PolicyKind,
    /// Latency objective in milliseconds (rounded; for readability).
    pub slo_ms: u64,
    /// Latency objective in microseconds — the authoritative value, so
    /// sub-millisecond SLOs survive persist/rehydrate round-trips.
    pub slo_us: u64,
    /// Default output when nothing arrives in time.
    pub default_output: JsonOutput,
    /// Policy seed.
    pub seed: u64,
}

impl From<&AppConfig> for AppView {
    fn from(cfg: &AppConfig) -> Self {
        AppView {
            name: cfg.name.clone(),
            candidate_models: cfg.candidate_models.clone(),
            policy: cfg.policy.clone(),
            slo_ms: cfg.slo.as_millis() as u64,
            slo_us: cfg.slo.as_micros() as u64,
            default_output: cfg.default_output.clone().into(),
            seed: cfg.seed,
        }
    }
}

impl AppView {
    /// Rebuild the domain config (used by registry rehydration).
    pub(crate) fn into_config(self) -> AppConfig {
        AppConfig::new(&self.name, self.candidate_models)
            .with_policy(self.policy)
            .with_slo(Duration::from_micros(self.slo_us))
            .with_default_output(self.default_output.into())
            .with_seed(self.seed)
    }
}

// ---------------------------------------------------------------------
// Model lifecycle shapes
// ---------------------------------------------------------------------

/// One model name in `GET /api/v1/models`: version directory plus live
/// scheduler state of the current version.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct ModelView {
    /// Model name.
    pub name: String,
    /// The version predicts currently resolve to.
    pub current_version: u32,
    /// Every registered version (live or parked), ascending.
    pub versions: Vec<u32>,
    /// Rollback stack (most recent previous version last).
    pub history: Vec<u32>,
    /// Live replica queue ids of the current version.
    pub replicas: Vec<String>,
    /// Queued queries across the current version's replicas.
    pub queue_depth: usize,
    /// In-flight queries across the current version's replicas.
    pub inflight: usize,
}

/// One version's persisted configuration inside a [`ModelRecord`]. A
/// record that still carries the retired per-attach-position `replicas`
/// list, or the retired model-wide `latency_prior` inside `knobs`,
/// parses, and the key is ignored: a replica's warm start lives only in
/// its own [`ReplicaRecord`].
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct VersionBatchKnobs {
    /// The version this configuration belongs to.
    pub version: u32,
    /// The version's configuration, as it was registered.
    pub knobs: QueueConfig,
}

/// The statestore-persisted form of a model's version directory.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct ModelRecord {
    /// Model name.
    pub name: String,
    /// Current version.
    pub current: u32,
    /// Every registered version.
    pub versions: Vec<u32>,
    /// Rollback stack.
    pub history: Vec<u32>,
    /// Per-version configuration, so `sync_config()` restores every knob
    /// a version was registered with instead of resetting it to defaults.
    pub batch: Vec<VersionBatchKnobs>,
}

impl ModelRecord {
    /// The persisted configuration of `version`, if recorded.
    pub(crate) fn knobs_for(&self, version: u32) -> Option<&QueueConfig> {
        self.batch
            .iter()
            .find(|vb| vb.version == version)
            .map(|vb| &vb.knobs)
    }
}

// ---------------------------------------------------------------------
// Fleet replica registration (control-plane surface of `crate::fleet`)
// ---------------------------------------------------------------------

/// `POST /api/v1/replicas` request body — a container announcing itself
/// to the control plane.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct ReplicaSpec {
    /// Container name, stable across restarts of the same container —
    /// the fleet membership key.
    pub container_name: String,
    /// The model this container serves.
    pub model_name: String,
    /// The model version this container serves.
    pub model_version: u32,
    /// Attachment capabilities, matched against registered
    /// `ReplicaLauncher`s (e.g. `"local:noop"`); an empty list means the
    /// container will dial the RPC data plane itself.
    #[serde(default)]
    pub capabilities: Vec<String>,
}

/// The statestore-persisted form of a fleet replica registration —
/// `config/replica/*`, beside [`AppView`] and [`ModelRecord`], so a
/// restarted (or sibling) frontend re-adopts the registered fleet.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct ReplicaRecord {
    /// Container name (membership key).
    pub container_name: String,
    /// The model this container serves.
    pub model_name: String,
    /// The model version this container serves.
    pub model_version: u32,
    /// Attachment capabilities (see [`ReplicaSpec::capabilities`]).
    pub capabilities: Vec<String>,
    /// Lifecycle state at persist time: `"registered"` or `"expired"`.
    pub state: String,
    /// The learned latency curve harvested from the replica's queue when
    /// it expired — the one warm start a replica has, handed back when the
    /// same container re-registers. Written as `{alpha_us, beta_us}`; a
    /// tune that also carries `queue_id`, `b_max` and `samples` still
    /// parses.
    pub tune: Option<LatencyPrior>,
}

/// Persisted state value for a live registration.
pub(crate) const REPLICA_STATE_REGISTERED: &str = "registered";
/// Persisted state value for an expired (drained) registration.
pub(crate) const REPLICA_STATE_EXPIRED: &str = "expired";

/// `POST /api/v1/replicas` response body.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct RegisterOutcome {
    /// Echo of the membership key.
    pub container_name: String,
    /// The data-plane queue id, when the frontend attached the replica
    /// immediately (a launcher matched its capabilities). `None` means
    /// the container must dial `rpc_addr` and send `Register`.
    pub queue_id: Option<String>,
    /// The RPC data-plane address to dial when not attached in-process.
    pub rpc_addr: Option<String>,
    /// Whether a persisted tune warm-started this admission.
    pub warm_start: bool,
    /// The heartbeat interval the control plane expects, in milliseconds.
    pub heartbeat_interval_ms: u64,
}

/// Read-back shape for `GET /api/v1/replicas` — one row per member.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct ReplicaView {
    /// Container name (membership key).
    pub container_name: String,
    /// The model this member serves.
    pub model_name: String,
    /// The model version this member serves.
    pub model_version: u32,
    /// Health state: `"expired"` once the member expired; `"suspect"`
    /// while it is attached and its queue's one health answer reads
    /// heartbeat-silent or down (its transport reports itself dead);
    /// `"healthy"` otherwise (an unattached member reads `"healthy"`
    /// until it expires).
    pub health: String,
    /// The data-plane queue id, when attached.
    pub queue_id: Option<String>,
    /// Whether the autoscaler launched (and may reap) this member.
    pub managed: bool,
}

/// Summary of a [`sync_config`](crate::Clipper::sync_config) pass — one
/// frontend reconciling its in-memory registry against the statestore's
/// records, which another frontend (or its own previous life) wrote.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Model names adopted wholesale (unknown locally before the pass).
    pub adopted_models: usize,
    /// Versions of already-known models newly registered locally.
    pub adopted_versions: usize,
    /// Current-pointer moves applied locally (each ran the full local
    /// rollout path: repoint apps, quiesce, drain the old version).
    pub repointed: usize,
    /// Current-pointer moves that could not be applied yet —
    /// `"name:vN"` — typically because the target version has no local
    /// replicas; a later pass retries them.
    pub pending: Vec<String>,
    /// Apps adopted (unknown locally before the pass).
    pub adopted_apps: usize,
    /// Apps whose persisted record differed and were replaced locally.
    pub updated_apps: usize,
    /// Apps removed locally because their record was deleted.
    pub removed_apps: usize,
    /// Fleet replica records adopted into the local membership view
    /// (registered by another frontend sharing the statestore).
    pub adopted_replicas: usize,
    /// Statestore keys whose records failed to parse, or named an app
    /// that cannot serve, and were skipped.
    pub skipped: Vec<String>,
}

impl SyncReport {
    /// Whether the pass changed nothing (registry already converged).
    pub fn is_noop(&self) -> bool {
        *self == SyncReport::default()
    }
}

/// `POST /api/v1/models/{name}/rollout` request body.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct RolloutRequest {
    /// The version to make current.
    pub version: u32,
}

/// Response of a completed rollout or rollback.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct RolloutOutcome {
    /// Model name.
    pub model: String,
    /// The version that was current before.
    pub from_version: u32,
    /// The version that is current now.
    pub to_version: u32,
    /// Apps whose candidate sets were repointed.
    pub repointed_apps: Vec<String>,
    /// Replicas of the old version that were gracefully drained.
    pub drained_replicas: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::SchedulerPolicy;
    use crate::batching::{BatchStrategy, BreakerConfig, HedgeConfig};

    #[test]
    fn error_body_with_quotes_and_backslashes_stays_valid_json() {
        // The satellite regression: format!-built bodies emitted invalid
        // JSON for messages containing quotes. The serde path must not.
        let err = ApiError::AppUnknown("we\"ird\\app".to_string());
        let body = serde_json::to_string(&ErrorBody::of(&err)).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&body).expect("body must be JSON");
        assert_eq!(parsed["error"]["code"], "app_unknown");
        let round: ErrorBody = serde_json::from_str(&body).unwrap();
        assert!(round.error.message.contains("we\"ird\\app"));
    }

    #[test]
    fn taxonomy_maps_to_canonical_statuses() {
        assert_eq!(
            ApiError::from(PredictError::AppUnknown).http_status(),
            404,
            "unknown app is 404, never 500"
        );
        assert_eq!(
            ApiError::from(PredictError::ModelUnknown).http_status(),
            404
        );
        assert_eq!(ApiError::from(PredictError::Overloaded).http_status(), 429);
        assert_eq!(
            ApiError::from(PredictError::BadInput("x".into())).http_status(),
            400
        );
        assert_eq!(ApiError::from(PredictError::NoReplicas).http_status(), 503);
        assert_eq!(ApiError::AppExists("a".into()).http_status(), 409);
        assert_eq!(ApiError::NotFound.http_status(), 404);
    }

    #[test]
    fn upstream_errors_keep_their_retryability_on_the_wire() {
        use crate::error::UpstreamKind;
        // A retryable upstream failure (budget exhausted mid-retry) must
        // answer 503 with `retryable: true` — clients may safely resend.
        let retryable = ApiError::from(PredictError::Upstream {
            kind: UpstreamKind::ConnectionClosed,
            retryable: true,
            attempts: 3,
        });
        assert_eq!(retryable.http_status(), 503);
        let body = ErrorBody::of(&retryable);
        assert_eq!(body.error.code, "upstream");
        assert!(body.error.retryable);
        assert!(!body.error.shed, "an upstream fault is not load shedding");
        assert!(body.error.message.contains("3 attempt(s)"));
        // A non-retryable one (e.g. a remote application error) is a 500
        // and tells clients not to bother resending.
        let fatal = ApiError::from(PredictError::Upstream {
            kind: UpstreamKind::Remote,
            retryable: false,
            attempts: 1,
        });
        assert_eq!(fatal.http_status(), 500);
        assert!(!ErrorBody::of(&fatal).error.retryable);
    }

    #[test]
    fn overloaded_body_is_shed_aware() {
        let body = ErrorBody::of(&ApiError::from(PredictError::Overloaded));
        assert!(body.error.shed);
        assert!(body.error.retryable);
        let other = ErrorBody::of(&ApiError::from(PredictError::Failed("x".into())));
        assert!(!other.error.shed);
    }

    // The `*_wire_bytes_are_pinned` literals were recorded from the last
    // commit that still had the two-pass value-tree serializer and the
    // hand-written emitters beside it (the two agreed byte for byte): the
    // wire format is whatever those bytes say, not whatever the derive
    // happens to produce today.
    fn assert_wire<T: Serialize>(value: &T, golden: &str) {
        assert_eq!(serde_json::to_string(value).unwrap(), golden);
    }

    #[test]
    fn error_body_wire_bytes_are_pinned() {
        let errors = [
            ApiError::AppUnknown("we\"ird\\app".to_string()),
            ApiError::AppExists("plain".to_string()),
            ApiError::from(PredictError::Overloaded),
            ApiError::BadRequest("tabs\tand\nnewlines and \u{7} bells".to_string()),
            ApiError::Internal("unicode mêssage 世界".to_string()),
            ApiError::NotFound,
        ];
        let golden = [
            r#"{"error":{"code":"app_unknown","message":"unknown application \"we\"ird\\app\"","retryable":false,"shed":false}}"#,
            r#"{"error":{"code":"app_exists","message":"application \"plain\" already exists (PATCH to update)","retryable":false,"shed":false}}"#,
            r#"{"error":{"code":"overloaded","message":"replica queue overloaded","retryable":true,"shed":true}}"#,
            r#"{"error":{"code":"bad_request","message":"bad request: tabs\tand\nnewlines and \u0007 bells","retryable":false,"shed":false}}"#,
            r#"{"error":{"code":"internal","message":"internal error: unicode mêssage 世界","retryable":false,"shed":false}}"#,
            r#"{"error":{"code":"not_found","message":"not found","retryable":false,"shed":false}}"#,
        ];
        for (err, golden) in errors.iter().zip(golden) {
            assert_wire(&ErrorBody::of(err), golden);
        }
    }

    #[test]
    fn app_view_wire_bytes_are_pinned() {
        // Every `PolicyKind` and `JsonOutput` variant, escape-worthy
        // names, `slo_us` present and `None`, a `u64::MAX` seed.
        let policies = [
            PolicyKind::Exp3 { eta: 0.2 },
            PolicyKind::Exp4 { eta: 1.0 },
            PolicyKind::MajorityVote,
            PolicyKind::Static { model_index: 3 },
        ];
        let outputs = [
            JsonOutput::Class { label: 0 },
            JsonOutput::Scores {
                scores: vec![0.25, 1.0, -3.5],
            },
            JsonOutput::Labels {
                labels: vec![7, 8, 9],
            },
        ];
        let golden = [
            r#"{"name":"we\"ird\\app-0","candidate_models":[{"name":"m","version":1},{"name":"tab\tname","version":42}],"policy":{"Exp3":{"eta":0.2}},"slo_ms":20,"slo_us":20000,"default_output":{"kind":"class","label":0},"seed":18446744073709551615}"#,
            r#"{"name":"we\"ird\\app-1","candidate_models":[{"name":"m","version":1},{"name":"tab\tname","version":42}],"policy":{"Exp4":{"eta":1.0}},"slo_ms":20,"slo_us":20000,"default_output":{"kind":"scores","scores":[0.25,1.0,-3.5]},"seed":18446744073709551615}"#,
            r#"{"name":"we\"ird\\app-2","candidate_models":[{"name":"m","version":1},{"name":"tab\tname","version":42}],"policy":"MajorityVote","slo_ms":20,"slo_us":20000,"default_output":{"kind":"labels","labels":[7,8,9]},"seed":18446744073709551615}"#,
            r#"{"name":"we\"ird\\app-3","candidate_models":[{"name":"m","version":1},{"name":"tab\tname","version":42}],"policy":{"Static":{"model_index":3}},"slo_ms":20,"slo_us":20000,"default_output":{"kind":"class","label":0},"seed":18446744073709551615}"#,
        ];
        for (i, (policy, golden)) in policies.into_iter().zip(golden).enumerate() {
            let view = AppView {
                name: format!("we\"ird\\app-{i}"),
                candidate_models: vec![ModelId::new("m", 1), ModelId::new("tab\tname", 42)],
                policy,
                slo_ms: 20,
                slo_us: 20_000,
                default_output: outputs[i % outputs.len()].clone(),
                seed: u64::MAX,
            };
            assert_wire(&view, golden);
        }

        let list: Vec<AppView> = (0..3)
            .map(|i| AppView {
                name: format!("app-{i}"),
                candidate_models: vec![ModelId::new("m", i)],
                policy: PolicyKind::default(),
                slo_ms: 20,
                slo_us: 20_000,
                default_output: JsonOutput::Class { label: 0 },
                seed: i as u64,
            })
            .collect();
        assert_wire(
            &list,
            r#"[{"name":"app-0","candidate_models":[{"name":"m","version":0}],"policy":{"Exp3":{"eta":0.1}},"slo_ms":20,"slo_us":20000,"default_output":{"kind":"class","label":0},"seed":0},{"name":"app-1","candidate_models":[{"name":"m","version":1}],"policy":{"Exp3":{"eta":0.1}},"slo_ms":20,"slo_us":20000,"default_output":{"kind":"class","label":0},"seed":1},{"name":"app-2","candidate_models":[{"name":"m","version":2}],"policy":{"Exp3":{"eta":0.1}},"slo_ms":20,"slo_us":20000,"default_output":{"kind":"class","label":0},"seed":2}]"#,
        );
        assert_wire(&Vec::<AppView>::new(), "[]");
    }

    #[test]
    fn model_view_wire_bytes_are_pinned() {
        let views = vec![
            ModelView {
                name: "mnist-svm".to_string(),
                current_version: 2,
                versions: vec![1, 2, 3],
                history: vec![1],
                replicas: vec!["r\"0".to_string(), "r1".to_string()],
                queue_depth: 17,
                inflight: 3,
            },
            ModelView {
                name: String::new(),
                current_version: 0,
                versions: vec![],
                history: vec![],
                replicas: vec![],
                queue_depth: 0,
                inflight: 0,
            },
        ];
        let golden = [
            r#"{"name":"mnist-svm","current_version":2,"versions":[1,2,3],"history":[1],"replicas":["r\"0","r1"],"queue_depth":17,"inflight":3}"#,
            r#"{"name":"","current_version":0,"versions":[],"history":[],"replicas":[],"queue_depth":0,"inflight":0}"#,
        ];
        for (view, golden) in views.iter().zip(golden) {
            assert_wire(view, golden);
        }
        assert_wire(&views, &format!("[{},{}]", golden[0], golden[1]));
        assert_wire(&Vec::<ModelView>::new(), "[]");
    }

    #[test]
    fn metrics_snapshot_wire_bytes_are_pinned() {
        // Every `MetricValue` variant; keys come out sorted.
        use clipper_metrics::{MetricValue, RegistrySnapshot};
        let mut values = std::collections::BTreeMap::new();
        values.insert(
            "frontend.qps".to_string(),
            MetricValue::Counter { value: u64::MAX },
        );
        values.insert("queue.depth".to_string(), MetricValue::Gauge { value: -12 });
        values.insert(
            "latency\"us".to_string(),
            MetricValue::Histogram {
                count: 9,
                mean: 41.75,
                p50: 40,
                p95: 90,
                p99: 99,
                max: 120,
                min: 2,
            },
        );
        assert_wire(
            &RegistrySnapshot { values },
            r#"{"values":{"frontend.qps":{"kind":"counter","value":18446744073709551615},"latency\"us":{"kind":"histogram","count":9,"mean":41.75,"p50":40,"p95":90,"p99":99,"max":120,"min":2},"queue.depth":{"kind":"gauge","value":-12}}}"#,
        );
        let empty = RegistrySnapshot {
            values: Default::default(),
        };
        assert_wire(&empty, "{\"values\":{}}");
    }

    #[test]
    fn json_output_wire_bytes_are_pinned() {
        let outputs = [
            JsonOutput::Class { label: 0 },
            JsonOutput::Class { label: u32::MAX },
            JsonOutput::Scores { scores: vec![] },
            JsonOutput::Scores {
                scores: vec![0.25, 1.0, -3.5, 1.0 / 3.0, 1e10],
            },
            JsonOutput::Labels { labels: vec![] },
            JsonOutput::Labels {
                labels: vec![1, 2, 3],
            },
        ];
        let golden = [
            r#"{"kind":"class","label":0}"#,
            r#"{"kind":"class","label":4294967295}"#,
            r#"{"kind":"scores","scores":[]}"#,
            r#"{"kind":"scores","scores":[0.25,1.0,-3.5,0.3333333432674408,10000000000.0]}"#,
            r#"{"kind":"labels","labels":[]}"#,
            r#"{"kind":"labels","labels":[1,2,3]}"#,
        ];
        for (out, golden) in outputs.iter().zip(golden) {
            assert_wire(out, golden);
        }
        // A non-finite score is an error, never partial JSON.
        let bad = JsonOutput::Scores {
            scores: vec![f32::NAN],
        };
        assert_eq!(
            serde_json::to_string(&bad).unwrap_err().to_string(),
            "cannot serialize non-finite float"
        );
    }

    #[test]
    fn records_persisted_by_the_two_pass_codec_still_parse() {
        // Statestore bytes as the previous codec wrote them: a restart
        // onto this codec must rehydrate the same registry.
        let app: AppView = serde_json::from_str(
            r#"{"name":"app","candidate_models":[{"name":"m","version":3}],"policy":{"Exp4":{"eta":0.2}},"slo_ms":0,"slo_us":750,"default_output":{"kind":"scores","scores":[0.5,0.5]},"seed":9}"#,
        )
        .unwrap();
        let cfg = AppConfig::new("app", vec![ModelId::new("m", 3)])
            .with_policy(PolicyKind::Exp4 { eta: 0.2 })
            .with_slo(Duration::from_micros(750))
            .with_default_output(Output::Scores(vec![0.5, 0.5]))
            .with_seed(9);
        assert_eq!(app, AppView::from(&cfg));

        let model: ModelRecord = serde_json::from_str(
            r#"{"name":"m","current":2,"versions":[1,2],"history":[1],"batch":[{"version":2,"knobs":{"strategy":{"kind":"fixed","size":7},"slo_us":750,"batch_wait_timeout_us":2000,"queue_capacity":123,"max_batch_cap":64,"pipeline_depth":2,"drain_deadline_us":9000000,"latency_prior":{"alpha_us":120.5,"beta_us":33.25},"slo_admission":true,"retry_max_attempts":2,"hedge":{"delay_factor":2.5,"min_delay_us":900}},"replicas":[{"queue_id":"m:v2:0","alpha_us":140.0,"beta_us":41.5,"b_max":17,"samples":420}]},{"version":1,"knobs":{"strategy":{"kind":"aimd","step":2.0,"backoff":0.9},"slo_us":20000,"batch_wait_timeout_us":0,"queue_capacity":8192,"max_batch_cap":4096,"pipeline_depth":1,"drain_deadline_us":5000000,"latency_prior":null,"slo_admission":false,"retry_max_attempts":3,"hedge":null},"replicas":[]}]}"#,
        )
        .unwrap();
        // The retired `latency_prior` and `replicas` keys are ignored, and
        // the `breaker` and `scheduler` these records predate read their
        // defaults.
        let expected = ModelRecord {
            name: "m".into(),
            current: 2,
            versions: vec![1, 2],
            history: vec![1],
            batch: vec![
                VersionBatchKnobs {
                    version: 2,
                    knobs: QueueConfig {
                        strategy: BatchStrategy::Fixed { size: 7 },
                        slo: Duration::from_micros(750),
                        batch_wait_timeout: Duration::from_millis(2),
                        queue_capacity: 123,
                        max_batch_cap: 64,
                        pipeline_depth: 2,
                        drain_deadline: Duration::from_secs(9),
                        slo_admission: true,
                        retry_max_attempts: 2,
                        hedge: Some(HedgeConfig {
                            delay_factor: 2.5,
                            min_delay: Duration::from_micros(900),
                        }),
                        ..QueueConfig::default()
                    },
                },
                VersionBatchKnobs {
                    version: 1,
                    knobs: QueueConfig::default(),
                },
            ],
        };
        assert_eq!(model, expected);

        let golden = [
            r#"{"container_name":"c-0","model_name":"m","model_version":2,"capabilities":["local:noop"],"state":"expired","tune":{"alpha_us":140.0,"beta_us":41.5}}"#,
            r#"{"container_name":"c-1","model_name":"m","model_version":1,"capabilities":[],"state":"registered","tune":null}"#,
        ];
        let expected_expired = ReplicaRecord {
            container_name: "c-0".into(),
            model_name: "m".into(),
            model_version: 2,
            capabilities: vec!["local:noop".into()],
            state: REPLICA_STATE_EXPIRED.into(),
            tune: Some(LatencyPrior {
                alpha_us: 140.0,
                beta_us: 41.5,
            }),
        };
        let expired: ReplicaRecord = serde_json::from_str(golden[0]).unwrap();
        assert_eq!(expired, expected_expired);
        // A tombstone whose tune also carries the retired `queue_id`,
        // `b_max` and `samples` keys reads as the same curve.
        let with_retired_keys: ReplicaRecord = serde_json::from_str(
            r#"{"container_name":"c-0","model_name":"m","model_version":2,"capabilities":["local:noop"],"state":"expired","tune":{"queue_id":"m:v2:0","alpha_us":140.0,"beta_us":41.5,"b_max":17,"samples":420}}"#,
        )
        .unwrap();
        assert_eq!(with_retired_keys, expected_expired);
        let registered: ReplicaRecord = serde_json::from_str(golden[1]).unwrap();
        assert_eq!(
            registered,
            ReplicaRecord {
                container_name: "c-1".into(),
                model_name: "m".into(),
                model_version: 1,
                capabilities: vec![],
                state: REPLICA_STATE_REGISTERED.into(),
                tune: None,
            }
        );
        // And what this codec writes for them is what was read.
        assert_wire(
            &app,
            r#"{"name":"app","candidate_models":[{"name":"m","version":3}],"policy":{"Exp4":{"eta":0.2}},"slo_ms":0,"slo_us":750,"default_output":{"kind":"scores","scores":[0.5,0.5]},"seed":9}"#,
        );
        assert_wire(&expired, golden[0]);
        assert_wire(&registered, golden[1]);
    }

    #[test]
    fn json_output_round_trips() {
        for out in [
            Output::Class(7),
            Output::Scores(vec![0.25, 0.75]),
            Output::Labels(vec![1, 2, 3]),
        ] {
            let wire: JsonOutput = out.clone().into();
            let json = serde_json::to_string(&wire).unwrap();
            let back: JsonOutput = serde_json::from_str(&json).unwrap();
            assert_eq!(Output::from(back), out);
        }
    }

    #[test]
    fn app_spec_fills_defaults() {
        let spec: AppSpec = serde_json::from_str(
            "{\"name\":\"a\",\"candidate_models\":[{\"name\":\"m\",\"version\":1}]}",
        )
        .unwrap();
        let cfg = spec.into_config();
        assert_eq!(cfg.name, "a");
        assert_eq!(cfg.slo, Duration::from_millis(20));
        assert_eq!(cfg.default_output, Output::Class(0));
    }

    #[test]
    fn sub_millisecond_slo_survives_the_record_round_trip() {
        // Regression: persisting only whole milliseconds truncated a
        // 500 µs SLO to zero, silencing the app after rehydration.
        let cfg =
            AppConfig::new("app", vec![ModelId::new("m", 1)]).with_slo(Duration::from_micros(500));
        let record = AppView::from(&cfg);
        let json = serde_json::to_string(&record).unwrap();
        let back: AppView = serde_json::from_str(&json).unwrap();
        assert_eq!(back.into_config().slo, Duration::from_micros(500));
    }

    #[test]
    fn app_record_round_trips_through_json() {
        let cfg = AppConfig::new("app", vec![ModelId::new("m", 3)])
            .with_policy(PolicyKind::Exp4 { eta: 0.2 })
            .with_slo(Duration::from_millis(75))
            .with_default_output(Output::Scores(vec![0.5, 0.5]))
            .with_seed(9);
        let record = AppView::from(&cfg);
        let json = serde_json::to_string(&record).unwrap();
        let back: AppView = serde_json::from_str(&json).unwrap();
        assert_eq!(back.into_config(), cfg);
    }

    #[test]
    fn app_patch_defaults_to_empty() {
        let patch: AppPatch = serde_json::from_str("{}").unwrap();
        assert_eq!(patch, AppPatch::default());
        let patch: AppPatch = serde_json::from_str("{\"slo_ms\": 50}").unwrap();
        assert_ne!(patch, AppPatch::default());
        let cfg = AppConfig::new("a", vec![ModelId::new("m", 1)]).apply(patch);
        assert_eq!(cfg.slo, Duration::from_millis(50));
    }

    /// A version's tuning as this codec writes it: every field of its
    /// [`QueueConfig`], the keys of records written before the breaker and
    /// the scheduler persisted in their old order, then those two.
    fn tuned() -> QueueConfig {
        QueueConfig {
            strategy: BatchStrategy::Fixed { size: 7 },
            slo: Duration::from_micros(750),
            batch_wait_timeout: Duration::from_millis(2),
            queue_capacity: 123,
            max_batch_cap: 64,
            pipeline_depth: 2,
            drain_deadline: Duration::from_secs(9),
            slo_admission: true,
            retry_max_attempts: 2,
            hedge: Some(HedgeConfig {
                delay_factor: 2.5,
                min_delay: Duration::from_micros(900),
            }),
            breaker: BreakerConfig {
                cooldown: Duration::from_millis(10),
            },
            scheduler: SchedulerPolicy::RoundRobin,
        }
    }

    #[test]
    fn model_record_wire_bytes_are_pinned() {
        let rec = ModelRecord {
            name: "m".into(),
            current: 2,
            versions: vec![1, 2],
            history: vec![1],
            batch: vec![
                VersionBatchKnobs {
                    version: 2,
                    knobs: tuned(),
                },
                VersionBatchKnobs {
                    version: 1,
                    knobs: QueueConfig::default(),
                },
            ],
        };
        let golden = r#"{"name":"m","current":2,"versions":[1,2],"history":[1],"batch":[{"version":2,"knobs":{"strategy":{"kind":"fixed","size":7},"slo_us":750,"batch_wait_timeout_us":2000,"queue_capacity":123,"max_batch_cap":64,"pipeline_depth":2,"drain_deadline_us":9000000,"slo_admission":true,"retry_max_attempts":2,"hedge":{"delay_factor":2.5,"min_delay_us":900},"breaker":{"cooldown_us":10000},"scheduler":"round_robin"}},{"version":1,"knobs":{"strategy":{"kind":"aimd","step":2.0,"backoff":0.9},"slo_us":20000,"batch_wait_timeout_us":0,"queue_capacity":8192,"max_batch_cap":4096,"pipeline_depth":1,"drain_deadline_us":5000000,"slo_admission":false,"retry_max_attempts":3,"hedge":null,"breaker":{"cooldown_us":500000},"scheduler":"power_of_two_choices"}}]}"#;
        assert_wire(&rec, golden);
        assert_eq!(serde_json::from_str::<ModelRecord>(golden).unwrap(), rec);
    }

    #[test]
    fn model_record_round_trips() {
        let rec = ModelRecord {
            name: "m".into(),
            current: 2,
            versions: vec![1, 2],
            history: vec![1],
            batch: vec![VersionBatchKnobs {
                version: 2,
                knobs: tuned(),
            }],
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back = serde_json::from_str::<ModelRecord>(&json).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.knobs_for(2), Some(&tuned()));
        assert!(back.knobs_for(1).is_none());
        // Every field is written, so a record that lacks one is unreadable.
        let without_batch = json.replace(&json[json.find(",\"batch\"").unwrap()..], "}");
        assert!(serde_json::from_str::<ModelRecord>(&without_batch).is_err());
    }

    #[test]
    fn batch_strategy_round_trips_every_variant() {
        for strategy in [
            BatchStrategy::Aimd {
                step: 2.0,
                backoff: 0.9,
            },
            BatchStrategy::QuantileRegression,
            BatchStrategy::Fixed { size: 64 },
            BatchStrategy::Autotune { headroom: 0.1 },
        ] {
            let json = serde_json::to_string(&strategy).unwrap();
            let back: BatchStrategy = serde_json::from_str(&json).unwrap();
            assert_eq!(back, strategy);
        }
        // The retired fifth variant no longer parses: a record carrying
        // it is skipped like any other unreadable record.
        assert!(serde_json::from_str::<BatchStrategy>("{\"kind\":\"no_batching\"}").is_err());
    }
}
