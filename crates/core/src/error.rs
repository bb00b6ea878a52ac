//! The predict path's one error type.
//!
//! [`PredictError`] is what every layer of a predict — selection, cache,
//! scheduler, replica queue — returns and what the prediction cache
//! delivers to waiters; the HTTP frontend maps it to a status through
//! `PredictError::http_status` without reading message strings.

use clipper_rpc::RpcError;

/// Cloneable prediction failure (fans out to many waiters).
///
/// The variants form a typed taxonomy with a canonical HTTP mapping
/// (`http_status`): callers — the HTTP
/// frontend in particular — never have to pattern-match on message
/// strings to decide between 400, 404, 429, 500, and 503.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PredictError {
    /// Every eligible replica queue was full — shed load instead of
    /// growing latency. HTTP 429.
    Overloaded,
    /// The model has no live replicas. HTTP 503.
    NoReplicas,
    /// The model is not registered. HTTP 404.
    ModelUnknown,
    /// The application is not registered. HTTP 404.
    AppUnknown,
    /// The caller's input was malformed (e.g. an empty feature vector).
    /// HTTP 400.
    BadInput(String),
    /// Evaluation failed (RPC or container error). HTTP 500.
    Failed(String),
    /// The upstream replica failed the batch with a typed transport
    /// error, after `attempts` dispatch attempts (> 1 means redispatch
    /// was tried and exhausted). Retryable kinds map to HTTP 503 —
    /// another replica, or the same one a moment later, may well serve
    /// the request — non-retryable kinds to HTTP 500.
    Upstream {
        /// What failed upstream.
        kind: UpstreamKind,
        /// Whether a retry elsewhere could have succeeded (mirrors
        /// [`clipper_rpc::RpcError::is_retryable`]).
        retryable: bool,
        /// Dispatch attempts consumed before giving up.
        attempts: u32,
    },
}

/// The typed cause of a [`PredictError::Upstream`] failure — the
/// [`clipper_rpc::RpcError`] taxonomy minus payloads, plus the queue's
/// own breaker refusal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpstreamKind {
    /// Underlying socket error.
    Io,
    /// The replica closed the connection mid-request.
    ConnectionClosed,
    /// The RPC waited past its deadline.
    Timeout,
    /// Malformed frame or unexpected message.
    Protocol,
    /// Dropped by fault injection.
    Injected,
    /// The container rejected the batch.
    Remote,
    /// The replica's circuit breaker was open and no sibling could take
    /// the query.
    BreakerOpen,
}

impl UpstreamKind {
    /// Classify a transport error.
    pub(crate) fn of(e: &RpcError) -> Self {
        match e {
            RpcError::Io(_) => UpstreamKind::Io,
            RpcError::ConnectionClosed => UpstreamKind::ConnectionClosed,
            RpcError::Timeout => UpstreamKind::Timeout,
            RpcError::Protocol(_) => UpstreamKind::Protocol,
            RpcError::Injected => UpstreamKind::Injected,
            RpcError::Remote(_) => UpstreamKind::Remote,
        }
    }

    /// Stable label for messages and metrics.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            UpstreamKind::Io => "io",
            UpstreamKind::ConnectionClosed => "connection_closed",
            UpstreamKind::Timeout => "timeout",
            UpstreamKind::Protocol => "protocol",
            UpstreamKind::Injected => "injected",
            UpstreamKind::Remote => "remote",
            UpstreamKind::BreakerOpen => "breaker_open",
        }
    }
}

impl std::fmt::Display for UpstreamKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PredictError {
    /// Canonical HTTP status for this failure.
    pub(crate) fn http_status(&self) -> u16 {
        match self {
            PredictError::Overloaded => 429,
            PredictError::NoReplicas => 503,
            PredictError::ModelUnknown | PredictError::AppUnknown => 404,
            PredictError::BadInput(_) => 400,
            PredictError::Failed(_) => 500,
            PredictError::Upstream { retryable, .. } => {
                if *retryable {
                    503
                } else {
                    500
                }
            }
        }
    }

    /// Stable machine-readable code for error bodies.
    pub(crate) fn code(&self) -> &'static str {
        match self {
            PredictError::Overloaded => "overloaded",
            PredictError::NoReplicas => "no_replicas",
            PredictError::ModelUnknown => "model_unknown",
            PredictError::AppUnknown => "app_unknown",
            PredictError::BadInput(_) => "bad_input",
            PredictError::Failed(_) => "internal",
            PredictError::Upstream { .. } => "upstream",
        }
    }

    /// Whether retrying the same request later may succeed (transient
    /// capacity/timing failures, not caller or registration errors).
    pub(crate) fn is_retryable(&self) -> bool {
        matches!(
            self,
            PredictError::Overloaded
                | PredictError::NoReplicas
                | PredictError::Upstream {
                    retryable: true,
                    ..
                }
        )
    }
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::Overloaded => write!(f, "replica queue overloaded"),
            PredictError::NoReplicas => write!(f, "no replicas available"),
            PredictError::ModelUnknown => write!(f, "unknown model"),
            PredictError::AppUnknown => write!(f, "unknown application"),
            PredictError::BadInput(m) => write!(f, "bad input: {m}"),
            PredictError::Failed(m) => write!(f, "prediction failed: {m}"),
            PredictError::Upstream { kind, attempts, .. } => write!(
                f,
                "upstream replica failure ({kind}) after {attempts} attempt(s)"
            ),
        }
    }
}

impl std::error::Error for PredictError {}
