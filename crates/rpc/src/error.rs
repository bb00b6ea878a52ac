//! RPC error types.

use std::fmt;

/// Errors surfaced by the RPC layer and every [`crate::transport::BatchTransport`].
#[derive(Debug)]
pub enum RpcError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// The peer closed the connection (pending requests are failed).
    ConnectionClosed,
    /// The request waited past its deadline (straggler-mitigation path).
    Timeout,
    /// Malformed frame or unexpected message.
    Protocol(String),
    /// Dropped by fault injection.
    Injected,
    /// The container rejected the batch (e.g. handler panic).
    Remote(String),
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Io(e) => write!(f, "io error: {e}"),
            RpcError::ConnectionClosed => write!(f, "connection closed"),
            RpcError::Timeout => write!(f, "request timed out"),
            RpcError::Protocol(m) => write!(f, "protocol error: {m}"),
            RpcError::Injected => write!(f, "dropped by fault injection"),
            RpcError::Remote(m) => write!(f, "remote error: {m}"),
        }
    }
}

impl std::error::Error for RpcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RpcError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RpcError {
    fn from(e: std::io::Error) -> Self {
        RpcError::Io(e)
    }
}

impl RpcError {
    /// Whether the caller may retry on another replica (transient faults).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            RpcError::ConnectionClosed | RpcError::Timeout | RpcError::Injected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(RpcError::Timeout.to_string().contains("timed out"));
        assert!(RpcError::Protocol("bad magic".into())
            .to_string()
            .contains("bad magic"));
    }

    #[test]
    fn retryability_classification() {
        assert!(RpcError::Timeout.is_retryable());
        assert!(RpcError::ConnectionClosed.is_retryable());
        assert!(RpcError::Injected.is_retryable());
        assert!(!RpcError::Protocol("x".into()).is_retryable());
        assert!(!RpcError::Remote("x".into()).is_retryable());
    }

    #[test]
    fn io_error_converts_and_chains() {
        let e: RpcError = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe").into();
        assert!(matches!(e, RpcError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
