//! Serializable snapshots of registry state.

use serde::Serialize;
use std::collections::BTreeMap;

/// The value of a single metric at snapshot time.
#[derive(Clone, Debug, Serialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter {
        /// Current count.
        value: u64,
    },
    /// Instantaneous gauge value.
    Gauge {
        /// Current value.
        value: i64,
    },
    /// Histogram summary (values in microseconds by convention).
    Histogram {
        /// Number of samples.
        count: u64,
        /// Arithmetic mean.
        mean: f64,
        /// Median.
        p50: u64,
        /// 95th percentile.
        p95: u64,
        /// 99th percentile.
        p99: u64,
        /// Exact observed maximum.
        max: u64,
        /// Exact observed minimum.
        min: u64,
    },
}

/// A snapshot of every metric in a [`crate::Registry`].
#[derive(Clone, Debug, Serialize)]
pub struct RegistrySnapshot {
    /// Metric values keyed by registered name.
    pub values: BTreeMap<String, MetricValue>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_serializes_to_json() {
        let mut values = BTreeMap::new();
        values.insert("qps".into(), MetricValue::Gauge { value: 42 });
        let snap = RegistrySnapshot { values };
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"qps\""));
        assert!(json.contains("42"));
    }
}
