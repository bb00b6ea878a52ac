//! A named metric registry.
//!
//! Components register their counters, gauges and histograms under
//! slash-separated names (`cache/hits`, `queue/mnist:0/batch_size`), and the
//! frontend or an experiment harness snapshots the whole registry at once.

use crate::{Counter, Gauge, Histogram, MetricValue, RegistrySnapshot};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    /// A counter whose value is read on demand at snapshot time. Lets
    /// components that keep their own relaxed atomics (e.g. the sharded
    /// prediction cache) report without double-counting on the hot path.
    PollCounter(Arc<dyn Fn() -> u64 + Send + Sync>),
    /// A gauge read on demand at snapshot time — for instantaneous state
    /// (queue depth, in-flight queries) that components already track.
    PollGauge(Arc<dyn Fn() -> i64 + Send + Sync>),
}

/// A concurrent, clonable collection of named counters, gauges and
/// histograms.
///
/// [`Registry::counter`], [`Registry::gauge`] and [`Registry::histogram`]
/// are get-or-create: repeated registration under the same name returns
/// the same underlying metric, so independent components can share a
/// metric by name alone. [`Registry::poll_counter`] and
/// [`Registry::poll_gauge`] report a value a component already keeps.
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Arc<RwLock<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.write();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the gauge named `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.write();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the histogram named `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.write();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Register (or replace) a counter that is *polled* at snapshot time
    /// instead of incremented: `read` is called once per
    /// [`Registry::snapshot`] and its value reported as a counter.
    ///
    /// Unlike the `get_or_*` methods this overwrites an existing polled
    /// counter under the same name (the newest source wins).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a non-polled metric.
    pub fn poll_counter(&self, name: &str, read: impl Fn() -> u64 + Send + Sync + 'static) {
        let mut m = self.metrics.write();
        match m.entry(name.to_string()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(Metric::PollCounter(Arc::new(read)));
            }
            std::collections::btree_map::Entry::Occupied(mut e) => match e.get() {
                Metric::PollCounter(_) => {
                    e.insert(Metric::PollCounter(Arc::new(read)));
                }
                _ => panic!("metric {name:?} already registered with a different kind"),
            },
        }
    }

    /// Register (or replace) a gauge that is *polled* at snapshot time:
    /// `read` is called once per [`Registry::snapshot`] and its value
    /// reported as a gauge. Like [`Registry::poll_counter`], repeated
    /// registration under the same name replaces the source.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a non-polled-gauge metric.
    pub fn poll_gauge(&self, name: &str, read: impl Fn() -> i64 + Send + Sync + 'static) {
        let mut m = self.metrics.write();
        match m.entry(name.to_string()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(Metric::PollGauge(Arc::new(read)));
            }
            std::collections::btree_map::Entry::Occupied(mut e) => match e.get() {
                Metric::PollGauge(_) => {
                    e.insert(Metric::PollGauge(Arc::new(read)));
                }
                _ => panic!("metric {name:?} already registered with a different kind"),
            },
        }
    }

    /// Remove every metric whose name starts with `prefix`. Used when a
    /// component with per-instance metrics (e.g. a replica queue) is
    /// decommissioned, so the registry does not grow without bound under
    /// instance churn. Handles already held by the component keep
    /// working; they just stop being reported.
    pub fn unregister_prefix(&self, prefix: &str) -> usize {
        let mut m = self.metrics.write();
        let doomed: Vec<String> = m
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        for k in &doomed {
            m.remove(k);
        }
        doomed.len()
    }

    /// Snapshot every metric for reporting.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let m = self.metrics.read();
        let mut values = BTreeMap::new();
        for (name, metric) in m.iter() {
            let v = match metric {
                Metric::Counter(c) => MetricValue::Counter { value: c.get() },
                Metric::PollCounter(read) => MetricValue::Counter { value: read() },
                Metric::PollGauge(read) => MetricValue::Gauge { value: read() },
                Metric::Gauge(g) => MetricValue::Gauge { value: g.get() },
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    MetricValue::Histogram {
                        count: s.count(),
                        mean: s.mean(),
                        p50: s.p50(),
                        p95: s.p95(),
                        p99: s.p99(),
                        max: s.max(),
                        min: s.min(),
                    }
                }
            };
            values.insert(name.clone(), v);
        }
        RegistrySnapshot { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(r: &Registry) -> Vec<String> {
        r.snapshot().values.into_keys().collect()
    }

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let c1 = r.counter("cache/hits");
        let c2 = r.counter("cache/hits");
        c1.inc();
        c2.inc();
        assert_eq!(c1.get(), 2);
        assert_eq!(names(&r), vec!["cache/hits".to_string()]);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter("x");
        r.histogram("x");
    }

    #[test]
    fn snapshot_includes_all_kinds() {
        let r = Registry::new();
        r.counter("c").add(5);
        r.gauge("g").set(-2);
        r.histogram("h").record(100);
        let snap = r.snapshot();
        assert_eq!(snap.values.len(), 3);
        assert!(matches!(
            snap.values["c"],
            MetricValue::Counter { value: 5 }
        ));
        assert!(matches!(snap.values["g"], MetricValue::Gauge { value: -2 }));
        assert!(matches!(
            snap.values["h"],
            MetricValue::Histogram { count: 1, .. }
        ));
    }

    #[test]
    fn poll_counter_reads_at_snapshot_time() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let r = Registry::new();
        let source = Arc::new(AtomicU64::new(3));
        let s = source.clone();
        r.poll_counter("cache/hits", move || s.load(Ordering::Relaxed));
        assert!(matches!(
            r.snapshot().values["cache/hits"],
            MetricValue::Counter { value: 3 }
        ));
        source.store(11, Ordering::Relaxed);
        assert!(matches!(
            r.snapshot().values["cache/hits"],
            MetricValue::Counter { value: 11 }
        ));
        // Re-registration replaces the source.
        r.poll_counter("cache/hits", || 42);
        assert!(matches!(
            r.snapshot().values["cache/hits"],
            MetricValue::Counter { value: 42 }
        ));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn poll_counter_conflicts_with_other_kinds() {
        let r = Registry::new();
        r.histogram("x");
        r.poll_counter("x", || 0);
    }

    #[test]
    fn poll_gauge_reads_at_snapshot_time() {
        use std::sync::atomic::{AtomicI64, Ordering};
        let r = Registry::new();
        let depth = Arc::new(AtomicI64::new(5));
        let d = depth.clone();
        r.poll_gauge("model/m/depth", move || d.load(Ordering::Relaxed));
        assert!(matches!(
            r.snapshot().values["model/m/depth"],
            MetricValue::Gauge { value: 5 }
        ));
        depth.store(-1, Ordering::Relaxed);
        assert!(matches!(
            r.snapshot().values["model/m/depth"],
            MetricValue::Gauge { value: -1 }
        ));
        // Re-registration replaces the source.
        r.poll_gauge("model/m/depth", || 9);
        assert!(matches!(
            r.snapshot().values["model/m/depth"],
            MetricValue::Gauge { value: 9 }
        ));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn poll_gauge_conflicts_with_other_kinds() {
        let r = Registry::new();
        r.counter("y");
        r.poll_gauge("y", || 0);
    }

    #[test]
    fn unregister_prefix_removes_only_matching_metrics() {
        let r = Registry::new();
        r.counter("queue/m:v1:0/shed");
        r.histogram("queue/m:v1:0/batch_size");
        r.poll_gauge("queue/m:v1:0/depth", || 1);
        r.counter("queue/m:v1:10/shed"); // shares a string prefix, distinct id
        assert_eq!(r.unregister_prefix("queue/m:v1:0/"), 3);
        assert_eq!(names(&r), vec!["queue/m:v1:10/shed".to_string()]);
    }

    #[test]
    fn snapshot_keys_are_sorted() {
        let r = Registry::new();
        r.counter("zeta");
        r.counter("alpha");
        assert_eq!(names(&r), vec!["alpha".to_string(), "zeta".to_string()]);
    }
}
