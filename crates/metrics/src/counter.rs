//! Lock-free counters and gauges.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
///
/// Cloning shares the underlying value; increments are relaxed atomics so a
/// counter on the hot serving path costs one uncontended atomic add.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Create a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero, returning the previous value.
    ///
    /// Used by experiment harnesses that measure per-interval deltas.
    pub fn reset(&self) -> u64 {
        self.value.swap(0, Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depths, current batch size, ...).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Create a gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        assert_eq!(c.reset(), 42);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_is_shared_across_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.inc();
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn counter_concurrent_increments_all_land() {
        let c = Counter::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_set_overwrites_and_can_go_negative() {
        let g = Gauge::new();
        g.set(10);
        assert_eq!(g.get(), 10);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }
}
