//! Simulated GPU device and the paper's deep-model zoo.
//!
//! The paper's Figure-6/11 experiments run conv nets on a Tesla K20c. What
//! those experiments actually exercise is two properties of GPU serving:
//!
//! 1. **wave-parallel batching** — a batch of `b` inputs costs
//!    `ceil(b / wave_size) · wave_time`, so larger batches amortize
//!    beautifully up to the device's parallel width, then step;
//! 2. **serial device occupancy** — one batch owns the device at a time,
//!    so the serving layer must pipeline (queue the next batch during the
//!    current one) to saturate it.
//!
//! [`GpuDevice`] reproduces both: a mutex-guarded device whose holder
//! "computes" for the wave-model duration. Model answers still come from
//! real model code; only the clock is simulated.

use crate::latency::precise_sleep;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Execution-cost spec for one deep model on the simulated GPU.
#[derive(Clone, Debug)]
pub struct GpuModelSpec {
    /// Human-readable name ("inception-v3", ...).
    pub name: String,
    /// Layer description for Table-2 style reporting.
    pub layers: String,
    /// Inputs evaluated in parallel per wave (the hand-tuned batch size in
    /// the paper's Figure 11: MNIST 512, CIFAR 128, ImageNet 16).
    pub wave_size: usize,
    /// Time for one wave on the device.
    pub wave_time: Duration,
    /// Fixed per-batch dispatch cost (kernel launch, PCIe copy).
    pub dispatch: Duration,
}

impl GpuModelSpec {
    /// Expected device time for a batch of `n`.
    pub(crate) fn batch_time(&self, n: usize) -> Duration {
        if n == 0 {
            return Duration::ZERO;
        }
        let waves = n.div_ceil(self.wave_size) as u32;
        self.dispatch + self.wave_time * waves
    }

    /// Peak throughput (items/s) with full waves and perfect pipelining.
    pub fn peak_throughput(&self) -> f64 {
        self.wave_size as f64 / self.batch_time(self.wave_size).as_secs_f64()
    }
}

/// A serially-shared accelerator: batches execute one at a time.
///
/// Execution is blocking (call from a worker thread or `spawn_blocking`);
/// the device mutex is held for the full compute duration, which is the
/// point — it makes device contention visible as queueing delay, exactly
/// like a real GPU.
pub struct GpuDevice {
    spec: GpuModelSpec,
    device: Mutex<()>,
}

impl GpuDevice {
    /// Create a device executing `spec`.
    pub fn new(spec: GpuModelSpec) -> Arc<Self> {
        Arc::new(GpuDevice {
            spec,
            device: Mutex::new(()),
        })
    }

    /// Execute a batch, blocking until the device is free and the compute
    /// completes. Returns `(queue_wait, compute_time)`.
    pub(crate) fn execute_blocking(&self, batch_size: usize) -> (Duration, Duration) {
        let enqueue = Instant::now();
        let guard = self.device.lock();
        let queue_wait = enqueue.elapsed();
        let compute = self.spec.batch_time(batch_size);
        if compute > Duration::ZERO {
            precise_sleep(compute);
        }
        drop(guard);
        (queue_wait, compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(wave: usize, ms: u64) -> GpuModelSpec {
        GpuModelSpec {
            name: "test-net".into(),
            layers: "2 Conv".into(),
            wave_size: wave,
            wave_time: Duration::from_millis(ms),
            dispatch: Duration::ZERO,
        }
    }

    #[test]
    fn batch_time_steps_at_wave_boundaries() {
        let s = spec(16, 10);
        assert_eq!(s.batch_time(0), Duration::ZERO);
        assert_eq!(s.batch_time(1), Duration::from_millis(10));
        assert_eq!(s.batch_time(16), Duration::from_millis(10));
        assert_eq!(s.batch_time(17), Duration::from_millis(20));
        assert_eq!(s.batch_time(32), Duration::from_millis(20));
    }

    #[test]
    fn peak_throughput_matches_wave_math() {
        let s = spec(512, 22);
        // 512 items / 22ms ≈ 23,272 items/s — the Figure-11 MNIST regime.
        let t = s.peak_throughput();
        assert!((t - 512.0 / 0.022).abs() < 1.0, "throughput {t}");
    }

    #[test]
    fn device_serializes_batches() {
        let dev = GpuDevice::new(spec(8, 20));
        let d1 = dev.clone();
        let first = std::thread::spawn(move || d1.execute_blocking(8));
        // Let the first batch grab the device.
        std::thread::sleep(Duration::from_millis(5));
        let (queue_wait, compute) = dev.execute_blocking(8);
        first.join().unwrap();
        assert!(
            queue_wait >= Duration::from_millis(10),
            "second batch should wait for the device, waited {queue_wait:?}"
        );
        assert_eq!(compute, Duration::from_millis(20));
    }

    #[test]
    fn dispatch_cost_is_added() {
        let mut s = spec(4, 10);
        s.dispatch = Duration::from_millis(3);
        assert_eq!(s.batch_time(4), Duration::from_millis(13));
    }
}
