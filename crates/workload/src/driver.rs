//! Load drivers: apply an arrival process to an async request function
//! and measure what the paper's figures measure.

use crate::arrivals::ArrivalProcess;
use clipper_metrics::{Counter, Histogram, HistogramSnapshot};
use std::future::Future;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How one driven request ended, for drivers that distinguish load
/// shedding (a routing decision) from hard failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The request completed successfully.
    Ok,
    /// The request was shed (e.g. [`Overloaded`]: every replica's queue
    /// was full, or SLO-aware admission refused it up front) — counted
    /// separately so scheduler comparisons can tell "refused under load,
    /// with an honest 429" apart from "broke".
    ///
    /// [`Overloaded`]: https://en.wikipedia.org/wiki/Load_shedding
    Shed,
    /// The request got **no answer at all** — connection dropped,
    /// timeout, reply never materialized. The worst outcome: a shed is a
    /// routing decision the client can retry against, a lost request is
    /// a broken promise. Benchmarks gate on `lost == 0`.
    Lost,
    /// The request failed for any other reason (an error *answer*).
    Error,
}

/// Results of a driven load phase.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Wall-clock duration of the phase.
    pub duration: Duration,
    /// Successfully completed requests.
    pub completed: u64,
    /// Failed requests (including shed ones).
    pub errors: u64,
    /// Requests shed by load shedding (subset of `errors`).
    pub shed: u64,
    /// Requests that vanished without any answer (subset of `errors`,
    /// disjoint from `shed`).
    pub lost: u64,
    /// Latency distribution of successful requests (µs).
    pub latency: HistogramSnapshot,
}

impl LoadReport {
    /// Sustained throughput (successful requests/second).
    pub fn throughput(&self) -> f64 {
        if self.duration.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.duration.as_secs_f64()
        }
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.latency.mean() / 1_000.0
    }

    /// P99 latency in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.latency.p99() as f64 / 1_000.0
    }
}

/// Closed-loop load: `clients` concurrent clients each issue the next
/// request as soon as the previous completes (the saturating workload used
/// for peak-throughput measurements, Figures 4 and 11).
///
/// `f(client_id, seq)` performs one request and reports success.
pub async fn run_closed_loop<F, Fut>(clients: usize, duration: Duration, f: F) -> LoadReport
where
    F: Fn(usize, u64) -> Fut + Send + Sync + Clone + 'static,
    Fut: Future<Output = bool> + Send,
{
    let latency = Histogram::new();
    let completed = Counter::new();
    let errors = Counter::new();
    let start = Instant::now();
    let deadline = start + duration;

    let mut tasks = Vec::with_capacity(clients);
    for client in 0..clients {
        let f = f.clone();
        let latency = latency.clone();
        let completed = completed.clone();
        let errors = errors.clone();
        tasks.push(tokio::spawn(async move {
            let mut seq = 0u64;
            while Instant::now() < deadline {
                let t0 = Instant::now();
                if f(client, seq).await {
                    latency.record(t0.elapsed().as_micros() as u64);
                    completed.inc();
                } else {
                    errors.inc();
                }
                seq += 1;
            }
        }));
    }
    for t in tasks {
        let _ = t.await;
    }

    LoadReport {
        duration: start.elapsed(),
        completed: completed.get(),
        errors: errors.get(),
        shed: 0,
        lost: 0,
        latency: latency.snapshot(),
    }
}

/// Open-loop load: requests launch on the arrival process's schedule
/// regardless of completions (latency-under-load measurements; queueing
/// delay is visible, unlike closed loop).
pub async fn run_open_loop<F, Fut>(
    arrivals: ArrivalProcess,
    duration: Duration,
    seed: u64,
    f: F,
) -> LoadReport
where
    F: Fn(u64) -> Fut + Send + Sync + Clone + 'static,
    Fut: Future<Output = bool> + Send + 'static,
{
    run_open_loop_outcomes(arrivals, duration, seed, move |seq| {
        let f = f.clone();
        async move {
            if f(seq).await {
                RequestOutcome::Ok
            } else {
                RequestOutcome::Error
            }
        }
    })
    .await
}

/// Open-loop load with per-request [`RequestOutcome`]s, so the report can
/// separate shed requests from hard failures — the counters the scheduler
/// comparisons (`replica_scaling`) grade round-robin vs. p2c on.
pub async fn run_open_loop_outcomes<F, Fut>(
    arrivals: ArrivalProcess,
    duration: Duration,
    seed: u64,
    f: F,
) -> LoadReport
where
    F: Fn(u64) -> Fut + Send + Sync + Clone + 'static,
    Fut: Future<Output = RequestOutcome> + Send + 'static,
{
    let latency = Histogram::new();
    let completed = Counter::new();
    let errors = Counter::new();
    let shed = Counter::new();
    let lost = Counter::new();
    // The arrival schedule runs on the runtime's timers, so it is kept
    // in the runtime's clock.
    let start = tokio::time::Instant::now();
    let deadline = start + duration;
    let inflight = Arc::new(tokio::sync::Semaphore::new(65_536));

    let mut next_fire = tokio::time::Instant::now();
    let mut handles = Vec::new();
    for (seq, gap) in arrivals.gaps(seed).enumerate() {
        let seq = seq as u64;
        next_fire += gap;
        if next_fire >= deadline {
            break;
        }
        tokio::time::sleep_until(next_fire).await;
        let f = f.clone();
        let latency = latency.clone();
        let completed = completed.clone();
        let errors = errors.clone();
        let shed = shed.clone();
        let lost = lost.clone();
        let permit = inflight.clone().acquire_owned().await.expect("semaphore");
        handles.push(tokio::spawn(async move {
            let t0 = Instant::now();
            match f(seq).await {
                RequestOutcome::Ok => {
                    latency.record(t0.elapsed().as_micros() as u64);
                    completed.inc();
                }
                RequestOutcome::Shed => {
                    shed.inc();
                    errors.inc();
                }
                RequestOutcome::Lost => {
                    lost.inc();
                    errors.inc();
                }
                RequestOutcome::Error => {
                    errors.inc();
                }
            }
            drop(permit);
        }));
        // Bound memory: reap finished handles occasionally.
        if handles.len() >= 4_096 {
            handles.retain(|h| !h.is_finished());
        }
    }
    for h in handles {
        let _ = h.await;
    }

    LoadReport {
        duration: start.elapsed(),
        completed: completed.get(),
        errors: errors.get(),
        shed: shed.get(),
        lost: lost.get(),
        latency: latency.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn closed_loop_drives_all_clients() {
        let report = run_closed_loop(4, Duration::from_millis(100), |_c, _s| async {
            tokio::time::sleep(Duration::from_millis(5)).await;
            true
        })
        .await;
        // 4 clients × ~20 requests each in 100ms.
        assert!(report.completed >= 40, "completed {}", report.completed);
        assert_eq!(report.errors, 0);
        assert!(report.throughput() > 300.0);
        assert!(report.mean_ms() >= 5.0);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn closed_loop_counts_errors() {
        let report = run_closed_loop(2, Duration::from_millis(50), |_c, seq| async move {
            tokio::time::sleep(Duration::from_millis(1)).await;
            seq % 2 == 0
        })
        .await;
        assert!(report.errors > 0);
        assert!(report.completed > 0);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn open_loop_fires_at_the_configured_rate() {
        let report = run_open_loop(
            ArrivalProcess::Uniform { rate: 500.0 },
            Duration::from_millis(400),
            1,
            |_seq| async {
                tokio::time::sleep(Duration::from_millis(1)).await;
                true
            },
        )
        .await;
        // ≈200 arrivals in 400ms at 500 qps; scheduling slack tolerated.
        assert!(
            (100..=260).contains(&(report.completed as i64)),
            "completed {}",
            report.completed
        );
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn open_loop_outcomes_separate_sheds_from_errors() {
        let report = run_open_loop_outcomes(
            ArrivalProcess::Uniform { rate: 600.0 },
            Duration::from_millis(200),
            1,
            |seq| async move {
                match seq % 4 {
                    0 => RequestOutcome::Ok,
                    1 => RequestOutcome::Shed,
                    2 => RequestOutcome::Lost,
                    _ => RequestOutcome::Error,
                }
            },
        )
        .await;
        assert!(report.completed > 0);
        assert!(report.shed > 0, "sheds counted");
        assert!(report.lost > 0, "losses counted");
        assert!(
            report.errors >= report.shed + report.lost,
            "sheds and losses are disjoint subsets of errors: {} vs {} + {}",
            report.errors,
            report.shed,
            report.lost
        );
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn open_loop_latency_includes_queueing() {
        // A serially-processed resource at saturation: open-loop latency
        // must exceed service time.
        let sem = Arc::new(tokio::sync::Semaphore::new(1));
        let report = run_open_loop(
            ArrivalProcess::Uniform { rate: 300.0 },
            Duration::from_millis(300),
            1,
            move |_seq| {
                let sem = sem.clone();
                async move {
                    let _g = sem.acquire_owned().await.unwrap();
                    tokio::time::sleep(Duration::from_millis(5)).await;
                    true
                }
            },
        )
        .await;
        // Service is 5ms but arrivals come every 3.3ms: queue grows, so
        // tail latency must be well above service time.
        assert!(
            report.p99_ms() > 10.0,
            "open-loop p99 {}ms should show queueing",
            report.p99_ms()
        );
    }
}
