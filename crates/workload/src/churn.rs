//! Config-churn-under-load: a first-class benchmarkable scenario.
//!
//! The paper's control plane (§3, §6.3) promises that applications and
//! model versions change *while traffic flows* — a rollout must not drop
//! queries. This module drives exactly that: open-loop load against a
//! request function while a schedule of control-plane actions (rollouts,
//! app updates — any async closure, typically an HTTP call) fires at
//! fixed offsets into the run. The report pairs the usual
//! [`LoadReport`] with each action's outcome, so a test or bench can
//! assert "N rollouts landed, 0 predictions dropped".

use crate::arrivals::ArrivalProcess;
use crate::driver::{run_open_loop_outcomes, LoadReport, RequestOutcome};
use std::future::Future;
use std::net::SocketAddr;
use std::pin::Pin;
use std::time::{Duration, Instant};
use tokio::io::{AsyncReadExt, AsyncWriteExt};

/// Issue one HTTP/1.1 request on a fresh connection and return
/// `(status, body)` — the client half of a churn action (or of a test
/// driving the frontend). Deliberately minimal: request line + `host`,
/// `content-type`, `content-length`, `connection: close`.
pub async fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: clipper\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut conn = tokio::net::TcpStream::connect(addr).await?;
    conn.write_all(raw.as_bytes()).await?;
    conn.shutdown().await?;
    let mut resp = String::new();
    conn.read_to_string(&mut resp).await?;
    let status: u16 = resp
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// A boxed control-plane action: resolves to `Ok(summary)` or
/// `Err(failure)`.
type ActionFuture = Pin<Box<dyn Future<Output = Result<String, String>> + Send>>;

/// One scheduled control-plane action.
pub struct ChurnAction {
    /// Offset into the run at which the action fires.
    at: Duration,
    /// Label for the report (e.g. `"rollout m→v2"`).
    label: String,
    /// The action itself.
    run: ActionFuture,
}

impl ChurnAction {
    /// Schedule `action` at `at` into the run.
    pub fn at<F>(at: Duration, label: &str, action: F) -> Self
    where
        F: Future<Output = Result<String, String>> + Send + 'static,
    {
        ChurnAction {
            at,
            label: label.to_string(),
            run: Box::pin(action),
        }
    }
}

/// How one scheduled action went.
#[derive(Clone, Debug)]
pub struct ActionOutcome {
    /// The action's label.
    pub label: String,
    /// When it actually fired (offset into the run).
    pub fired_at: Duration,
    /// How long it took.
    pub took: Duration,
    /// `Ok(summary)` or `Err(failure)`.
    pub result: Result<String, String>,
}

/// Results of a churn run: the load report plus per-action outcomes.
#[derive(Clone, Debug)]
pub struct ChurnReport {
    /// The sustained-traffic report (errors/shed counted as usual).
    pub load: LoadReport,
    /// Every scheduled action's outcome, in schedule order.
    pub actions: Vec<ActionOutcome>,
}

/// Drive open-loop traffic for `duration` while firing `actions` at their
/// offsets. Traffic and actions run concurrently; the report joins both.
///
/// `f(seq)` performs one request and classifies it (see
/// [`RequestOutcome`]).
pub async fn run_open_loop_with_churn<F, Fut>(
    arrivals: ArrivalProcess,
    duration: Duration,
    seed: u64,
    f: F,
    actions: Vec<ChurnAction>,
) -> ChurnReport
where
    F: Fn(u64) -> Fut + Send + Sync + Clone + 'static,
    Fut: Future<Output = RequestOutcome> + Send + 'static,
{
    let start = Instant::now();
    let mut action_tasks = Vec::with_capacity(actions.len());
    for action in actions {
        action_tasks.push(tokio::spawn(async move {
            tokio::time::sleep(action.at.saturating_sub(start.elapsed())).await;
            let fired_at = start.elapsed();
            let t0 = Instant::now();
            let result = action.run.await;
            ActionOutcome {
                label: action.label,
                fired_at,
                took: t0.elapsed(),
                result,
            }
        }));
    }

    let load = run_open_loop_outcomes(arrivals, duration, seed, f).await;

    let mut outcomes = Vec::with_capacity(action_tasks.len());
    for t in action_tasks {
        match t.await {
            Ok(outcome) => outcomes.push(outcome),
            Err(_) => outcomes.push(ActionOutcome {
                label: "<action task panicked>".into(),
                fired_at: start.elapsed(),
                took: Duration::ZERO,
                result: Err("action task panicked".into()),
            }),
        }
    }
    ChurnReport {
        load,
        actions: outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn actions_fire_mid_traffic_and_are_reported() {
        let flipped = Arc::new(AtomicBool::new(false));
        let probe = flipped.clone();
        let report = run_open_loop_with_churn(
            ArrivalProcess::Uniform { rate: 400.0 },
            Duration::from_millis(300),
            7,
            move |_seq| {
                let probe = probe.clone();
                async move {
                    // Requests observe whichever "config" is live.
                    let _ = probe.load(Ordering::Relaxed);
                    RequestOutcome::Ok
                }
            },
            vec![
                ChurnAction::at(Duration::from_millis(100), "flip", {
                    let flipped = flipped.clone();
                    async move {
                        flipped.store(true, Ordering::Relaxed);
                        Ok("flipped".into())
                    }
                }),
                ChurnAction::at(Duration::from_millis(150), "fails", async {
                    Err("nope".into())
                }),
            ],
        )
        .await;
        assert!(report.load.completed > 0);
        assert_eq!(report.actions.len(), 2);
        assert_eq!(report.actions[0].result, Ok("flipped".into()));
        assert!(report.actions[0].fired_at >= Duration::from_millis(95));
        assert!(report.actions[1].result.is_err());
        assert!(flipped.load(Ordering::Relaxed));
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn lossless_run_is_recognized() {
        let report = run_open_loop_with_churn(
            ArrivalProcess::Uniform { rate: 300.0 },
            Duration::from_millis(150),
            1,
            |_seq| async { RequestOutcome::Ok },
            vec![ChurnAction::at(Duration::from_millis(50), "noop", async {
                Ok("done".into())
            })],
        )
        .await;
        assert_eq!(report.load.lost, 0);
        assert_eq!(report.load.errors, 0);
        assert_eq!(report.actions.len(), 1);
        assert!(report.actions[0].result.is_ok());
    }
}
