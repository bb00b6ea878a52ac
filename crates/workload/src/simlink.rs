//! Bandwidth/latency-simulated network links (the Figure-6 substrate).
//!
//! Figure 6 scales model replicas across a GPU cluster behind 10 Gbps and
//! 1 Gbps switches: with 1 Gbps, the aggregate GPU throughput exceeds the
//! wire and the network saturates at the second replica. [`SimLink`]
//! reproduces the physics: a full-duplex serial resource where each frame
//! occupies the direction for `bytes / bandwidth` seconds, plus a fixed
//! propagation delay each way. All transports wrapped by one link share
//! its capacity — the Clipper-side NIC.

use clipper_rpc::error::RpcError;
use clipper_rpc::message::PredictReply;
use clipper_rpc::transport::{BatchTransport, BoxFuture, Input};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;
use tokio::time::Instant;

/// One direction of a serial link.
struct Scheduler {
    next_free: Mutex<Instant>,
}

impl Scheduler {
    fn new() -> Self {
        Scheduler {
            next_free: Mutex::new(Instant::now()),
        }
    }

    /// Reserve the direction for `bytes` at `bytes_per_sec`; returns when
    /// the transfer will complete (absolute deadline to sleep until).
    fn reserve(&self, bytes: usize, bytes_per_sec: f64) -> Instant {
        let transfer = Duration::from_secs_f64(bytes as f64 / bytes_per_sec.max(1.0));
        let mut next_free = self.next_free.lock();
        let done = (*next_free).max(Instant::now()) + transfer;
        *next_free = done;
        done
    }
}

/// A shared, bandwidth-limited, full-duplex link.
pub struct SimLink {
    bytes_per_sec: f64,
    one_way: Duration,
    tx: Scheduler,
    rx: Scheduler,
}

impl SimLink {
    /// A link with `gbps` gigabits/second capacity and `rtt` round-trip
    /// propagation delay.
    pub fn gbps(gbps: f64, rtt: Duration) -> Arc<Self> {
        Arc::new(SimLink {
            bytes_per_sec: gbps * 1e9 / 8.0,
            one_way: rtt / 2,
            tx: Scheduler::new(),
            rx: Scheduler::new(),
        })
    }

    /// Wrap a transport so its traffic flows over this link. Many
    /// transports may share one link (they contend for its capacity).
    pub fn wrap(self: &Arc<Self>, inner: Arc<dyn BatchTransport>) -> Arc<dyn BatchTransport> {
        Arc::new(SimLinkedTransport {
            link: self.clone(),
            inner,
        })
    }
}

struct SimLinkedTransport {
    link: Arc<SimLink>,
    inner: Arc<dyn BatchTransport>,
}

/// Wire size of a batch request: frame header + count + per-input floats
/// (matches `Message::PredictRequest::wire_size`).
fn request_bytes(inputs: &[Input]) -> usize {
    22 + inputs.iter().map(|i| 4 + 4 * i.len()).sum::<usize>()
}

fn reply_bytes(reply: &PredictReply) -> usize {
    38 + reply.outputs.iter().map(|o| o.wire_size()).sum::<usize>()
}

impl BatchTransport for SimLinkedTransport {
    fn predict_batch(&self, inputs: &[Input]) -> BoxFuture<Result<PredictReply, RpcError>> {
        let link = self.link.clone();
        let inner = self.inner.clone();
        let inputs = inputs.to_vec(); // Arc clones only
        Box::pin(async move {
            // Request serialization onto the wire (shared, serial).
            let req_done = link.tx.reserve(request_bytes(&inputs), link.bytes_per_sec);
            tokio::time::sleep_until(req_done + link.one_way).await;

            let reply = inner.predict_batch(&inputs).await?;

            // Response transfer back.
            let resp_done = link.rx.reserve(reply_bytes(&reply), link.bytes_per_sec);
            tokio::time::sleep_until(resp_done + link.one_way).await;
            Ok(reply)
        })
    }

    fn id(&self) -> String {
        format!("simlink({})", self.inner.id())
    }

    fn is_healthy(&self) -> bool {
        self.inner.is_healthy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipper_rpc::message::WireOutput;
    use clipper_rpc::transport::FnTransport;

    fn instant_transport() -> Arc<dyn BatchTransport> {
        Arc::new(FnTransport::new("fast", |inputs: &[Input]| {
            Ok(PredictReply {
                outputs: vec![WireOutput::Class(0); inputs.len()],
                queue_us: 0,
                compute_us: 0,
            })
        }))
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn transfer_time_scales_with_payload() {
        // 1 Gbps = 125 MB/s. A 1.25MB batch should take ≈10ms one way.
        let link = SimLink::gbps(1.0, Duration::ZERO);
        let t = link.wrap(instant_transport());
        let big_input: Input = Arc::new(vec![0.0f32; 312_500]); // 1.25 MB
        let start = Instant::now();
        t.predict_batch(&[big_input]).await.unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(9),
            "1.25MB over 1Gbps must take ≈10ms, took {elapsed:?}"
        );
        assert!(elapsed < Duration::from_millis(60), "took {elapsed:?}");
    }

    #[test]
    fn ten_gbps_is_ten_times_faster() {
        // Assert on the *simulated* transfer time, not wall clock: the
        // fast link's 1ms transfer sits inside timer-granularity noise,
        // which made the old `slow_elapsed > fast_elapsed * 3` flake. An
        // idle direction's reservation ends one transfer time after the
        // call.
        let bytes = request_bytes(&[Arc::new(vec![0.0f32; 312_500])]);
        let transfer = |link: Arc<SimLink>| {
            let called = Instant::now();
            link.tx.reserve(bytes, link.bytes_per_sec) - called
        };
        let s = transfer(SimLink::gbps(1.0, Duration::ZERO));
        let f = transfer(SimLink::gbps(10.0, Duration::ZERO));
        let ratio = s.as_secs_f64() / f.as_secs_f64();
        assert!(
            (9.5..=10.5).contains(&ratio),
            "1Gbps busy {s:?} vs 10Gbps busy {f:?}: ratio {ratio} expected 10"
        );
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn shared_link_serializes_concurrent_transfers() {
        // Two 1.25MB transfers on one 1Gbps link: the second queues behind
        // the first, so total time ≈ 20ms, not 10.
        let link = SimLink::gbps(1.0, Duration::ZERO);
        let t1 = link.wrap(instant_transport());
        let t2 = link.wrap(instant_transport());
        let input: Input = Arc::new(vec![0.0f32; 312_500]);
        let start = Instant::now();
        let (a, b) = tokio::join!(
            t1.predict_batch(std::slice::from_ref(&input)),
            t2.predict_batch(std::slice::from_ref(&input))
        );
        a.unwrap();
        b.unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(18),
            "shared link must serialize: {elapsed:?}"
        );
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn rtt_adds_fixed_delay() {
        let link = SimLink::gbps(10.0, Duration::from_millis(10));
        let t = link.wrap(instant_transport());
        let start = Instant::now();
        t.predict_batch(&[Arc::new(vec![0.0])]).await.unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(10),
            "one RTT of propagation expected, got {elapsed:?}"
        );
    }
}
