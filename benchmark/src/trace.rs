//! The traced run: spans recorded from the benchmark's own decorators
//! around the calls into each layer, kept in memory, and joined by request
//! id after the run.
//!
//! Three spans describe a request that misses the cache:
//!
//! ```text
//! root      |---------------------------------------------|   driver
//! transport            |-----------------------|              TracedTransport, per batch
//! container                  |---------|                      TracedHandler, per batch
//!           <-- pre --> <rpc> <compute> <rpc>  <-- reply -->
//! ```
//!
//! A layer's self time is its span minus the part its child covers. A
//! request served from the cache has a root and nothing else. A request
//! that fans out to several models has several transport spans; the one
//! that ends last is the one the reply waited for, and the others are
//! off the blocking path.

use clipper_rpc::client::BatchHandler;
use clipper_rpc::error::RpcError;
use clipper_rpc::message::PredictReply;
use clipper_rpc::transport::{BatchTransport, BoxFuture, Input};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::gen::id_of;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One batch as one decorator saw it.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchSpan {
    pub start: u64,
    pub end: u64,
    /// Index of the replica among all replicas of the stack.
    pub replica: u32,
    pub ids: Vec<u64>,
}

/// One request as its sender saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RootSpan {
    pub id: u64,
    pub start: u64,
    pub end: u64,
    /// `Prediction::latency` as Clipper reported it (the HTTP reply's
    /// `latency_us`); what the root has beyond it is the frontend's.
    pub inner_ns: u64,
}

/// Where the decorators put their spans. Recording is off except in the
/// traced segments of a traced run, and costs one relaxed load when off.
#[derive(Default)]
pub struct Recorder {
    on: AtomicBool,
    transport: Mutex<Vec<BatchSpan>>,
    container: Mutex<Vec<BatchSpan>>,
}

impl Recorder {
    pub fn set_recording(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn recording(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// The transport and container spans recorded so far.
    pub fn take(&self) -> (Vec<BatchSpan>, Vec<BatchSpan>) {
        let take = |m: &Mutex<Vec<BatchSpan>>| std::mem::take(&mut *m.lock().expect("span log"));
        (take(&self.transport), take(&self.container))
    }
}

fn push(log: &Mutex<Vec<BatchSpan>>, span: BatchSpan) {
    log.lock().expect("span log").push(span);
}

/// Decorator around a replica's transport: one span per dispatched batch,
/// from the call to the resolved reply.
pub struct TracedTransport {
    pub inner: Arc<dyn BatchTransport>,
    pub replica: u32,
    pub recorder: Arc<Recorder>,
}

impl BatchTransport for TracedTransport {
    fn predict_batch(&self, inputs: &[Input]) -> BoxFuture<Result<PredictReply, RpcError>> {
        if !self.recorder.recording() {
            return self.inner.predict_batch(inputs);
        }
        let ids: Vec<u64> = inputs.iter().map(|x| id_of(x)).collect();
        let (replica, recorder) = (self.replica, self.recorder.clone());
        let start = now_ns();
        let reply = self.inner.predict_batch(inputs);
        Box::pin(async move {
            let reply = reply.await;
            let end = now_ns();
            push(
                &recorder.transport,
                BatchSpan {
                    start,
                    end,
                    replica,
                    ids,
                },
            );
            reply
        })
    }

    fn id(&self) -> String {
        self.inner.id()
    }

    fn is_healthy(&self) -> bool {
        self.inner.is_healthy()
    }
}

/// Decorator around a container's batch handler: one span per batch, on
/// the container's blocking thread.
pub struct TracedHandler {
    pub inner: Arc<dyn BatchHandler>,
    pub replica: u32,
    pub recorder: Arc<Recorder>,
}

impl BatchHandler for TracedHandler {
    fn handle_batch(&self, inputs: Vec<Input>) -> Result<PredictReply, String> {
        if !self.recorder.recording() {
            return self.inner.handle_batch(inputs);
        }
        let ids: Vec<u64> = inputs.iter().map(|x| id_of(x)).collect();
        let start = now_ns();
        let reply = self.inner.handle_batch(inputs);
        let end = now_ns();
        push(
            &self.recorder.container,
            BatchSpan {
                start,
                end,
                replica: self.replica,
                ids,
            },
        );
        reply
    }
}

/// Per-request self times, nanoseconds, one entry per joined root.
#[derive(Default, Debug)]
pub struct Layers {
    /// Root minus Clipper's own latency: parse, route, emit, two socket
    /// hops. Empty for requests sent in process.
    pub frontend: Vec<u64>,
    /// Predict start to the start of the batch the reply waited for
    /// (selection, cache probe, scheduler pick, queue wait); the whole of
    /// Clipper's part for a request served from the cache.
    pub pre: Vec<u64>,
    /// Transport span minus container span: encode, two socket hops,
    /// decode, wake-ups. Misses only.
    pub rpc: Vec<u64>,
    /// Container span. Misses only.
    pub compute: Vec<u64>,
    /// End of that batch to the end of predict: cache fill, waiter wake,
    /// combine. Misses only.
    pub reply: Vec<u64>,
    /// Roots with no batch span, i.e. served from the cache.
    pub hits: usize,
    /// Requests whose blocking batch ran on each replica.
    pub by_replica: HashMap<u32, usize>,
}

/// Join roots with the batch spans that carried their ids.
///
/// From outside the program a request sent over HTTP shows where
/// Clipper's part ends only as a duration (`inner_ns`), not as two
/// instants, so `over_http` assigns half of the frontend's self time to
/// each side of it. In process the root is Clipper's part.
pub fn join(
    roots: &[RootSpan],
    transport: &[BatchSpan],
    container: &[BatchSpan],
    over_http: bool,
) -> Layers {
    let index = |spans: &[BatchSpan]| {
        let mut by_id: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            for id in &s.ids {
                by_id.entry(*id).or_default().push(i);
            }
        }
        by_id
    };
    let (t_by_id, c_by_id) = (index(transport), index(container));
    let mut out = Layers::default();
    for r in roots {
        let root = r.end - r.start;
        let frontend = if over_http {
            root.saturating_sub(r.inner_ns)
        } else {
            0
        };
        if over_http {
            out.frontend.push(frontend);
        }
        // A key can be sent more than once: only batches inside this
        // root's interval are its children.
        let blocking = t_by_id
            .get(&r.id)
            .into_iter()
            .flatten()
            .map(|&i| &transport[i])
            .filter(|t| t.start >= r.start && t.end <= r.end)
            .max_by_key(|t| t.end);
        let Some(t) = blocking else {
            out.hits += 1;
            out.pre.push(root - frontend);
            continue;
        };
        let compute = c_by_id
            .get(&r.id)
            .into_iter()
            .flatten()
            .map(|&i| &container[i])
            .find(|c| c.replica == t.replica && c.start >= t.start && c.end <= t.end)
            .map_or(0, |c| c.end - c.start);
        out.pre
            .push((t.start - r.start).saturating_sub(frontend / 2));
        out.reply
            .push((r.end - t.end).saturating_sub(frontend - frontend / 2));
        out.rpc.push((t.end - t.start) - compute);
        out.compute.push(compute);
        *out.by_replica.entry(t.replica).or_default() += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(start: u64, end: u64, replica: u32, ids: &[u64]) -> BatchSpan {
        BatchSpan {
            start,
            end,
            replica,
            ids: ids.to_vec(),
        }
    }

    fn root(id: u64, start: u64, end: u64, inner_ns: u64) -> RootSpan {
        RootSpan {
            id,
            start,
            end,
            inner_ns,
        }
    }

    #[test]
    fn miss_in_process_tiles_the_root_exactly() {
        let roots = [root(1, 100, 1000, 900), root(2, 150, 1010, 860)];
        let transport = [batch(300, 900, 0, &[1, 2])];
        let container = [batch(400, 700, 0, &[1, 2])];
        let l = join(&roots, &transport, &container, false);
        assert_eq!(l.pre, vec![200, 150]);
        assert_eq!(l.rpc, vec![300, 300]);
        assert_eq!(l.compute, vec![300, 300]);
        assert_eq!(l.reply, vec![100, 110]);
        assert!(l.frontend.is_empty());
        assert_eq!(l.hits, 0);
        for (i, r) in roots.iter().enumerate() {
            assert_eq!(
                l.pre[i] + l.rpc[i] + l.compute[i] + l.reply[i],
                r.end - r.start
            );
        }
    }

    #[test]
    fn hit_has_a_root_and_nothing_else() {
        let l = join(&[root(9, 0, 50, 30)], &[], &[], true);
        assert_eq!(l.hits, 1);
        assert_eq!(l.frontend, vec![20]);
        assert_eq!(l.pre, vec![30]);
        assert!(l.rpc.is_empty() && l.reply.is_empty());
    }

    #[test]
    fn http_miss_splits_the_frontend_around_clippers_part() {
        let l = join(
            &[root(5, 0, 1000, 900)],
            &[batch(250, 850, 0, &[5])],
            &[batch(300, 800, 0, &[5])],
            true,
        );
        assert_eq!(l.frontend, vec![100]);
        assert_eq!(l.pre, vec![200]);
        assert_eq!(l.reply, vec![100]);
        assert_eq!(l.rpc, vec![100]);
        assert_eq!(l.compute, vec![500]);
        assert_eq!(
            l.frontend[0] + l.pre[0] + l.rpc[0] + l.compute[0] + l.reply[0],
            1000
        );
    }

    #[test]
    fn fan_out_blocks_on_the_batch_that_ends_last() {
        let transport = [batch(10, 60, 0, &[3]), batch(20, 90, 1, &[3])];
        let container = [batch(15, 55, 0, &[3]), batch(30, 80, 1, &[3])];
        let l = join(&[root(3, 0, 100, 100)], &transport, &container, false);
        assert_eq!(l.pre, vec![20]);
        assert_eq!(l.compute, vec![50]);
        assert_eq!(l.rpc, vec![20]);
        assert_eq!(l.reply, vec![10]);
        assert_eq!(l.by_replica.get(&1), Some(&1));
        assert_eq!(l.by_replica.get(&0), None);
    }

    #[test]
    fn a_repeated_key_joins_only_the_root_that_contains_the_batch() {
        let roots = [root(4, 0, 100, 100), root(4, 200, 230, 30)];
        let l = join(
            &roots,
            &[batch(10, 90, 0, &[4])],
            &[batch(20, 80, 0, &[4])],
            false,
        );
        assert_eq!(l.hits, 1);
        assert_eq!(l.pre, vec![10, 30]);
        assert_eq!(l.compute, vec![60]);
    }

    #[test]
    fn decorators_record_only_while_recording() {
        let recorder = Arc::new(Recorder::default());
        let handler = TracedHandler {
            inner: Arc::new(|inputs: Vec<Input>| {
                Ok(PredictReply {
                    outputs: vec![clipper_rpc::WireOutput::Class(1); inputs.len()],
                    queue_us: 0,
                    compute_us: 0,
                })
            }),
            replica: 2,
            recorder: recorder.clone(),
        };
        let tail = crate::gen::feature_tail(0);
        let inputs = |ids: &[u64]| -> Vec<Input> {
            ids.iter()
                .map(|&id| Arc::new(crate::gen::input(id, &tail)))
                .collect()
        };
        handler.handle_batch(inputs(&[1])).unwrap();
        assert!(recorder.take().1.is_empty());
        recorder.set_recording(true);
        handler.handle_batch(inputs(&[7, 8])).unwrap();
        let (_, spans) = recorder.take();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].replica, spans[0].ids.clone()), (2, vec![7, 8]));
        assert!(spans[0].end >= spans[0].start);
    }
}
