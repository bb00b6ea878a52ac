//! Load generators and the log they judge replies into.
//!
//! One process, at most two generator threads, at most two client
//! connections. The HTTP clients are plain OS threads on blocking
//! sockets: a closed-loop client that is itself a task on the runtime it
//! measures makes the median bimodal from run to run.

use clipper_core::{Clipper, Feedback};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::gen::{id_features, input, model_label, truth, Rng, Zipf};
use crate::trace::{now_ns, RootSpan};
use crate::workload::{Workload, APP, SEGMENT, SLO};

/// What the harness needs from a reply, however it arrived.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reply {
    pub label: u32,
    pub models_used: u32,
    /// Clipper's own `Prediction::latency`.
    pub inner_ns: u64,
}

/// Expected labels, computed from the request's own id.
pub struct Oracle {
    /// `(index, err_pct)` of every model of the app.
    models: Vec<(u32, u32)>,
    /// How many of them the app's policy consults for one query; a reply
    /// that used fewer was completed with a substituted default.
    consulted: u32,
}

impl Oracle {
    pub fn of(w: &Workload) -> Oracle {
        let models: Vec<_> = w
            .models
            .iter()
            .enumerate()
            .map(|(i, m)| (i as u32, m.err_pct))
            .collect();
        let consulted = match w.policy {
            clipper_core::PolicyKind::Exp4 { .. } => models.len() as u32,
            _ => 1,
        };
        Oracle { models, consulted }
    }

    /// Whether some model of the app answers `label` for this request. A
    /// label no model gives is another request's label: a batch reply
    /// routed to the wrong caller, or two inputs sharing a cache key.
    fn explains(&self, id: u64, label: u32) -> bool {
        self.models
            .iter()
            .any(|&(m, err)| model_label(id, m, err) == label)
    }
}

/// Stop after a number of operations (warm-up) or at an instant (the
/// measured phase), `now_ns` time.
#[derive(Clone, Copy)]
pub enum Until {
    Count(usize),
    Time(u64),
}

impl Until {
    fn reached(&self, done: usize) -> bool {
        match *self {
            Until::Count(n) => done >= n,
            Until::Time(t) => now_ns() >= t,
        }
    }
}

/// Latencies are kept as `u32` in units of 10 ns (up to 42 s), per
/// segment, in buffers allocated and touched before the measured phase:
/// peak memory must not depend on how fast the program under test is.
const LAT_UNIT_NS: u64 = 10;

fn lat_units(ns: u64) -> u32 {
    (ns / LAT_UNIT_NS).min(u32::MAX as u64) as u32
}

fn touched(capacity: usize) -> Vec<u32> {
    let mut v = vec![1u32; capacity];
    v.clear();
    v
}

/// Replies of one generator, judged and bucketed by segment.
pub struct SegLog {
    t0: u64,
    /// Predict latencies per segment, `LAT_UNIT_NS` units.
    lat: Vec<Vec<u32>>,
    /// Predicts sent per segment.
    sent: Vec<u32>,
    /// Replies per segment that were right, complete and inside the SLO.
    good: Vec<u32>,
    pub predicts: u64,
    pub feedbacks: u64,
    /// Operations with no reply, an error reply, or a label no model of
    /// the app gives for that request.
    pub failed: u64,
    /// Replies later than the SLO or completed with a substituted default.
    pub missed_slo: u64,
    /// Replies whose label is the ground truth.
    pub accurate: u64,
    /// Requests whose first model alone answers the ground truth.
    pub best_single_accurate: u64,
    /// Feedback latencies, `LAT_UNIT_NS` units.
    pub feedback: Vec<u32>,
    /// Root spans, kept only in a traced run.
    pub roots: Option<Vec<RootSpan>>,
}

impl SegLog {
    pub fn new(t0: u64, segments: usize, capacity_per_segment: usize, traced: bool) -> SegLog {
        SegLog {
            t0,
            lat: (0..segments)
                .map(|_| touched(capacity_per_segment))
                .collect(),
            sent: vec![0; segments],
            good: vec![0; segments],
            predicts: 0,
            feedbacks: 0,
            failed: 0,
            missed_slo: 0,
            accurate: 0,
            best_single_accurate: 0,
            feedback: touched(if segments > 0 {
                capacity_per_segment
            } else {
                0
            }),
            roots: traced.then(Vec::new),
        }
    }

    /// A log that judges nothing: for warm-up.
    pub fn discard() -> SegLog {
        SegLog::new(0, 0, 0, false)
    }

    /// Judge one predict. `at` places it in a segment and `timed_from` is
    /// where its latency starts: the due time in an open loop.
    #[allow(clippy::too_many_arguments)]
    pub fn predict(
        &mut self,
        oracle: &Oracle,
        id: u64,
        at: u64,
        timed_from: u64,
        start: u64,
        end: u64,
        reply: Option<Reply>,
    ) {
        if self.lat.is_empty() {
            return;
        }
        let seg = ((at.saturating_sub(self.t0) / SEGMENT.as_nanos() as u64) as usize)
            .min(self.lat.len() - 1);
        self.predicts += 1;
        self.sent[seg] += 1;
        let (m0, err0) = oracle.models[0];
        self.best_single_accurate += u64::from(model_label(id, m0, err0) == truth(id));
        let Some(reply) = reply else {
            self.failed += 1;
            return;
        };
        let latency = end - timed_from;
        self.lat[seg].push(lat_units(latency));
        if let Some(roots) = self.roots.as_mut() {
            roots.push(RootSpan {
                id,
                start,
                end,
                inner_ns: reply.inner_ns,
            });
        }
        if reply.models_used < oracle.consulted {
            self.missed_slo += 1;
        } else if !oracle.explains(id, reply.label) {
            self.failed += 1;
        } else {
            self.accurate += u64::from(reply.label == truth(id));
            if latency <= SLO.as_nanos() as u64 {
                self.good[seg] += 1;
            } else {
                self.missed_slo += 1;
            }
        }
    }

    pub fn feedback(&mut self, start: u64, end: u64, ok: bool) {
        if self.lat.is_empty() {
            return;
        }
        self.feedbacks += 1;
        if ok {
            self.feedback.push(lat_units(end - start));
        } else {
            self.failed += 1;
        }
    }

    pub fn merge(logs: Vec<SegLog>) -> SegLog {
        let mut logs = logs.into_iter();
        let mut all = logs.next().expect("at least one generator");
        for l in logs {
            for (a, b) in all.lat.iter_mut().zip(l.lat) {
                a.extend(b);
            }
            for (a, b) in all
                .good
                .iter_mut()
                .zip(l.good)
                .chain(all.sent.iter_mut().zip(l.sent))
            {
                *a += b;
            }
            all.predicts += l.predicts;
            all.feedbacks += l.feedbacks;
            all.failed += l.failed;
            all.missed_slo += l.missed_slo;
            all.accurate += l.accurate;
            all.best_single_accurate += l.best_single_accurate;
            all.feedback.extend(l.feedback);
            if let (Some(a), Some(b)) = (all.roots.as_mut(), l.roots) {
                a.extend(b);
            }
        }
        all
    }

    /// Sorted predict latencies of each segment, nanoseconds.
    pub fn sorted_segments(&self) -> Vec<Vec<u64>> {
        self.lat
            .iter()
            .map(|seg| {
                let mut v: Vec<u64> = seg.iter().map(|&u| u as u64 * LAT_UNIT_NS).collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    pub fn good_per_segment(&self) -> &[u32] {
        &self.good
    }

    pub fn sent_per_segment(&self) -> &[u32] {
        &self.sent
    }

    pub fn sorted_feedback(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .feedback
            .iter()
            .map(|&u| u as u64 * LAT_UNIT_NS)
            .collect();
        v.sort_unstable();
        v
    }
}

// ---------------------------------------------------------------------
// HTTP, closed loop
// ---------------------------------------------------------------------

/// A keep-alive connection with one request buffer, patched in place for
/// every call: the id digits have fixed width and the body fixed length.
pub struct HttpConn {
    stream: TcpStream,
    request: Vec<u8>,
    id_at: (usize, usize),
    response: Vec<u8>,
}

const ID_DIGITS: usize = 7;

impl HttpConn {
    pub fn connect(addr: SocketAddr, tail: &[f32]) -> HttpConn {
        let stream = TcpStream::connect(addr).expect("connect to frontend");
        stream.set_nodelay(true).expect("set nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set read timeout");
        let mut body = String::from("{\"input\":[");
        let lo_at = body.len();
        body.push_str("1000000,");
        let hi_at = body.len();
        body.push_str("1000000");
        for t in tail {
            body.push_str(&format!(",{t}"));
        }
        body.push_str("]}");
        let head = format!(
            "POST /api/v1/apps/{APP}/predict HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let id_at = (head.len() + lo_at, head.len() + hi_at);
        let request = [head.as_bytes(), body.as_bytes()].concat();
        HttpConn {
            stream,
            request,
            id_at,
            response: vec![0; 4096],
        }
    }

    fn patch(&mut self, at: usize, mut value: u32) {
        for slot in self.request[at..at + ID_DIGITS].iter_mut().rev() {
            *slot = b'0' + (value % 10) as u8;
            value /= 10;
        }
    }

    /// One request, one response. `None` on a transport error, a status
    /// other than 200, or a body that is not a class prediction.
    pub fn call(&mut self, id: u64) -> Option<Reply> {
        let (lo, hi) = id_features(id);
        self.patch(self.id_at.0, lo);
        self.patch(self.id_at.1, hi);
        self.stream.write_all(&self.request).ok()?;
        let mut filled = 0;
        let total = loop {
            if filled == self.response.len() {
                return None;
            }
            let n = self.stream.read(&mut self.response[filled..]).ok()?;
            if n == 0 {
                return None;
            }
            filled += n;
            if let Some(total) = response_len(&self.response[..filled]) {
                if filled >= total {
                    break total;
                }
            }
        };
        parse_response(&self.response[..total])
    }
}

/// First position of `needle`, ASCII case ignored (header names).
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|w| w.eq_ignore_ascii_case(needle))
}

fn number_after(haystack: &[u8], key: &[u8]) -> Option<u64> {
    let rest = &haystack[find(haystack, key)? + key.len()..];
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// Head plus `content-length`, once the whole head has arrived.
fn response_len(buf: &[u8]) -> Option<usize> {
    let head_end = find(buf, b"\r\n\r\n")? + 4;
    Some(head_end + number_after(&buf[..head_end], b"content-length: ")? as usize)
}

fn parse_response(resp: &[u8]) -> Option<Reply> {
    if !resp.starts_with(b"HTTP/1.1 200") {
        return None;
    }
    let body = &resp[find(resp, b"\r\n\r\n")? + 4..];
    Some(Reply {
        label: number_after(body, b"\"kind\":\"class\",\"label\":")? as u32,
        models_used: number_after(body, b"\"models_used\":")? as u32,
        inner_ns: number_after(body, b"\"latency_us\":")? * 1000,
    })
}

/// Ids a generator sends: draws from a Zipf key universe, or a strided
/// sequence in which no id repeats.
pub enum Ids {
    Zipf {
        base: u64,
        zipf: Arc<Zipf>,
        rng: Rng,
    },
    Distinct {
        next: u64,
        stride: u64,
    },
}

impl Ids {
    pub fn next(&mut self) -> u64 {
        match self {
            Ids::Zipf { base, zipf, rng } => *base + zipf.sample(rng) as u64,
            Ids::Distinct { next, stride } => {
                let id = *next;
                *next += *stride;
                id
            }
        }
    }
}

/// Where a seed's ids start, so different seeds send different keys.
pub fn id_base(seed: u64) -> u64 {
    (crate::gen::mix64(seed ^ 0x1D) % 100_000) * 1_000_000
}

pub fn http_loop(
    conn: &mut HttpConn,
    ids: &mut Ids,
    until: Until,
    oracle: &Oracle,
    log: &mut SegLog,
) {
    let mut done = 0;
    while !until.reached(done) {
        let id = ids.next();
        let start = now_ns();
        let reply = conn.call(id);
        let end = now_ns();
        log.predict(oracle, id, end, start, start, end, reply);
        done += 1;
    }
}

// ---------------------------------------------------------------------
// In process, open loop
// ---------------------------------------------------------------------

struct OpenDone {
    index: usize,
    start: u64,
    end: u64,
    reply: Option<Reply>,
}

/// How late the generator started each request, and what came back.
pub struct OpenResult {
    pub log: SegLog,
    /// Nanoseconds between each request's due time and its start.
    pub late_ns: Vec<u64>,
    /// On-CPU nanoseconds of the generator thread.
    pub generator_cpu_ns: u64,
}

/// Send `due` (nanoseconds after `t0`) from one generator thread, one
/// task per request, and wait until every task has ended. The thread
/// sleeps to each due time instead of spinning: on two cores a spinning
/// generator would take half the machine from the program under test, and
/// what the sleep overshoots is measured and part of every latency.
pub fn open_loop(
    clipper: &Clipper,
    tail: &Arc<Vec<f32>>,
    first_id: u64,
    t0: u64,
    due: &[u64],
    oracle: &Oracle,
    mut log: SegLog,
) -> OpenResult {
    let done: Arc<Mutex<Vec<OpenDone>>> = Arc::new(Mutex::new(Vec::with_capacity(due.len())));
    let finished = Arc::new(AtomicUsize::new(0));
    let mut late_ns = Vec::with_capacity(due.len());
    let mut generator_cpu_ns = 0;
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("bench-gen-0".into())
            .spawn_scoped(s, || {
                for (index, &d) in due.iter().enumerate() {
                    let due_at = t0 + d;
                    let now = now_ns();
                    if due_at > now {
                        std::thread::sleep(Duration::from_nanos(due_at - now));
                    }
                    late_ns.push(now_ns().saturating_sub(due_at));
                    let (clipper, done, finished) =
                        (clipper.clone(), done.clone(), finished.clone());
                    let x = Arc::new(input(first_id + index as u64, tail));
                    tokio::spawn(async move {
                        let start = now_ns();
                        let reply = clipper.predict(APP, None, x).await.ok().map(|p| Reply {
                            label: p.output.label(),
                            models_used: p.models_used as u32,
                            inner_ns: p.latency.as_nanos() as u64,
                        });
                        let end = now_ns();
                        done.lock().expect("result log").push(OpenDone {
                            index,
                            start,
                            end,
                            reply,
                        });
                        finished.fetch_add(1, Ordering::Release);
                    });
                }
                // A request still out after ten seconds counts as failed.
                let give_up = now_ns() + 10_000_000_000;
                while finished.load(Ordering::Acquire) < due.len() && now_ns() < give_up {
                    std::thread::sleep(Duration::from_millis(1));
                }
                generator_cpu_ns = crate::sys::thread_cpu_ns();
            })
            .expect("spawn generator thread");
    });
    let mut answered = vec![false; due.len()];
    for d in done.lock().expect("result log").iter() {
        answered[d.index] = true;
        let due_at = t0 + due[d.index];
        log.predict(
            oracle,
            first_id + d.index as u64,
            due_at,
            due_at,
            d.start,
            d.end,
            d.reply,
        );
    }
    for (index, _) in answered.iter().enumerate().filter(|(_, a)| !**a) {
        let due_at = t0 + due[index];
        log.predict(
            oracle,
            first_id + index as u64,
            due_at,
            due_at,
            due_at,
            due_at,
            None,
        );
    }
    OpenResult {
        log,
        late_ns,
        generator_cpu_ns,
    }
}

// ---------------------------------------------------------------------
// In process, closed loop with feedback
// ---------------------------------------------------------------------

pub struct EnsembleCaller {
    pub ids: Ids,
    pub rng: Rng,
    pub contexts: Arc<Vec<String>>,
    pub feedback: f64,
    pub lag: usize,
    /// The last `lag + 1` ids this caller predicted.
    pub recent: std::collections::VecDeque<u64>,
}

pub async fn ensemble_loop(
    clipper: Clipper,
    tail: Arc<Vec<f32>>,
    mut c: EnsembleCaller,
    until: Until,
    oracle: Arc<Oracle>,
    mut log: SegLog,
) -> (EnsembleCaller, SegLog) {
    let contexts = c.contexts.clone();
    let context = |id: u64| contexts[(id % contexts.len() as u64) as usize].as_str();
    let mut done = 0;
    while !until.reached(done) {
        let id = c.ids.next();
        let x = Arc::new(input(id, &tail));
        let start = now_ns();
        let reply = clipper
            .predict(APP, Some(context(id)), x)
            .await
            .ok()
            .map(|p| Reply {
                label: p.output.label(),
                models_used: p.models_used as u32,
                inner_ns: p.latency.as_nanos() as u64,
            });
        let end = now_ns();
        log.predict(&oracle, id, end, start, start, end, reply);
        done += 1;

        c.recent.push_back(id);
        if c.recent.len() > c.lag + 1 {
            c.recent.pop_front();
        }
        if c.rng.next_f64() < c.feedback && c.recent.len() > c.lag {
            let old = c.recent[0];
            let x = Arc::new(input(old, &tail));
            let start = now_ns();
            let ok = clipper
                .feedback(APP, Some(context(old)), x, Feedback::class(truth(old)))
                .await
                .is_ok();
            log.feedback(start, now_ns(), ok);
            done += 1;
        }
    }
    (c, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(errs: &[u32]) -> Oracle {
        let models: Vec<_> = errs
            .iter()
            .enumerate()
            .map(|(i, &e)| (i as u32, e))
            .collect();
        Oracle {
            consulted: models.len() as u32,
            models,
        }
    }

    #[test]
    fn replies_are_judged_from_the_requests_own_id() {
        let o = oracle(&[0]);
        let mut log = SegLog::new(1_000, 2, 16, true);
        let ok = |id| {
            Some(Reply {
                label: truth(id),
                models_used: 1,
                inner_ns: 5,
            })
        };
        log.predict(&o, 7, 1_500, 1_000, 1_000, 1_500, ok(7));
        // Another request's label: failed, however fast.
        let other = (0..100).find(|&id| truth(id) != truth(7)).unwrap();
        log.predict(&o, 7, 1_600, 1_000, 1_000, 1_600, ok(other));
        // Later than the SLO: a miss, not a failure.
        let late = 1_000 + SLO.as_nanos() as u64 + 1;
        log.predict(&o, 8, late, 1_000, 1_000, late, ok(8));
        // A substituted default: a miss, whatever its label.
        let sub = Some(Reply {
            label: truth(9),
            models_used: 0,
            inner_ns: 5,
        });
        log.predict(&o, 9, 1_700, 1_000, 1_000, 1_700, sub);
        // No reply at all.
        log.predict(&o, 10, 1_800, 1_000, 1_000, 1_800, None);
        assert_eq!(
            (log.predicts, log.failed, log.missed_slo, log.accurate),
            (5, 2, 2, 2)
        );
        assert_eq!(log.good_per_segment(), &[1, 0]);
        assert_eq!(log.sent_per_segment(), &[5, 0]);
        assert_eq!(log.roots.as_ref().unwrap().len(), 4);
        assert_eq!(
            log.sorted_segments()[0],
            vec![500, 600, 700, SLO.as_nanos() as u64]
        );
    }

    #[test]
    fn an_ensemble_reply_may_be_any_models_label_but_no_other() {
        let o = oracle(&[100, 0]);
        let id = 3;
        let mut log = SegLog::new(0, 1, 8, false);
        let r = |label| {
            Some(Reply {
                label,
                models_used: 2,
                inner_ns: 0,
            })
        };
        log.predict(&o, id, 1, 0, 0, 1, r(model_label(id, 0, 100)));
        log.predict(&o, id, 1, 0, 0, 1, r(truth(id)));
        let neither = (0..10)
            .find(|&l| l != truth(id) && l != model_label(id, 0, 100))
            .unwrap();
        log.predict(&o, id, 1, 0, 0, 1, r(neither));
        // One model short: completed by substitution.
        log.predict(
            &o,
            id,
            1,
            0,
            0,
            1,
            Some(Reply {
                label: truth(id),
                models_used: 1,
                inner_ns: 0,
            }),
        );
        assert_eq!(
            (log.predicts, log.failed, log.missed_slo, log.accurate),
            (4, 1, 1, 1)
        );
        assert_eq!(log.best_single_accurate, 0);
    }

    #[test]
    fn http_response_parsing() {
        let body = "{\"output\":{\"kind\":\"class\",\"label\":7},\"confidence\":1.0,\"models_used\":1,\"models_missing\":0,\"latency_us\":64}";
        let resp = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        assert_eq!(response_len(resp.as_bytes()), Some(resp.len()));
        assert_eq!(response_len(&resp.as_bytes()[..20]), None);
        assert_eq!(
            parse_response(resp.as_bytes()),
            Some(Reply {
                label: 7,
                models_used: 1,
                inner_ns: 64_000
            })
        );
        assert_eq!(
            parse_response(b"HTTP/1.1 429 Too Many Requests\r\n\r\n{}"),
            None
        );
    }

    #[test]
    fn distinct_ids_never_repeat_across_generators() {
        let mut a = Ids::Distinct {
            next: 10,
            stride: 2,
        };
        let mut b = Ids::Distinct {
            next: 11,
            stride: 2,
        };
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(a.next()));
            assert!(seen.insert(b.next()));
        }
    }
}
