//! Property-based tests on the core data structures and invariants.

use clipper::core::api::JsonOutput;
use clipper::core::batching::breaker::{FAILURE_THRESHOLD, MIN_SAMPLES, STREAK, WINDOW};
use clipper::core::batching::{
    AimdController, BatchController, BatchOutcome, BreakerConfig, BreakerState, CircuitBreaker,
    Health, QuantileController,
};
use clipper::core::cache::{CacheKey, PredictionCache};
use clipper::core::selection::{weighted_combine, PolicyState, SelectionPolicy};
use clipper::core::{AppView, Exp3Policy, Exp4Policy, Feedback, ModelId, Output, PolicyKind};
use clipper::metrics::Histogram;
use clipper::rpc::codec::{FrameReader, HEADER_LEN};
use clipper::rpc::message::{Message, PredictReply, WireOutput, MAGIC, MAX_PAYLOAD, VERSION};
use clipper::rpc::RpcError;
use proptest::prelude::*;
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;
use tokio::time::Instant;

use clipper::statestore::{CasOutcome, StateStore};

/// An always-ready `AsyncRead` over in-memory bytes that returns data in
/// scripted chunk sizes (cycled), exercising every resume point in the
/// framing layer without a runtime or real sockets.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    next_chunk: usize,
}

impl ChunkedReader {
    fn new(data: Vec<u8>, chunks: Vec<usize>) -> Self {
        ChunkedReader {
            data,
            pos: 0,
            chunks,
            next_chunk: 0,
        }
    }
}

impl tokio::io::AsyncRead for ChunkedReader {
    fn poll_read(
        mut self: Pin<&mut Self>,
        _cx: &mut Context<'_>,
        buf: &mut tokio::io::ReadBuf<'_>,
    ) -> Poll<std::io::Result<()>> {
        let me = &mut *self;
        if me.pos >= me.data.len() {
            return Poll::Ready(Ok(())); // EOF
        }
        let scripted = if me.chunks.is_empty() {
            usize::MAX
        } else {
            let c = me.chunks[me.next_chunk % me.chunks.len()].max(1);
            me.next_chunk += 1;
            c
        };
        let n = scripted.min(buf.remaining()).min(me.data.len() - me.pos);
        buf.put_slice(&me.data[me.pos..me.pos + n]);
        me.pos += n;
        Poll::Ready(Ok(()))
    }
}

/// Drive a future whose I/O is always ready to completion with a noop
/// waker — no runtime needed.
fn block_on_ready<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let mut cx = Context::from_waker(Waker::noop());
    for _ in 0..1_000_000 {
        if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
            return v;
        }
    }
    panic!("future did not complete over an always-ready reader");
}

fn arb_output() -> impl Strategy<Value = WireOutput> {
    prop_oneof![
        any::<u32>().prop_map(WireOutput::Class),
        proptest::collection::vec(-1e3f32..1e3, 0..20).prop_map(WireOutput::Scores),
        proptest::collection::vec(any::<u32>(), 0..30).prop_map(WireOutput::Labels),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        Just(Message::Heartbeat),
        Just(Message::HeartbeatAck),
        Just(Message::RegisterAck),
        Just(Message::Shutdown),
        ("[a-z]{1,12}", "[a-z]{1,12}", any::<u32>()).prop_map(|(c, m, v)| Message::Register {
            container_name: c,
            model_name: m,
            model_version: v,
        }),
        ".*".prop_map(|message| Message::Error { message }),
        proptest::collection::vec(proptest::collection::vec(-1e6f32..1e6, 0..50), 0..10).prop_map(
            |inputs| Message::PredictRequest {
                inputs: clipper::rpc::as_inputs(inputs),
            }
        ),
        (
            proptest::collection::vec(arb_output(), 0..10),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(outputs, queue_us, compute_us)| {
                Message::PredictResponse(PredictReply {
                    outputs,
                    queue_us,
                    compute_us,
                })
            }),
    ]
}

/// Strings that exercise the JSON escape table both ways: quotes,
/// backslashes, the named and the `\\u00XX` control escapes, `/`, and
/// two-, three- and four-byte UTF-8.
const JSON_STRING: &str = "[a-c \"\\/\n\r\t\u{1}\u{1f}é世🦀]{0,10}";

/// Any JSON value nested at most `depth` containers deep.
fn arb_json(depth: u32) -> proptest::strategy::BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(|v| Value::Number(serde_json::Number::U64(v))),
        (i64::MIN..0).prop_map(|v| Value::Number(serde_json::Number::I64(v))),
        any::<f64>().prop_map(|v| Value::Number(serde_json::Number::F64(v))),
        (-1e-3f64..1e-3).prop_map(|v| Value::Number(serde_json::Number::F64(v))),
        JSON_STRING.prop_map(Value::String),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    prop_oneof![
        leaf,
        proptest::collection::vec(arb_json(depth - 1), 0..4).prop_map(Value::Array),
        proptest::collection::vec((JSON_STRING, arb_json(depth - 1)), 0..4)
            .prop_map(|entries| Value::Object(entries.into_iter().collect())),
    ]
    .boxed()
}

fn arb_model_id() -> impl Strategy<Value = ModelId> {
    (JSON_STRING, any::<u32>()).prop_map(|(name, version)| ModelId { name, version })
}

fn arb_policy_state() -> impl Strategy<Value = PolicyState> {
    (
        proptest::collection::vec(arb_model_id(), 0..5),
        proptest::collection::vec(any::<f64>(), 0..5),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(models, weights, total, seed)| PolicyState {
            models,
            weights,
            total,
            seed,
        })
}

fn arb_app_view() -> impl Strategy<Value = AppView> {
    let policy = prop_oneof![
        (0.0f64..3.0).prop_map(|eta| PolicyKind::Exp3 { eta }),
        (0.0f64..3.0).prop_map(|eta| PolicyKind::Exp4 { eta }),
        Just(PolicyKind::MajorityVote),
        (0usize..8).prop_map(|model_index| PolicyKind::Static { model_index }),
    ];
    let default_output = prop_oneof![
        any::<u32>().prop_map(|label| JsonOutput::Class { label }),
        proptest::collection::vec(any::<f32>(), 0..6)
            .prop_map(|scores| JsonOutput::Scores { scores }),
        proptest::collection::vec(any::<u32>(), 0..6)
            .prop_map(|labels| JsonOutput::Labels { labels }),
    ];
    (
        (JSON_STRING, proptest::collection::vec(arb_model_id(), 0..4)),
        policy,
        (any::<u64>(), any::<u64>()),
        default_output,
        any::<u64>(),
    )
        .prop_map(
            |((name, candidate_models), policy, (slo_ms, slo_us), default_output, seed)| AppView {
                name,
                candidate_models,
                policy,
                slo_ms,
                slo_us,
                default_output,
                seed,
            },
        )
}

/// The parser behind `accepts` must refuse every strict prefix of `doc` —
/// and return, not panic or overflow, while doing so.
fn assert_prefixes_rejected(
    doc: &str,
    accepts: impl Fn(&[u8]) -> bool,
) -> Result<(), TestCaseError> {
    for cut in 0..doc.len() {
        prop_assert!(
            !accepts(&doc.as_bytes()[..cut]),
            "prefix of {cut} bytes of {doc} was accepted"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one JSON codec round-trips the dynamic tree: whatever `Value`
    /// it writes, it reads back equal — escapes, non-ASCII, every number
    /// kind, nesting up to 6 — and no truncation of the text parses.
    #[test]
    fn json_value_roundtrips_and_rejects_every_prefix(inner in arb_json(5)) {
        // Wrapped so the document is a container: a bare `12` has the
        // valid prefix `1`.
        let v = Value::Array(vec![inner]);
        let text = serde_json::to_string(&v).unwrap();
        prop_assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), v);
        assert_prefixes_rejected(&text, |b| serde_json::from_slice::<Value>(b).is_ok())?;
    }

    /// The same for the two derived shapes that persist: the per-context
    /// selection state and an app's registration record.
    #[test]
    fn json_records_roundtrip_and_reject_every_prefix(
        state in arb_policy_state(),
        view in arb_app_view(),
    ) {
        let text = serde_json::to_string(&state).unwrap();
        prop_assert_eq!(serde_json::from_str::<PolicyState>(&text).unwrap(), state);
        assert_prefixes_rejected(&text, |b| serde_json::from_slice::<PolicyState>(b).is_ok())?;
        let text = serde_json::to_string(&view).unwrap();
        prop_assert_eq!(serde_json::from_str::<AppView>(&text).unwrap(), view);
        assert_prefixes_rejected(&text, |b| serde_json::from_slice::<AppView>(b).is_ok())?;
    }

    /// Any message survives an encode/decode round trip, and the declared
    /// wire size matches the actual encoding.
    #[test]
    fn rpc_codec_roundtrips(msg in arb_message(), id in any::<u64>()) {
        let frame = msg.encode(id);
        prop_assert_eq!(msg.wire_size(), frame.len());
        prop_assert_eq!(u32::from_le_bytes(frame[0..4].try_into().unwrap()), MAGIC);
        prop_assert_eq!(frame[4], VERSION);
        let msg_type = frame[5];
        prop_assert_eq!(u64::from_le_bytes(frame[6..14].try_into().unwrap()), id);
        let len = u32::from_le_bytes(frame[14..18].try_into().unwrap()) as usize;
        prop_assert_eq!(frame.len() - HEADER_LEN, len);
        let decoded = Message::decode(msg_type, &frame[HEADER_LEN..]).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// Frames written back to back survive a [`FrameReader`] no matter
    /// how the byte stream is split across reads — every resume point in
    /// the buffered framing layer (mid-header, mid-payload, frame
    /// boundaries) preserves every message, and clean EOF afterwards is
    /// `ConnectionClosed`.
    #[test]
    fn rpc_frames_survive_arbitrary_split_boundaries(
        msgs in proptest::collection::vec(arb_message(), 1..5),
        chunks in proptest::collection::vec(1usize..64, 1..32),
    ) {
        let mut data = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            m.encode_into(i as u64, &mut data);
        }
        let mut r = FrameReader::new(ChunkedReader::new(data, chunks));
        for (i, m) in msgs.iter().enumerate() {
            let (id, got) = block_on_ready(r.next()).unwrap();
            prop_assert_eq!(id, i as u64);
            prop_assert_eq!(&got, m);
        }
        prop_assert!(matches!(
            block_on_ready(r.next()),
            Err(RpcError::ConnectionClosed)
        ));
    }

    /// Decode borrows the payload but the result owns its data: mutating
    /// and dropping the source buffer leaves the message intact (the
    /// compile-time half is `Message: 'static`, asserted below).
    #[test]
    fn rpc_decode_is_zero_copy_sound(msg in arb_message()) {
        fn assert_static<T: 'static>(_: &T) {}
        let frame = msg.encode(3);
        let mut payload = frame[HEADER_LEN..].to_vec();
        let decoded = Message::decode(frame[5], &payload).unwrap();
        assert_static(&decoded);
        payload.fill(0xAA);
        drop(payload);
        prop_assert_eq!(decoded, msg);
    }

    /// The codec never panics on arbitrary payload bytes — it either
    /// parses or reports a protocol error.
    #[test]
    fn rpc_decode_never_panics(msg_type in 0u8..12, payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(msg_type, &payload);
    }

    /// The cache never stores more than its capacity, and a fill is always
    /// observable until evicted — regardless of how keys spread over
    /// shards.
    #[test]
    fn cache_respects_capacity(capacity in 1usize..32, keys in proptest::collection::vec(0u32..64, 1..128)) {
        let cache = PredictionCache::new(capacity);
        let model = ModelId::new("m", 1);
        for &k in &keys {
            let key = CacheKey::new(&model, &Arc::new(vec![k as f32]));
            cache.fill(key, Ok(Output::Class(k)));
            prop_assert!(cache.len() <= capacity);
            // The just-filled key is immediately fetchable with its value.
            prop_assert_eq!(cache.fetch(key), Some(Output::Class(k)));
        }
    }

    /// Key construction is deterministic, order-sensitive, and
    /// model-disambiguating: equal inputs agree, permuted or extended
    /// inputs and different models disagree.
    #[test]
    fn cache_key_fingerprints_are_sound(vals in proptest::collection::vec(-1e6f32..1e6, 1..64), version in 1u32..8) {
        let m = ModelId::new("m", version);
        let input: clipper::core::Input = Arc::new(vals.clone());
        prop_assert_eq!(CacheKey::new(&m, &input), CacheKey::new(&m, &input));
        prop_assert_ne!(
            CacheKey::new(&m, &input),
            CacheKey::new(&ModelId::new("m", version + 1), &input)
        );
        let mut extended = vals.clone();
        extended.push(0.0);
        prop_assert_ne!(
            CacheKey::new(&m, &input),
            CacheKey::new(&m, &Arc::new(extended))
        );
        if vals.len() > 1 && vals[0].to_bits() != vals[1].to_bits() {
            let mut swapped = vals.clone();
            swapped.swap(0, 1);
            prop_assert_ne!(
                CacheKey::new(&m, &input),
                CacheKey::new(&m, &Arc::new(swapped))
            );
        }
    }

    /// AIMD stays within [1, cap] under arbitrary latency feedback and
    /// never gets stuck at 0.
    #[test]
    fn aimd_stays_bounded(latencies in proptest::collection::vec(0u64..200_000, 1..300), cap in 1usize..2000) {
        let mut c = AimdController::new(Duration::from_millis(20), 2.0, 0.9, cap);
        for lat in latencies {
            let b = c.max_batch();
            prop_assert!(b >= 1 && b <= cap, "batch {b} out of [1,{cap}]");
            c.record(b, Duration::from_micros(lat));
        }
        prop_assert!(c.max_batch() >= 1);
    }

    /// The quantile controller also stays within bounds on arbitrary data.
    #[test]
    fn quantile_stays_bounded(latencies in proptest::collection::vec(0u64..200_000, 1..300)) {
        let mut c = QuantileController::new(Duration::from_millis(20), 1024);
        for lat in latencies {
            let b = c.max_batch();
            prop_assert!((1..=1024).contains(&b));
            c.record(b, Duration::from_micros(lat));
        }
    }

    /// Histogram quantiles are ordered and bracketed by min/max.
    #[test]
    fn histogram_quantiles_are_ordered(values in proptest::collection::vec(0u64..10_000_000, 1..500)) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count(), values.len() as u64);
        prop_assert!(s.min() <= s.p50());
        prop_assert!(s.p50() <= s.p95());
        prop_assert!(s.p95() <= s.p99());
        prop_assert!(s.p99() <= s.max());
        prop_assert_eq!(s.max(), *values.iter().max().unwrap());
        prop_assert_eq!(s.min(), *values.iter().min().unwrap());
    }

    /// Exp3/Exp4 state stays a probability distribution (finite, positive,
    /// sums to 1) no matter what feedback arrives.
    #[test]
    fn policy_state_stays_normalizable(
        outcomes in proptest::collection::vec((0u32..4, 0u32..4, any::<bool>()), 1..200),
        eta in 0.01f64..3.0,
    ) {
        let ids: Vec<ModelId> = (0..4).map(|i| ModelId::new(&format!("m{i}"), 1)).collect();
        let exp3 = Exp3Policy::new(eta);
        let exp4 = Exp4Policy::new(eta);
        let mut s3 = exp3.init(&ids, 1);
        let mut s4 = exp4.init(&ids, 1);
        for (i, (pred, truth, _)) in outcomes.iter().enumerate() {
            let input: clipper::core::Input = Arc::new(vec![i as f32]);
            let mut preds = HashMap::new();
            for id in &ids {
                preds.insert(id.clone(), Output::Class(*pred));
            }
            let fb = Feedback::class(*truth);
            exp3.observe(&mut s3, &input, &fb, &preds);
            exp4.observe(&mut s4, &input, &fb, &preds);
            for s in [&s3, &s4] {
                let probs = s.probabilities();
                let sum: f64 = probs.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
                prop_assert!(probs.iter().all(|p| p.is_finite() && *p >= 0.0));
            }
        }
    }

    /// Weighted combine always returns a label some present model voted
    /// for, and confidence in [0, 1].
    #[test]
    fn combine_picks_a_voted_label(labels in proptest::collection::vec(0u32..6, 1..6)) {
        let ids: Vec<ModelId> = (0..labels.len()).map(|i| ModelId::new(&format!("m{i}"), 1)).collect();
        let state = PolicyState::uniform(&ids, 0);
        let mut preds = HashMap::new();
        for (id, &l) in ids.iter().zip(labels.iter()) {
            preds.insert(id.clone(), Output::Class(l));
        }
        let (out, conf) = weighted_combine(&state, &preds).unwrap();
        prop_assert!(labels.contains(&out.label()));
        prop_assert!((0.0..=1.0).contains(&conf));
        // Majority always yields confidence ≥ 1/n.
        prop_assert!(conf >= 1.0 / labels.len() as f64 - 1e-9);
    }

    /// The replica health state machine, driven by an arbitrary mix of
    /// batch admissions and outcomes, heartbeat signals and clock steps
    /// (time enters only through the `now` argument), makes only legal
    /// transitions — checked against a reference model of the outcome
    /// window — and `health()` always agrees with the breaker state and
    /// the heartbeat flag.
    #[test]
    fn health_makes_only_legal_transitions(ops in proptest::collection::vec((0u8..12, 1u64..30), 1..400)) {
        use BatchOutcome::{Failed, Inconclusive, Succeeded};
        use BreakerState::{Closed, HalfOpen, Open};
        const COOLDOWN: Duration = Duration::from_millis(20);
        let b = CircuitBreaker::new(BreakerConfig { cooldown: COOLDOWN });
        let mut now = Instant::now();
        // Reference model: outcomes since the breaker last closed or
        // opened (true = failure), when the cooldown ends, the heartbeat
        // flag, and the batches admitted but not yet settled.
        let mut window: VecDeque<bool> = VecDeque::new();
        let mut streak = 0;
        let mut open_until = now;
        let mut silent = false;
        let mut unsettled = 0u32;
        let mut probe_since_outcome = false;
        for (kind, ms) in ops {
            let before = b.state();
            let mut recorded = None;
            match kind {
                // The worker asks to dispatch a batch.
                0..=3 => {
                    let admitted = b.admit_batch(now);
                    prop_assert!(admitted || before != Closed, "a closed breaker admits");
                    if admitted {
                        unsettled += 1;
                    }
                    if admitted && before != Closed {
                        prop_assert!(before == Open && now >= open_until, "probe before the cooldown");
                        prop_assert!(!probe_since_outcome, "two probes between outcomes");
                        probe_since_outcome = true;
                    }
                }
                // A dispatched batch settles (4–5 ok, 6–7 failed, 8 hedge-won).
                4..=8 if unsettled > 0 => {
                    let outcome = match kind {
                        4 | 5 => Succeeded,
                        6 | 7 => Failed,
                        _ => Inconclusive,
                    };
                    unsettled -= 1;
                    probe_since_outcome = false;
                    b.record(outcome, now);
                    recorded = Some(outcome);
                }
                9 | 10 => {
                    silent = kind == 9;
                    b.set_heartbeat_silent(silent);
                }
                _ => now += Duration::from_millis(ms),
            }
            let after = b.state();
            match (before, after) {
                (Closed, _) if matches!(recorded, Some(Succeeded | Failed)) => {
                    let failed = recorded == Some(Failed);
                    window.push_back(failed);
                    if window.len() > WINDOW {
                        window.pop_front();
                    }
                    streak = if failed { streak + 1 } else { 0 };
                    let failures = window.iter().filter(|&&f| f).count();
                    let rate = failures as f64 / window.len() as f64;
                    let trips = failed
                        && (streak >= STREAK
                            || (window.len() >= MIN_SAMPLES && rate >= FAILURE_THRESHOLD));
                    prop_assert!((after == Open) == trips, "streak {streak} window {window:?}");
                    prop_assert!(after != HalfOpen);
                    if trips {
                        open_until = now + COOLDOWN;
                    }
                }
                (HalfOpen, Closed) => prop_assert_eq!(recorded, Some(Succeeded)),
                (HalfOpen, Open) => match recorded {
                    Some(Failed) => open_until = now + COOLDOWN,
                    Some(Inconclusive) => open_until = now,
                    other => prop_assert!(false, "probing → open on {other:?}"),
                },
                // Asserted legal where the probe was admitted, above.
                (Open, HalfOpen) => prop_assert!(kind <= 3),
                // Every outcome ends a probe one way or another.
                (HalfOpen, HalfOpen) => prop_assert_eq!(recorded, None),
                (Closed, Closed) | (Open, Open) => {}
                illegal => prop_assert!(false, "illegal transition {illegal:?}"),
            }
            if before != after {
                window.clear();
                streak = 0;
            }
            // In particular: clean ⇔ breaker closed ∧ heartbeats arriving.
            let expected = match after {
                Closed if silent => Health::Silent,
                Closed => Health::Clean,
                HalfOpen => Health::Probing,
                Open if now < open_until => Health::CoolingDown,
                Open => Health::WantsProbe,
            };
            prop_assert_eq!(b.health(now), expected);
            prop_assert!(b.opened() >= b.half_opened() && b.half_opened() >= b.closed());
        }
    }

    /// Statestore versions increase monotonically and CAS only succeeds on
    /// the exact current version.
    #[test]
    fn statestore_cas_is_linearizable_per_key(ops in proptest::collection::vec((0u8..3, 0u8..4), 1..100)) {
        let store = StateStore::new();
        let mut shadow: HashMap<String, (Vec<u8>, u64)> = HashMap::new();
        for (op, key_id) in ops {
            let key = format!("k{key_id}");
            match op {
                0 => {
                    let v = store.set(&key, vec![op]);
                    if let Some((_, old)) = shadow.get(&key) {
                        prop_assert!(v > *old);
                    }
                    shadow.insert(key.clone(), (vec![op], v));
                }
                1 => {
                    let got = store.get_versioned(&key);
                    let want = shadow.get(&key).cloned();
                    prop_assert_eq!(got, want);
                }
                _ => {
                    if let Some((_, ver)) = shadow.get(&key).cloned() {
                        match store.cas(&key, ver, b"cas".to_vec()) {
                            CasOutcome::Stored(nv) => {
                                prop_assert_eq!(nv, ver + 1);
                                shadow.insert(key.clone(), (b"cas".to_vec(), nv));
                            }
                            other => prop_assert!(false, "cas failed: {other:?}"),
                        }
                        // Stale CAS must now conflict.
                        prop_assert!(matches!(
                            store.cas(&key, ver, b"stale".to_vec()),
                            CasOutcome::Conflict(_)
                        ));
                    } else {
                        prop_assert_eq!(store.cas(&key, 1, b"x".to_vec()), CasOutcome::Missing);
                    }
                }
            }
        }
    }

    /// Dataset generation is deterministic and labels stay in range for
    /// arbitrary spec shapes.
    #[test]
    fn dataset_generator_is_sound(classes in 2usize..20, features in 4usize..64, n in 1usize..100, seed in any::<u64>()) {
        let mut spec = clipper::ml::datasets::DatasetSpec::speech_like();
        spec.num_classes = classes;
        spec.num_features = features;
        let ds = spec.with_train_size(n).with_test_size(n).generate(seed);
        let ds2 = ds.spec.generate(seed);
        prop_assert_eq!(ds.train.len(), n);
        for (a, b) in ds.train.iter().zip(ds2.train.iter()) {
            prop_assert_eq!(&a.x, &b.x);
            prop_assert!((a.y as usize) < classes);
            prop_assert_eq!(a.x.len(), features);
        }
    }
}

/// Payload-size extremes, deterministically: a zero-byte payload and a
/// payload of exactly `MAX_PAYLOAD` round-trip through the buffered
/// reader; one byte over is rejected from the header alone.
#[test]
fn rpc_payload_size_boundaries() {
    // Zero-byte payload.
    let mut data = Vec::new();
    Message::Heartbeat.encode_into(7, &mut data);
    assert_eq!(data.len(), HEADER_LEN);
    let mut r = FrameReader::new(ChunkedReader::new(data, vec![1]));
    assert_eq!(block_on_ready(r.next()).unwrap(), (7, Message::Heartbeat));

    // Exactly MAX_PAYLOAD (64 MiB): accepted. Error payload = len(4) + text.
    let msg = Message::Error {
        message: "x".repeat(MAX_PAYLOAD - 4),
    };
    let mut data = Vec::with_capacity(HEADER_LEN + MAX_PAYLOAD);
    msg.encode_into(1, &mut data);
    assert_eq!(data.len(), HEADER_LEN + MAX_PAYLOAD);
    let mut r = FrameReader::new(ChunkedReader::new(data, vec![8 << 20]));
    let (id, got) = block_on_ready(r.next()).unwrap();
    assert_eq!(id, 1);
    assert_eq!(got, msg);

    // MAX_PAYLOAD + 1: rejected before any payload is read.
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC.to_le_bytes());
    header.push(VERSION);
    header.push(5); // Error
    header.extend_from_slice(&1u64.to_le_bytes());
    header.extend_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
    let mut r = FrameReader::new(ChunkedReader::new(header, vec![]));
    assert!(matches!(
        block_on_ready(r.next()),
        Err(RpcError::Protocol(_))
    ));
}
