//! The prediction cache (§4.2).
//!
//! A function cache for `Predict(m, x) -> y` with two jobs:
//!
//! 1. **Pre-materialization** — frequent queries are answered without
//!    evaluating the model. Eviction is CLOCK (second-chance), the
//!    algorithm the paper cites; selection happens *above* the cache, so
//!    policy changes never invalidate entries.
//! 2. **Join point** — a *pending* entry represents an in-flight
//!    computation. Duplicate concurrent queries, and feedback joins that
//!    arrive shortly after a prediction (§5), attach as waiters instead of
//!    re-evaluating the model — the paper's non-blocking `request`/`fetch`
//!    API.
//!
//! # Scaling design
//!
//! The cache is **sharded**: `shard_count()` independent CLOCK rings (a
//! power of two, sized from the host's parallelism), each behind its own
//! mutex and each owning its own index and pending-waiter map. A key's
//! shard is chosen by fingerprint bits, so concurrent probes for different
//! keys almost never contend on a lock. Hit/miss/eviction/pending-join
//! counts are relaxed per-shard atomics aggregated only in
//! [`PredictionCache::stats`], so telemetry never re-serializes the
//! shards.
//!
//! Keys are 128-bit fingerprints of `(model, input)` built in a **single
//! streaming pass** over the input ([`CacheKey::new`]); inputs themselves
//! are not stored. The two 64-bit halves come from independently seeded
//! lanes of one hasher: one half picks the home bucket in the shard's
//! index, the other selects the shard. With two independent 64-bit
//! halves, collisions are negligible at serving scale. The lane seeds
//! are a per-process key, so a set of inputs that collides in one
//! process's index does not collide in the next.
//!
//! A shard pays for what it holds. Its CLOCK ring is a `Vec` reserved at
//! the shard's capacity and pushed into until full, so untouched slots
//! cost no resident memory, and a slot is the 16-byte key plus the
//! output (48 bytes); reference bits sit in a separate bitset. The index
//! is a `Box<[u32]>` of ring slot numbers, allocated zeroed once at
//! construction to a power of two at least twice the capacity: it never
//! grows or rehashes under the shard lock, stores no key (a linear probe
//! compares the ring slot's own), and an eviction clears its bucket by
//! backward shift. A full shard costs about 56 bytes per entry.

use crate::error::PredictError;
use crate::types::{Input, ModelId, Output};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use tokio::sync::oneshot;

/// What a pending entry settles with: waiters get the typed
/// [`PredictError`] the evaluation produced, so the HTTP error taxonomy
/// behind them keeps its kind, retryability and status mapping.
type FillResult = Result<Output, PredictError>;

/// Counts every input-hashing pass ([`CacheKey::new`] invocations), so
/// tests can assert the predict hot path hashes each input exactly once.
/// Debug-only: in release builds the hot path carries no process-global
/// atomic (which would put one contended cache line back on every
/// predict).
#[cfg(debug_assertions)]
static KEY_BUILDS: AtomicU64 = AtomicU64::new(0);

/// 128-bit `(model, input)` fingerprint, built in one streaming pass.
///
/// `Copy`, 16 bytes: compute it once at the top of a request and thread it
/// by value through every cache call. Distinct models never collide
/// because the model id is folded into the hash state before the input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheKey {
    fp: [u64; 2],
}

/// Two independently seeded accumulator lanes fed by one pass over the
/// data. Each absorbed word updates both lanes (distinct rotations and
/// multipliers), and [`finish`](TwoLaneHasher::finish) applies a distinct
/// finalizer per lane — one hashing pass, two 64-bit halves.
struct TwoLaneHasher {
    h1: u64,
    h2: u64,
}

/// splitmix64 finalizer: full-avalanche mix of one word.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// This process's lane seeds, drawn once from std's randomly keyed
/// [`RandomState`]. With fixed seeds a client could search offline for
/// inputs whose `fp[0]` low bits agree and pile one long probe run into
/// a shard's index; a per-process key makes that search unrepeatable.
fn process_seed() -> [u64; 2] {
    static SEED: OnceLock<[u64; 2]> = OnceLock::new();
    *SEED.get_or_init(|| {
        let state = RandomState::new();
        [
            state.hash_one(0x9E37_79B9_7F4A_7C15u64), // golden ratio
            state.hash_one(0xC2B2_AE3D_27D4_EB4Fu64), // xxh64 prime
        ]
    })
}

impl TwoLaneHasher {
    #[inline]
    fn new([h1, h2]: [u64; 2]) -> Self {
        TwoLaneHasher { h1, h2 }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let m = mix64(v);
        self.h1 = (self.h1 ^ m)
            .rotate_left(27)
            .wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        self.h2 = (self.h2 ^ m.rotate_left(32))
            .rotate_left(31)
            .wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    }

    #[inline]
    fn finish(self) -> [u64; 2] {
        [mix64(self.h1), mix64(self.h2 ^ 0x165667B19E3779F9)]
    }
}

impl CacheKey {
    /// Build the key for `(model, input)` in a single pass over the input.
    pub fn new(model: &ModelId, input: &Input) -> Self {
        Self::seeded(model, input, process_seed())
    }

    #[inline]
    fn seeded(model: &ModelId, input: &Input, seed: [u64; 2]) -> Self {
        #[cfg(debug_assertions)]
        KEY_BUILDS.fetch_add(1, Ordering::Relaxed);
        let mut h = TwoLaneHasher::new(seed);
        let name = model.name.as_bytes();
        h.write_u64(((model.version as u64) << 32) ^ name.len() as u64);
        for chunk in name.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            h.write_u64(u64::from_le_bytes(buf));
        }
        h.write_u64(input.len() as u64);
        let mut pairs = input.chunks_exact(2);
        for pair in &mut pairs {
            h.write_u64(((pair[0].to_bits() as u64) << 32) | pair[1].to_bits() as u64);
        }
        if let [last] = pairs.remainder() {
            h.write_u64(last.to_bits() as u64 ^ 0x8000_0000_0000_0000);
        }
        CacheKey { fp: h.finish() }
    }

    /// Construct a key directly from fingerprint halves. Test/bench aid:
    /// lets load generators synthesize key populations without building
    /// input vectors.
    #[doc(hidden)]
    pub fn from_fingerprint(a: u64, b: u64) -> Self {
        CacheKey { fp: [a, b] }
    }

    /// Total [`CacheKey::new`] invocations so far, process-wide. Tests use
    /// before/after deltas to prove the hot path hashes each input once.
    /// Counts only in debug builds (always 0 in release — the counter is
    /// compiled out of the hot path).
    #[doc(hidden)]
    pub fn build_count() -> u64 {
        #[cfg(debug_assertions)]
        {
            KEY_BUILDS.load(Ordering::Relaxed)
        }
        #[cfg(not(debug_assertions))]
        {
            0
        }
    }
}

impl Hash for CacheKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The fingerprint is already uniform; hand one half to the hasher.
        state.write_u64(self.fp[0]);
    }
}

/// Identity hasher for pre-hashed keys: `finish` returns the written word
/// verbatim, so map probes do no rehashing at all.
#[derive(Default)]
pub(crate) struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by CacheKey, which writes one u64).
        for &b in bytes {
            self.0 = mix64(self.0 ^ b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type FpMap<V> = HashMap<CacheKey, V, BuildHasherDefault<FingerprintHasher>>;

/// Outcome of a cache lookup.
pub enum Lookup {
    /// Value present.
    Hit(Output),
    /// Another caller is computing this entry; await the receiver.
    Pending(oneshot::Receiver<FillResult>),
    /// This caller must trigger the computation, then await the receiver
    /// (the computation's completion flows back through [`PredictionCache::fill`]).
    MustCompute(oneshot::Receiver<FillResult>),
}

/// Aggregated cache telemetry (see [`PredictionCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from a stored value.
    pub hits: u64,
    /// Probes that found neither a value nor an in-flight computation.
    pub misses: u64,
    /// Completed entries displaced by CLOCK.
    pub evictions: u64,
    /// Probes that joined an in-flight computation instead of
    /// re-evaluating — the §4.2 feedback-join path. Not misses: no model
    /// evaluation results from them.
    pub pending_joins: u64,
}

impl CacheStats {
    /// All probes: hits + misses + pending joins.
    pub fn probes(&self) -> u64 {
        self.hits + self.misses + self.pending_joins
    }

    /// Fraction of probes served without triggering a model evaluation
    /// (hits and pending joins).
    pub fn hit_rate(&self) -> f64 {
        let p = self.probes();
        if p == 0 {
            return 0.0;
        }
        (self.hits + self.pending_joins) as f64 / p as f64
    }
}

/// One stored prediction. The reference bit lives in
/// [`ShardInner::referenced`], beside the ring, so a slot is 48 bytes.
struct Slot {
    key: CacheKey,
    value: Output,
}

struct ShardInner {
    /// Most entries the ring holds.
    capacity: usize,
    /// CLOCK ring: reserved at the shard's capacity and pushed into until
    /// full, so its memory is touched only as entries arrive.
    slots: Vec<Slot>,
    /// One reference bit per ring slot.
    referenced: Box<[u64]>,
    /// The CLOCK hand: `slots.len()` while the ring fills, then the next
    /// slot the sweep inspects.
    hand: usize,
    /// Open-addressed index over the ring: each bucket holds a slot
    /// number + 1 (0 = empty). Sized once to a power of two at least
    /// twice the capacity, so it never rehashes; probes are linear from
    /// `fp[0]`'s home bucket and compare the ring slot's own key.
    index: Box<[u32]>,
    /// In-flight computations and their waiters.
    pending: FpMap<Vec<oneshot::Sender<FillResult>>>,
}

impl ShardInner {
    fn new(capacity: usize) -> Self {
        assert!(
            capacity < u32::MAX as usize,
            "a cache shard holds fewer than 2^32 - 1 entries"
        );
        ShardInner {
            capacity,
            slots: Vec::with_capacity(capacity),
            referenced: vec![0; capacity.div_ceil(64)].into_boxed_slice(),
            hand: 0,
            index: vec![0; (2 * capacity).next_power_of_two()].into_boxed_slice(),
            pending: FpMap::default(),
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    #[inline]
    fn home(&self, key: CacheKey) -> usize {
        key.fp[0] as usize & self.mask()
    }

    /// The bucket and ring slot holding `key`, if stored. The table is
    /// at most half full, so the probe always reaches an empty bucket.
    #[inline]
    fn find(&self, key: CacheKey) -> Option<(usize, usize)> {
        let mut bucket = self.home(key);
        loop {
            let slot = self.index[bucket] as usize;
            if slot == 0 {
                return None;
            }
            if self.slots[slot - 1].key == key {
                return Some((bucket, slot - 1));
            }
            bucket = (bucket + 1) & self.mask();
        }
    }

    /// A hit: the stored value, with its slot marked referenced.
    #[inline]
    fn get(&mut self, key: CacheKey) -> Option<&Output> {
        let (_, slot) = self.find(key)?;
        self.set_referenced(slot, true);
        Some(&self.slots[slot].value)
    }

    #[inline]
    fn is_referenced(&self, slot: usize) -> bool {
        self.referenced[slot / 64] & (1 << (slot % 64)) != 0
    }

    #[inline]
    fn set_referenced(&mut self, slot: usize, on: bool) {
        let (word, bit) = (&mut self.referenced[slot / 64], 1u64 << (slot % 64));
        if on {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Point `slots[slot].key`'s first empty bucket at `slot`.
    fn link(&mut self, slot: usize) {
        let mut bucket = self.home(self.slots[slot].key);
        while self.index[bucket] != 0 {
            bucket = (bucket + 1) & self.mask();
        }
        self.index[bucket] = slot as u32 + 1;
    }

    /// Empty `bucket` by backward shift: each later entry of the probe
    /// run whose home lies at or before the hole moves into it, so every
    /// remaining key stays reachable from its home without tombstones.
    fn unlink(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut next = hole;
        loop {
            self.index[hole] = 0;
            loop {
                next = (next + 1) & mask;
                let slot = self.index[next] as usize;
                if slot == 0 {
                    return;
                }
                let home = self.home(self.slots[slot - 1].key);
                // Movable iff `home` is not cyclically in (hole, next].
                if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                    self.index[hole] = slot as u32;
                    hole = next;
                    break;
                }
            }
        }
    }

    /// CLOCK insert: refresh `key` in place, fill the next free slot, or
    /// replace the first unreferenced slot past the hand (clearing
    /// reference bits on the way — the second chance). Returns whether an
    /// entry was evicted.
    fn store(&mut self, key: CacheKey, value: Output) -> bool {
        let capacity = self.capacity;
        if capacity == 0 {
            return false;
        }
        if let Some((_, slot)) = self.find(key) {
            self.slots[slot].value = value;
            self.set_referenced(slot, true);
            return false;
        }
        if self.slots.len() < capacity {
            let slot = self.slots.len();
            self.slots.push(Slot { key, value });
            self.set_referenced(slot, true);
            self.link(slot);
            self.hand = self.slots.len() % capacity;
            return false;
        }
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % capacity;
            if self.is_referenced(slot) {
                self.set_referenced(slot, false); // second chance
                continue;
            }
            let (bucket, _) = self
                .find(self.slots[slot].key)
                .expect("every ring slot is indexed");
            self.unlink(bucket);
            self.slots[slot] = Slot { key, value };
            self.set_referenced(slot, true);
            self.link(slot);
            return true;
        }
    }
}

struct Shard {
    inner: Mutex<ShardInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    pending_joins: AtomicU64,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            inner: Mutex::new(ShardInner::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            pending_joins: AtomicU64::new(0),
        }
    }
}

/// Concurrent sharded CLOCK-evicted prediction cache. Clone shares the
/// cache.
#[derive(Clone)]
pub struct PredictionCache {
    shards: Arc<[Shard]>,
    shard_mask: u64,
    capacity: usize,
}

/// Shard count for `capacity` on this host: the next power of two above
/// the available parallelism (capped at 64), reduced so every shard owns
/// at least one slot whenever the cache stores values at all.
fn default_shard_count(capacity: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut n = cores.next_power_of_two().min(64);
    while n > 1 && capacity > 0 && capacity < n {
        n /= 2;
    }
    n
}

impl PredictionCache {
    /// Create a cache holding up to `capacity` completed predictions,
    /// sharded for this host's parallelism. Capacity 0 disables value
    /// storage but keeps the pending-join machinery (in-flight dedup
    /// still works).
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, default_shard_count(capacity))
    }

    /// Create a cache with an explicit shard count (rounded up to a power
    /// of two, minimum 1). `capacity` is distributed across shards; with
    /// fewer slots than shards some shards store nothing, so prefer
    /// [`PredictionCache::new`] unless you need determinism (tests) or a
    /// contention baseline (benchmarks).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let built: Vec<Shard> = (0..n)
            .map(|i| Shard::new(capacity / n + usize::from(i < capacity % n)))
            .collect();
        PredictionCache {
            shards: built.into(),
            shard_mask: (n - 1) as u64,
            capacity,
        }
    }

    /// Number of independent shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total completed-entry capacity across shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn shard(&self, key: CacheKey) -> &Shard {
        // fp[1] selects the shard; fp[0] indexes within it — independent
        // halves, so shard choice and bucket choice never correlate.
        &self.shards[(key.fp[1] & self.shard_mask) as usize]
    }

    /// Non-blocking fetch (the paper's `fetch`): value if present.
    ///
    /// A probe that finds an in-flight computation counts as a
    /// `pending_join`, not a miss — no model evaluation results from it.
    pub fn fetch(&self, key: CacheKey) -> Option<Output> {
        let shard = self.shard(key);
        let mut inner = shard.inner.lock();
        if let Some(value) = inner.get(key).cloned() {
            drop(inner);
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return Some(value);
        }
        let in_flight = inner.pending.contains_key(&key);
        drop(inner);
        if in_flight {
            shard.pending_joins.fetch_add(1, Ordering::Relaxed);
        } else {
            shard.misses.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    /// The paper's `request`: returns the value, attaches to an in-flight
    /// computation, or instructs the caller to compute.
    pub fn lookup_or_pending(&self, key: CacheKey) -> Lookup {
        let shard = self.shard(key);
        let mut inner = shard.inner.lock();
        if let Some(value) = inner.get(key).cloned() {
            drop(inner);
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return Lookup::Hit(value);
        }
        let (tx, rx) = oneshot::channel();
        match inner.pending.get_mut(&key) {
            Some(waiters) => {
                waiters.push(tx);
                drop(inner);
                shard.pending_joins.fetch_add(1, Ordering::Relaxed);
                Lookup::Pending(rx)
            }
            None => {
                inner.pending.insert(key, vec![tx]);
                drop(inner);
                shard.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::MustCompute(rx)
            }
        }
    }

    /// Complete an in-flight computation: store the value (on success),
    /// wake every waiter. Waiters are woken outside the shard lock.
    pub fn fill(&self, key: CacheKey, result: FillResult) {
        let shard = self.shard(key);
        let waiters = {
            let mut inner = shard.inner.lock();
            if let Ok(ref value) = result {
                if inner.store(key, value.clone()) {
                    shard.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            inner.pending.remove(&key)
        };
        if let Some(waiters) = waiters {
            for w in waiters {
                let _ = w.send(result.clone());
            }
        }
    }

    /// Aggregated counters across all shards. Reads relaxed per-shard
    /// atomics only — never takes a shard lock.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for shard in self.shards.iter() {
            s.hits += shard.hits.load(Ordering::Relaxed);
            s.misses += shard.misses.load(Ordering::Relaxed);
            s.evictions += shard.evictions.load(Ordering::Relaxed);
            s.pending_joins += shard.pending_joins.load(Ordering::Relaxed);
        }
        s
    }

    /// Number of completed entries currently stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().slots.len()).sum()
    }

    /// Whether the cache holds no completed entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of in-flight computations.
    pub fn pending_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.inner.lock().pending.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    /// Which shard `key` lives in.
    fn shard_of(cache: &PredictionCache, key: CacheKey) -> usize {
        (key.fp[1] & cache.shard_mask) as usize
    }

    /// Snapshot of one shard's occupied slots as `(key, referenced)`
    /// pairs, in CLOCK-ring order starting at the hand.
    fn shard_slots(cache: &PredictionCache, shard: usize) -> Vec<(CacheKey, bool)> {
        let inner = cache.shards[shard].inner.lock();
        let len = inner.slots.len();
        (0..len)
            .map(|i| (inner.hand + i) % len)
            .map(|i| (inner.slots[i].key, inner.is_referenced(i)))
            .collect()
    }

    fn input(vals: &[f32]) -> Input {
        Arc::new(vals.to_vec())
    }

    fn model(n: &str) -> ModelId {
        ModelId::new(n, 1)
    }

    fn key(n: &str, vals: &[f32]) -> CacheKey {
        CacheKey::new(&model(n), &input(vals))
    }

    /// Inputs searched to share one home bucket under one lane seed
    /// scatter under another: a colliding set found against one process
    /// does not carry to the next.
    #[test]
    fn a_bucket_collision_set_does_not_survive_a_new_seed() {
        let shard = ShardInner::new(512);
        let (seed_a, seed_b) = ([1, 2], [3, 4]);
        let m = model("m");
        let home = |vals: &[f32], seed| shard.home(CacheKey::seeded(&m, &input(vals), seed));
        let target = home(&[0.0], seed_a);
        let colliding: Vec<f32> = (0..)
            .map(|i| i as f32)
            .filter(|&x| home(&[x], seed_a) == target)
            .take(64)
            .collect();
        let mut per_bucket = HashMap::new();
        for &x in &colliding {
            *per_bucket.entry(home(&[x], seed_b)).or_insert(0usize) += 1;
        }
        let fullest = per_bucket.values().copied().max().unwrap();
        assert!(fullest <= 4, "{fullest} of 64 still share a bucket");
        assert_ne!(process_seed(), [0, 0]);
        assert_eq!(process_seed(), process_seed(), "one key per process");
    }

    #[test]
    fn fetch_miss_then_fill_then_hit() {
        let cache = PredictionCache::new(4);
        let k = key("m", &[1.0, 2.0]);
        assert!(cache.fetch(k).is_none());
        cache.fill(k, Ok(Output::Class(3)));
        assert_eq!(cache.fetch(k), Some(Output::Class(3)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn key_is_deterministic() {
        // (The exactly-one-pass-per-predict property is asserted in
        // `tests/hash_passes.rs`, which owns its process — the build
        // counter is process-global, so counting here would race with
        // sibling tests.)
        let m = model("m");
        let x = input(&[1.0, 2.0, 3.0]);
        assert_eq!(CacheKey::new(&m, &x), CacheKey::new(&m, &x));
    }

    #[test]
    fn keys_differ_across_models_versions_and_inputs() {
        let x = input(&[1.0, 2.0]);
        let keys = [
            CacheKey::new(&model("a"), &x),
            CacheKey::new(&model("b"), &x),
            CacheKey::new(&ModelId::new("a", 2), &x),
            CacheKey::new(&model("a"), &input(&[1.0, 2.0, 0.0])),
            CacheKey::new(&model("a"), &input(&[2.0, 1.0])),
        ];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "key {i} vs {j}");
            }
        }
    }

    #[tokio::test]
    async fn must_compute_then_waiters_join() {
        let cache = PredictionCache::new(4);
        let k = key("m", &[5.0]);
        let first = cache.lookup_or_pending(k);
        let rx1 = match first {
            Lookup::MustCompute(rx) => rx,
            _ => panic!("first lookup must be MustCompute"),
        };
        // Second lookup joins as a waiter.
        let rx2 = match cache.lookup_or_pending(k) {
            Lookup::Pending(rx) => rx,
            _ => panic!("second lookup must be Pending"),
        };
        assert_eq!(cache.pending_len(), 1);
        cache.fill(k, Ok(Output::Class(7)));
        assert_eq!(rx1.await.unwrap().unwrap(), Output::Class(7));
        assert_eq!(rx2.await.unwrap().unwrap(), Output::Class(7));
        assert_eq!(cache.pending_len(), 0);
        // Third lookup hits.
        assert!(matches!(cache.lookup_or_pending(k), Lookup::Hit(_)));
        let s = cache.stats();
        assert_eq!(s.pending_joins, 1, "the second lookup was a join");
        assert_eq!(s.misses, 1, "only the MustCompute probe was a miss");
    }

    #[test]
    fn fetch_during_pending_counts_as_join_not_miss() {
        let cache = PredictionCache::new(4);
        let k = key("m", &[5.0]);
        let _rx = cache.lookup_or_pending(k); // MustCompute → 1 miss
        assert!(cache.fetch(k).is_none());
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.pending_joins, 1, "fetch saw the in-flight entry");
    }

    #[tokio::test]
    async fn fill_error_propagates_and_is_not_cached() {
        let cache = PredictionCache::new(4);
        let k = key("m", &[9.0]);
        let rx = match cache.lookup_or_pending(k) {
            Lookup::MustCompute(rx) => rx,
            _ => panic!(),
        };
        cache.fill(k, Err(PredictError::Failed("boom".into())));
        assert!(rx.await.unwrap().is_err());
        assert!(cache.fetch(k).is_none(), "errors are not cached");
    }

    #[test]
    fn distinct_models_do_not_collide() {
        let cache = PredictionCache::new(4);
        let x = [1.0];
        cache.fill(key("a", &x), Ok(Output::Class(1)));
        cache.fill(key("b", &x), Ok(Output::Class(2)));
        assert_eq!(cache.fetch(key("a", &x)), Some(Output::Class(1)));
        assert_eq!(cache.fetch(key("b", &x)), Some(Output::Class(2)));
    }

    #[test]
    fn clock_evicts_unreferenced_first() {
        // Single shard so the CLOCK sweep is deterministic.
        let cache = PredictionCache::with_shards(2, 1);
        let (a, b, c) = (key("m", &[1.0]), key("m", &[2.0]), key("m", &[3.0]));
        cache.fill(a, Ok(Output::Class(1)));
        cache.fill(b, Ok(Output::Class(2)));
        // Touch `a` so it has its reference bit set; `b`'s gets cleared by
        // the first hand sweep and `b` becomes the victim.
        cache.fetch(a);
        cache.fill(c, Ok(Output::Class(3)));
        assert_eq!(cache.len(), 2);
        assert!(cache.fetch(c).is_some(), "new entry stored");
        let survivors = [cache.fetch(a).is_some(), cache.fetch(b).is_some()];
        assert_eq!(
            survivors.iter().filter(|&&s| s).count(),
            1,
            "exactly one old entry survives"
        );
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn refresh_same_key_does_not_grow() {
        let cache = PredictionCache::new(2);
        let k = key("m", &[1.0]);
        cache.fill(k, Ok(Output::Class(1)));
        cache.fill(k, Ok(Output::Class(2)));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.fetch(k), Some(Output::Class(2)));
    }

    #[test]
    fn zero_capacity_joins_but_never_stores() {
        let cache = PredictionCache::new(0);
        let k = key("m", &[1.0]);
        assert!(matches!(cache.lookup_or_pending(k), Lookup::MustCompute(_)));
        cache.fill(k, Ok(Output::Class(1)));
        assert!(cache.fetch(k).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn eviction_under_churn_keeps_capacity_bound() {
        let cache = PredictionCache::with_shards(8, 1);
        for i in 0..100 {
            cache.fill(key("m", &[i as f32]), Ok(Output::Class(i)));
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.stats().evictions, 92);
    }

    #[test]
    fn sharding_spreads_keys_and_respects_capacity() {
        let cache = PredictionCache::with_shards(64, 8);
        assert_eq!(cache.shard_count(), 8);
        let mut shards_used = HashSet::new();
        for i in 0..256u32 {
            let k = key("m", &[i as f32]);
            shards_used.insert(shard_of(&cache, k));
            cache.fill(k, Ok(Output::Class(i)));
            assert!(cache.len() <= 64);
        }
        assert!(
            shards_used.len() >= 6,
            "256 keys should land in most of 8 shards, got {}",
            shards_used.len()
        );
    }

    #[test]
    fn default_shard_count_never_outnumbers_slots() {
        for capacity in [1usize, 2, 3, 5, 7, 64, 0] {
            let cache = PredictionCache::new(capacity);
            if capacity > 0 {
                assert!(
                    cache.shard_count() <= capacity,
                    "capacity {capacity}: {} shards",
                    cache.shard_count()
                );
            }
            assert!(cache.shard_count().is_power_of_two());
        }
    }

    /// Satellite: K concurrent `lookup_or_pending` calls on one key yield
    /// exactly one `MustCompute`; all K−1 `Pending` waiters observe the
    /// fill. The fill happens only after every task has reported its
    /// lookup outcome, so the counts are deterministic regardless of
    /// scheduling.
    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn concurrent_lookups_yield_one_computer_and_all_observe_fill() {
        let cache = PredictionCache::new(64);
        let k = key("m", &[42.0]);
        const K: usize = 16;
        let (report_tx, mut report_rx) = tokio::sync::mpsc::channel::<bool>(K);
        let mut tasks = Vec::new();
        for _ in 0..K {
            let cache = cache.clone();
            let report_tx = report_tx.clone();
            tasks.push(tokio::spawn(async move {
                let (was_computer, rx) = match cache.lookup_or_pending(k) {
                    Lookup::MustCompute(rx) => (true, rx),
                    Lookup::Pending(rx) => (false, rx),
                    Lookup::Hit(_) => panic!("nothing fills before all lookups are in"),
                };
                report_tx.send(was_computer).await.unwrap();
                (was_computer, rx.await.unwrap())
            }));
        }
        drop(report_tx);
        // Wait until every task has performed its lookup, then fill once.
        // (Count to K rather than draining to channel-close: each task
        // keeps its sender alive while it awaits the fill.)
        for _ in 0..K {
            report_rx.recv().await.expect("every task reports");
        }
        cache.fill(k, Ok(Output::Class(9)));

        let mut computers = 0;
        for t in tasks {
            let (was_computer, result) = t.await.unwrap();
            computers += usize::from(was_computer);
            assert_eq!(result.unwrap(), Output::Class(9));
        }
        assert_eq!(computers, 1, "exactly one caller computes");
        assert_eq!(cache.pending_len(), 0);
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.pending_joins as usize, K - 1);
    }

    /// Satellite: the fail path also wakes every waiter, with the error.
    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn concurrent_waiters_all_observe_a_failed_fill() {
        let cache = PredictionCache::new(64);
        let k = key("m", &[7.0]);
        let rx0 = match cache.lookup_or_pending(k) {
            Lookup::MustCompute(rx) => rx,
            _ => panic!("first must compute"),
        };
        let mut waiters = Vec::new();
        for _ in 0..8 {
            match cache.lookup_or_pending(k) {
                Lookup::Pending(rx) => waiters.push(rx),
                _ => panic!("subsequent lookups must join"),
            }
        }
        cache.fill(k, Err(PredictError::NoReplicas));
        assert_eq!(rx0.await.unwrap(), Err(PredictError::NoReplicas));
        for rx in waiters {
            assert!(rx.await.unwrap().is_err());
        }
        assert_eq!(cache.pending_len(), 0);
        assert!(cache.fetch(k).is_none(), "failures are not cached");
    }

    /// Reference model of one CLOCK shard used by the eviction proptest.
    fn unreferenced_set(cache: &PredictionCache, shard: usize) -> HashSet<u64> {
        shard_slots(cache, shard)
            .into_iter()
            .filter(|(_, referenced)| !referenced)
            .map(|(k, _)| k.fp[0])
            .collect()
    }

    /// The value the index reaches for `key`, without touching its
    /// reference bit.
    fn peek(cache: &PredictionCache, key: CacheKey) -> Option<Output> {
        let inner = cache.shard(key).inner.lock();
        inner
            .find(key)
            .map(|(_, slot)| inner.slots[slot].value.clone())
    }

    /// Low halves of the index's hash word: homes 0 and 1, and the last
    /// two buckets of every table size, so probe runs collide and wrap.
    const HOMES: [u64; 4] = [0, 1, 0xFFFF_FFFE, 0xFFFF_FFFF];

    fn crowded_key(home: usize, tag: u64, lane: u64) -> CacheKey {
        CacheKey::from_fingerprint((tag << 32) | HOMES[home], lane)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// CLOCK never exceeds capacity, and never evicts a `referenced`
        /// entry while an unreferenced one exists in the same shard.
        #[test]
        fn clock_eviction_invariants(
            capacity in 1usize..12,
            ops in proptest::collection::vec((0u32..48, any::<bool>()), 1..200),
        ) {
            let cache = PredictionCache::with_shards(capacity, 1);
            for (id, is_fill) in ops {
                let k = CacheKey::from_fingerprint(id as u64, 0);
                if is_fill && cache.fetch(k).is_none() {
                    let stored: HashSet<u64> =
                        shard_slots(&cache, 0).into_iter().map(|(k, _)| k.fp[0]).collect();
                    let unreferenced = unreferenced_set(&cache, 0);
                    let evictions_before = cache.stats().evictions;
                    cache.fill(k, Ok(Output::Class(id)));
                    let after: HashSet<u64> =
                        shard_slots(&cache, 0).into_iter().map(|(k, _)| k.fp[0]).collect();
                    let evicted: Vec<u64> = stored.difference(&after).copied().collect();
                    if cache.stats().evictions > evictions_before {
                        prop_assert!(evicted.len() == 1, "one eviction must remove one key");
                        if !unreferenced.is_empty() {
                            prop_assert!(
                                unreferenced.contains(&evicted[0]),
                                "evicted a referenced entry while {:?} were unreferenced",
                                unreferenced
                            );
                        }
                    } else {
                        prop_assert!(evicted.is_empty(), "no eviction counted but a key vanished");
                    }
                }
                prop_assert!(cache.len() <= capacity, "len {} > capacity {}", cache.len(), capacity);
            }
        }

        /// The slot index agrees with a reference map of the stored keys
        /// over keys crowded into four home buckets (two at the table's
        /// end), so collisions, wrap-around, backward-shift deletes and
        /// evict-then-reinsert are the common case.
        #[test]
        fn slot_index_matches_reference_map(
            capacity in 1usize..12,
            ops in proptest::collection::vec(
                (0usize..4, 0u64..6, 0u64..2, any::<bool>()),
                1..300,
            ),
        ) {
            let cache = PredictionCache::with_shards(capacity, 1);
            let universe: Vec<CacheKey> = (0..4)
                .flat_map(|h| (0..6).flat_map(move |t| (0..2).map(move |l| crowded_key(h, t, l))))
                .collect();
            let mut model: HashMap<CacheKey, u32> = HashMap::new();
            for (step, (home, tag, lane, is_fill)) in ops.into_iter().enumerate() {
                let k = crowded_key(home, tag, lane);
                if is_fill {
                    let evictions_before = cache.stats().evictions;
                    cache.fill(k, Ok(Output::Class(step as u32)));
                    let ring: HashSet<CacheKey> =
                        shard_slots(&cache, 0).into_iter().map(|(k, _)| k).collect();
                    let gone: Vec<CacheKey> =
                        model.keys().filter(|k| !ring.contains(k)).copied().collect();
                    let evicted = cache.stats().evictions - evictions_before;
                    prop_assert_eq!(gone.len() as u64, evicted);
                    for g in &gone {
                        model.remove(g);
                    }
                    model.insert(k, step as u32);
                } else {
                    let hit = cache.fetch(k);
                    prop_assert_eq!(hit, model.get(&k).map(|&v| Output::Class(v)));
                }
                prop_assert!(cache.len() <= capacity, "len {} > capacity {}", cache.len(), capacity);
                prop_assert_eq!(cache.len(), model.len());
                for &u in &universe {
                    prop_assert_eq!(peek(&cache, u), model.get(&u).map(|&v| Output::Class(v)));
                }
            }
        }
    }
}
