//! Per-replica health (§5.2.2 robustness): the state machine that says
//! whether a replica's recent batches and heartbeats earn it traffic. It
//! stops dispatch at a replica that keeps failing, probes it after a
//! cooldown, readmits it only once a probe batch succeeds, and carries the
//! fleet's heartbeat-silent flag.
//!
//! The breaker is one input of a replica's one health answer, the
//! replica queue's `health(now)`, which the scheduler's tiers, admission,
//! hedging, the suspect sweep, the fleet's replica view and `/metrics`
//! all read. The other input is the transport's liveness: a replica whose
//! transport reports itself unhealthy (on a TCP handle: the connection
//! closed, a write failed, or a liveness probe went unanswered past its
//! grace) reads [`Health::Down`] whatever the breaker says.
//!
//! The breaker runs the classic three-state machine per replica queue:
//!
//! - **Closed** — batches dispatch normally. Every batch outcome lands in
//!   a sliding window of the last [`WINDOW`] batches; the breaker *opens*
//!   when the failure rate over at least [`MIN_SAMPLES`] outcomes reaches
//!   [`FAILURE_THRESHOLD`], or immediately on [`STREAK`] consecutive
//!   failures.
//! - **Open** — the lanes refuse to dispatch here; queued items are
//!   redispatched onto sibling replicas (or fail-filled when none can take
//!   them). For [`BreakerConfig::cooldown`] the replica reads
//!   [`Health::CoolingDown`]; after it, [`Health::WantsProbe`] — the
//!   scheduler then deliberately hands it one query, because a pull-based
//!   queue that nobody routes to could never prove it recovered.
//! - **HalfOpen** — exactly one probe batch is in flight
//!   ([`CircuitBreaker::admit_batch`] granted it). Success *closes* the
//!   breaker (window reset), failure *re-opens* it for another cooldown,
//!   and an inconclusive probe (a hedge answered for it) re-opens it
//!   *without* a cooldown, so the next batch probes again.
//!
//! Every transition takes `now` — an instant of the runtime's clock,
//! `tokio::time::Instant`, read once by the caller's routing or batching
//! decision — as an argument, so tests drive time.
//! Transitions are counted ([`CircuitBreaker::opened`],
//! [`CircuitBreaker::half_opened`], [`CircuitBreaker::closed`]); the
//! model abstraction layer exports them, and the replica's health code,
//! per queue on `/metrics`.

use super::micros;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::Duration;
use tokio::time::Instant;

/// Sliding window length in batches (outcomes live in a `u64` bitmask).
pub const WINDOW: usize = 32;
/// Failure rate over the window that opens the breaker.
pub const FAILURE_THRESHOLD: f64 = 0.5;
/// Minimum outcomes in the window before the rate test applies — a
/// single failed batch after an idle period must not trip a 100% rate.
pub const MIN_SAMPLES: usize = 8;
/// Consecutive failures that open the breaker regardless of the window
/// (fast trip for a replica that is hard-down).
pub const STREAK: usize = 3;

/// Circuit-breaker tuning (per replica queue).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// How long an opened breaker holds traffic off before probing.
    #[serde(rename = "cooldown_us", with = "micros")]
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            cooldown: Duration::from_millis(500),
        }
    }
}

/// Live state of a [`CircuitBreaker`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Dispatching normally.
    Closed,
    /// One probe batch is in flight.
    HalfOpen,
    /// Refusing dispatch until a probe is granted.
    Open,
}

/// A replica's one answer to "can it take a query now?": the breaker's
/// verdict ([`CircuitBreaker::health`]) for a live transport, and
/// [`Down`](Health::Down) for a dead one. The scheduler's tiers are these
/// variants: [`WantsProbe`](Health::WantsProbe) is offered a query first,
/// [`Clean`](Health::Clean) replicas next, the live rest only when no
/// clean replica has room, and a `Down` replica never. Each variant's
/// discriminant is its code in the `queue/{id}/health` gauge; the breaker
/// state follows from it (closed: 0 and 4, half-open: 2, open: 1 and 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    /// Breaker closed and heartbeats arriving: route normally.
    Clean = 0,
    /// Breaker open with the cooldown elapsed: the next batch is the
    /// recovery probe, so the scheduler should deliver one.
    WantsProbe = 1,
    /// The recovery probe is in flight; further batches are refused
    /// until it settles.
    Probing = 2,
    /// Breaker open and inside its cooldown: every batch is refused, so
    /// the replica cannot vouch for SLO admission either.
    CoolingDown = 3,
    /// Breaker closed, but the fleet monitor reports the replica's
    /// heartbeats went silent — suspect before its batches start failing.
    Silent = 4,
    /// The transport reports itself dead (a closed connection, or a
    /// liveness probe unanswered past its grace): nothing is routed here
    /// until it reports itself alive again.
    Down = 5,
}

/// How one dispatched batch ended, as far as the replica's health goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The replica answered the batch.
    Succeeded,
    /// The replica failed the batch.
    Failed,
    /// A hedge answered instead: nothing was learned about this replica,
    /// but a probe slot it held must be released.
    Inconclusive,
}

const ST_CLOSED: u8 = 0;
const ST_HALF_OPEN: u8 = 1;
const ST_OPEN: u8 = 2;

/// Sliding-window batch outcomes.
#[derive(Default)]
struct BreakerWindow {
    /// Bit i set = outcome i in the ring was a failure.
    bits: u64,
    /// Next ring slot to overwrite.
    head: usize,
    /// Outcomes recorded so far, saturating at the window length.
    len: usize,
    /// Consecutive failures (reset by any success).
    streak: usize,
}

/// The per-replica breaker. [`health`](CircuitBreaker::health) — the
/// read on the routing path — is lock-free; the window mutex serializes
/// transitions and is touched once per *batch* (not per query), off the
/// submit path.
pub struct CircuitBreaker {
    cooldown: Duration,
    /// Reference point for the atomic `open_until_ns` deadline.
    base: Instant,
    state: AtomicU8,
    /// Cooldown deadline in nanoseconds since `base` (valid while Open).
    open_until_ns: AtomicU64,
    /// Raised by the fleet monitor while heartbeats are missing.
    heartbeat_silent: AtomicBool,
    window: Mutex<BreakerWindow>,
    n_opened: AtomicU64,
    n_half_opened: AtomicU64,
    n_closed: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cooldown: cfg.cooldown,
            base: Instant::now(),
            state: AtomicU8::new(ST_CLOSED),
            open_until_ns: AtomicU64::new(0),
            heartbeat_silent: AtomicBool::new(false),
            window: Mutex::new(BreakerWindow::default()),
            n_opened: AtomicU64::new(0),
            n_half_opened: AtomicU64::new(0),
            n_closed: AtomicU64::new(0),
        }
    }

    fn ns_since_base(&self, t: Instant) -> u64 {
        let ns = t.saturating_duration_since(self.base).as_nanos();
        ns.min(u64::MAX as u128) as u64
    }

    fn cooling_down(&self, now: Instant) -> bool {
        self.ns_since_base(now) < self.open_until_ns.load(Ordering::Acquire)
    }

    /// Current breaker state (the `/metrics` gauge).
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Acquire) {
            ST_CLOSED => BreakerState::Closed,
            ST_HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Open,
        }
    }

    /// The breaker's verdict at `now`: every [`Health`] but `Down`, which
    /// only the transport can report.
    pub fn health(&self, now: Instant) -> Health {
        match self.state.load(Ordering::Acquire) {
            ST_CLOSED if self.heartbeat_silent.load(Ordering::Relaxed) => Health::Silent,
            ST_CLOSED => Health::Clean,
            ST_HALF_OPEN => Health::Probing,
            _ if self.cooling_down(now) => Health::CoolingDown,
            _ => Health::WantsProbe,
        }
    }

    /// The fleet monitor's signal: heartbeats stopped (`true`) or came
    /// back (`false`). Returns whether the flag changed.
    pub fn set_heartbeat_silent(&self, silent: bool) -> bool {
        self.heartbeat_silent.swap(silent, Ordering::Relaxed) != silent
    }

    /// Ask to dispatch one batch. `Closed` admits; `Open` admits only
    /// past the cooldown, transitioning to `HalfOpen` — that batch is the
    /// probe; `HalfOpen` refuses until the probe settles.
    pub fn admit_batch(&self, now: Instant) -> bool {
        if self.state.load(Ordering::Acquire) == ST_CLOSED {
            return true;
        }
        // Under the lock: a racing worker may have taken the probe already.
        let _w = self.window.lock();
        match self.state.load(Ordering::Acquire) {
            ST_CLOSED => true,
            ST_OPEN if !self.cooling_down(now) => {
                self.state.store(ST_HALF_OPEN, Ordering::Release);
                self.n_half_opened.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Record one batch outcome (called once per dispatched batch).
    pub fn record(&self, outcome: BatchOutcome, now: Instant) {
        let mut w = self.window.lock();
        match (self.state.load(Ordering::Acquire), outcome) {
            (ST_HALF_OPEN, BatchOutcome::Succeeded) => {
                // Probe succeeded: close with a fresh window.
                *w = BreakerWindow::default();
                self.state.store(ST_CLOSED, Ordering::Release);
                self.n_closed.fetch_add(1, Ordering::Relaxed);
            }
            (ST_HALF_OPEN, BatchOutcome::Failed) => self.open_locked(now, self.cooldown),
            // The probe slot must not leak: reopen with no cooldown, so
            // the replica stays suspect and the next batch probes again.
            (ST_HALF_OPEN, BatchOutcome::Inconclusive) => self.open_locked(now, Duration::ZERO),
            (ST_CLOSED, BatchOutcome::Succeeded | BatchOutcome::Failed) => {
                let failed = outcome == BatchOutcome::Failed;
                let bit = 1u64 << w.head;
                if failed {
                    w.bits |= bit;
                } else {
                    w.bits &= !bit;
                }
                w.head = (w.head + 1) % WINDOW;
                w.len = (w.len + 1).min(WINDOW);
                w.streak = if failed { w.streak + 1 } else { 0 };
                let rate_trips = w.len >= MIN_SAMPLES
                    && (w.bits.count_ones() as f64 / w.len as f64) >= FAILURE_THRESHOLD;
                // Only a failure opens the breaker: a success that merely
                // brings the window up to MIN_SAMPLES is not evidence.
                if failed && (rate_trips || w.streak >= STREAK) {
                    self.open_locked(now, self.cooldown);
                    // Fresh window after recovery.
                    *w = BreakerWindow::default();
                }
            }
            // Open: a straggler dispatched before the trip is still
            // settling. Closed + inconclusive: nothing was learned.
            _ => {}
        }
    }

    /// Transition to Open and arm the cooldown (window lock held).
    fn open_locked(&self, now: Instant, cooldown: Duration) {
        self.open_until_ns.store(
            self.ns_since_base(now)
                .saturating_add(cooldown.as_nanos().min(u64::MAX as u128) as u64),
            Ordering::Release,
        );
        self.state.store(ST_OPEN, Ordering::Release);
        self.n_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Transitions into Open observed (including HalfOpen re-opens).
    pub fn opened(&self) -> u64 {
        self.n_opened.load(Ordering::Relaxed)
    }

    /// Open→HalfOpen transitions (probes granted).
    pub fn half_opened(&self) -> u64 {
        self.n_half_opened.load(Ordering::Relaxed)
    }

    /// HalfOpen→Closed transitions (successful recoveries).
    pub fn closed(&self) -> u64 {
        self.n_closed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::BatchOutcome::{Failed, Inconclusive, Succeeded};
    use super::*;

    const COOLDOWN: Duration = Duration::from_millis(20);

    /// A breaker plus the instant its clock starts at; tests advance
    /// time by passing `t0 + …` instead of sleeping.
    fn breaker() -> (CircuitBreaker, Instant) {
        let b = CircuitBreaker::new(BreakerConfig { cooldown: COOLDOWN });
        (b, Instant::now())
    }

    #[test]
    fn opens_on_a_failure_streak() {
        let (b, t0) = breaker();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(Failed, t0);
        b.record(Failed, t0);
        assert_eq!(b.health(t0), Health::Clean);
        b.record(Failed, t0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.health(t0), Health::CoolingDown);
        assert_eq!(b.opened(), 1);
        assert!(
            !b.admit_batch(t0),
            "open breaker must refuse inside cooldown"
        );
    }

    #[test]
    fn opens_on_failure_rate_without_a_streak() {
        let (b, t0) = breaker();
        // Alternate so no 3-streak forms. The 8th outcome fills the
        // window to MIN_SAMPLES at exactly 50%, but it is a success —
        // only the next failure may open the breaker.
        for _ in 0..MIN_SAMPLES / 2 {
            b.record(Failed, t0);
            b.record(Succeeded, t0);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(Failed, t0);
        assert_eq!(b.state(), BreakerState::Open);
        // A rate-opened breaker walks the same probe cycle as a
        // streak-opened one: suspect until its probe succeeds.
        assert_eq!(b.health(t0 + COOLDOWN), Health::WantsProbe);
    }

    #[test]
    fn successes_keep_it_closed() {
        let (b, t0) = breaker();
        for _ in 0..100 {
            b.record(Succeeded, t0);
        }
        // One failure in a healthy window is noise, not an outage; a
        // hedge win says nothing at all.
        b.record(Failed, t0);
        b.record(Inconclusive, t0);
        assert_eq!(b.health(t0), Health::Clean);
        assert!(b.admit_batch(t0));
    }

    #[test]
    fn half_open_probe_success_closes() {
        let (b, t0) = breaker();
        for _ in 0..STREAK {
            b.record(Failed, t0);
        }
        assert_eq!(b.state(), BreakerState::Open);
        let t1 = t0 + COOLDOWN;
        assert!(!b.admit_batch(t1 - Duration::from_nanos(1)));
        assert!(b.admit_batch(t1), "first batch after cooldown is the probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.admit_batch(t1), "only one probe at a time");
        b.record(Succeeded, t1);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.half_opened(), 1);
        assert_eq!(b.closed(), 1);
        assert!(b.admit_batch(t1));
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let (b, t0) = breaker();
        for _ in 0..STREAK {
            b.record(Failed, t0);
        }
        let t1 = t0 + COOLDOWN;
        assert!(b.admit_batch(t1));
        b.record(Failed, t1);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(
            b.health(t1),
            Health::CoolingDown,
            "re-open re-arms the cooldown"
        );
        assert_eq!(b.opened(), 2);
        // And it can still recover after another cooldown.
        let t2 = t1 + COOLDOWN;
        assert!(b.admit_batch(t2));
        b.record(Succeeded, t2);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn health_tracks_the_recovery_cycle() {
        let (b, t0) = breaker();
        assert_eq!(b.health(t0), Health::Clean);
        for _ in 0..STREAK {
            b.record(Failed, t0);
        }
        assert_eq!(b.health(t0), Health::CoolingDown, "hold traffic off");
        let t1 = t0 + COOLDOWN;
        assert_eq!(b.health(t1), Health::WantsProbe, "cooldown elapsed");
        assert!(b.admit_batch(t1));
        assert_eq!(b.health(t1), Health::Probing, "no second probe");
        // A hedge answered for the probe: the slot is released, the
        // replica stays suspect, and a new probe is granted at once.
        b.record(Inconclusive, t1);
        assert_eq!(b.health(t1), Health::WantsProbe);
        assert!(b.admit_batch(t1));
        b.record(Succeeded, t1);
        assert_eq!(b.health(t1), Health::Clean, "closed again");
        assert!(b.opened() >= b.half_opened() && b.half_opened() >= b.closed());
    }

    #[test]
    fn heartbeat_silence_is_suspect_without_touching_the_breaker() {
        let (b, t0) = breaker();
        assert!(b.set_heartbeat_silent(true), "clear → set is a change");
        assert!(!b.set_heartbeat_silent(true), "set → set is not");
        assert_eq!(b.health(t0), Health::Silent);
        assert!(b.admit_batch(t0), "silence alone refuses no batch");
        // The breaker's own verdict outranks the heartbeat flag, so a
        // silent replica with an open breaker still gets its probe.
        for _ in 0..STREAK {
            b.record(Failed, t0);
        }
        assert_eq!(b.health(t0 + COOLDOWN), Health::WantsProbe);
        assert!(b.admit_batch(t0 + COOLDOWN));
        b.record(Succeeded, t0 + COOLDOWN);
        assert_eq!(b.health(t0 + COOLDOWN), Health::Silent);
        assert!(b.set_heartbeat_silent(false));
        assert_eq!(b.health(t0 + COOLDOWN), Health::Clean);
    }

    #[test]
    fn health_codes_are_stable() {
        let codes = [
            Health::Clean,
            Health::WantsProbe,
            Health::Probing,
            Health::CoolingDown,
            Health::Silent,
            Health::Down,
        ]
        .map(|h| h as i64);
        assert_eq!(codes, [0, 1, 2, 3, 4, 5]);
    }
}
