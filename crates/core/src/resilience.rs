//! Query-lifecycle resilience: deadlines, cooperative cancellation and
//! per-section circuit breaking.
//!
//! The paper's pseudo-disk strategy (§IV-B) assumes a patient offline scan;
//! a production service serving heavy traffic needs bounded tail latency and
//! graceful behaviour when storage stalls. This module provides the
//! vocabulary the whole query path speaks:
//!
//! * [`Clock`] — a pluggable monotonic time source. Production uses
//!   [`SystemClock`]; tests use [`MockClock`], whose `sleep` merely advances
//!   the reading, so deadline and stall behaviour is testable without
//!   wall-clock flakiness.
//! * [`CancelToken`] — a shared atomic flag checked cooperatively at
//!   section-load, refine-scan-chunk and work-stealing-task granularity.
//!   Once fired it records *why* ([`CancelCause`]) and *when*, so the
//!   cancellation latency (fire → return) can be measured.
//! * [`Deadline`] — a token that fires itself when a clock passes a budget.
//!   A batch whose deadline fires returns partial, `degraded`-flagged
//!   results instead of blowing its latency budget; the overshoot is bounded
//!   by one unit of uninterruptible work (one section-load attempt or one
//!   refinement chunk).
//! * [`QueryCtx`] — the bundle (token + optional deadline) threaded through
//!   every batched entry point.
//! * [`SectionBreakers`] — per-section circuit breakers that trip after
//!   repeated load failures and short-circuit to skip-with-stat instead of
//!   re-hammering a bad region on every batch.
//!
//! Everything is observable through the `resilience.*` metrics documented in
//! `docs/observability.md`.

use crate::metrics::CoreMetrics;
pub use s3_obs::TimeSource;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

/// A monotonic time source that can also wait: [`TimeSource`] (`now` is
/// the elapsed time since an arbitrary per-clock epoch; only differences
/// are meaningful) plus `sleep`, which blocks — or, for a mock, pretends to.
pub trait Clock: TimeSource + fmt::Debug {
    /// Blocks for `d` ([`MockClock`] advances its reading instead).
    fn sleep(&self, d: Duration);
}

/// Wall-clock time: the epoch is the moment of construction.
pub use s3_obs::WallTime as SystemClock;

impl Clock for SystemClock {
    fn sleep(&self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// The process-wide [`SystemClock`] (shared so deadlines are cheap to make).
pub fn system_clock() -> Arc<dyn Clock> {
    static CLOCK: OnceLock<Arc<SystemClock>> = OnceLock::new();
    CLOCK.get_or_init(|| Arc::new(SystemClock::new())).clone()
}

/// A manually-driven clock for deterministic tests: `now` reads an atomic,
/// `advance` and `sleep` move it forward. Fault-injection stalls against a
/// `MockClock` therefore cost zero wall time while still exceeding mock
/// deadlines.
pub use s3_obs::ManualTime as MockClock;

impl Clock for MockClock {
    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// Records scanned between cancellation checks in refinement loops — the
/// unit of uninterruptible refine work. Together with one section-load
/// attempt it defines the "one work chunk" by which a deadline may be
/// overshot.
pub const REFINE_CHUNK: usize = 4096;

/// Why a token fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelCause {
    /// Explicit cancellation ([`CancelToken::cancel`]).
    Cancelled,
    /// A [`Deadline`] expired.
    DeadlineExceeded,
}

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;

#[derive(Debug, Default)]
struct TokenInner {
    state: AtomicU8,
    /// Clock reading (ns) when the token fired, for cancellation-latency
    /// accounting. Meaningful only against the clock that fired it.
    fired_at_nanos: AtomicU64,
}

/// A shared cancellation flag, checked cooperatively by long-running work.
///
/// Clones share state; firing is idempotent and sticky. The query path
/// checks tokens at bounded intervals (per section-load attempt, per
/// refinement chunk, per work-stealing task), which bounds both the
/// cancellation latency and any deadline overshoot by one such unit.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fires the token with an explicit-cancel cause. Returns true if this
    /// call performed the (first) fire.
    pub fn cancel(&self) -> bool {
        self.fire(CANCELLED, Duration::ZERO)
    }

    /// Fires with `cause` at clock reading `at`; first caller wins.
    fn fire(&self, cause: u8, at: Duration) -> bool {
        let won = self
            .inner
            .state
            .compare_exchange(LIVE, cause, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if won {
            self.inner.fired_at_nanos.store(
                at.as_nanos().min(u128::from(u64::MAX)) as u64,
                Ordering::SeqCst,
            );
        }
        won
    }

    /// True once the token has fired (for any cause).
    pub fn is_cancelled(&self) -> bool {
        self.inner.state.load(Ordering::Relaxed) != LIVE
    }

    /// The cause, once fired.
    pub fn cause(&self) -> Option<CancelCause> {
        match self.inner.state.load(Ordering::SeqCst) {
            CANCELLED => Some(CancelCause::Cancelled),
            DEADLINE => Some(CancelCause::DeadlineExceeded),
            _ => None,
        }
    }

    /// Clock reading at fire time (zero for plain [`CancelToken::cancel`]).
    pub fn fired_at(&self) -> Option<Duration> {
        if self.is_cancelled() {
            Some(Duration::from_nanos(
                self.inner.fired_at_nanos.load(Ordering::SeqCst),
            ))
        } else {
            None
        }
    }
}

/// A latency budget that fires a [`CancelToken`] once a clock passes it.
#[derive(Clone, Debug)]
pub struct Deadline {
    clock: Arc<dyn Clock>,
    expires_at: Duration,
    token: CancelToken,
}

impl Deadline {
    /// A deadline `budget` from now on `clock`, firing `token` on expiry.
    pub fn after(clock: Arc<dyn Clock>, budget: Duration, token: CancelToken) -> Deadline {
        let expires_at = clock.now().saturating_add(budget);
        Deadline {
            clock,
            expires_at,
            token,
        }
    }

    /// Clock reading at which the deadline expires.
    pub fn expires_at(&self) -> Duration {
        self.expires_at
    }

    /// The token this deadline fires.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// The clock the deadline is measured against.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.expires_at.saturating_sub(self.clock.now())
    }

    /// Polls the clock; on the expiry transition fires the token with
    /// [`CancelCause::DeadlineExceeded`] and counts
    /// `resilience.deadline_exceeded` (once). Returns true once expired.
    pub fn expired(&self) -> bool {
        if self.token.is_cancelled() {
            return true;
        }
        let now = self.clock.now();
        if now < self.expires_at {
            return false;
        }
        if self.token.fire(DEADLINE, now) {
            CoreMetrics::get().deadline_exceeded.inc();
        }
        true
    }
}

/// Draws a fresh process-unique query id (1-based, monotonically
/// increasing). Every [`QueryCtx`] gets one at construction; spans emitted
/// while the query runs carry it (see [`s3_obs::QueryScope`]), which is
/// what lets a flat span stream be regrouped into per-query trees.
pub fn next_query_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// How a query runs, threaded through every engine's general entry point: a
/// process-unique id, a cancellation token, an optional deadline that fires
/// it, and whether the caller wants an EXPLAIN report back with the answer.
#[derive(Clone, Debug)]
pub struct QueryCtx {
    id: u64,
    cancel: CancelToken,
    deadline: Option<Deadline>,
    explain: bool,
}

impl Default for QueryCtx {
    fn default() -> QueryCtx {
        QueryCtx::with_token(CancelToken::default())
    }
}

impl QueryCtx {
    /// A context that never stops the query (the default for callers that
    /// do not opt into resilience).
    pub fn unbounded() -> QueryCtx {
        QueryCtx::default()
    }

    /// A context driven by an externally-owned token (remote
    /// cancellation).
    pub fn with_token(cancel: CancelToken) -> QueryCtx {
        QueryCtx {
            id: next_query_id(),
            cancel,
            deadline: None,
            explain: false,
        }
    }

    /// A context whose token fires when `clock` passes `budget` from now.
    pub fn with_deadline(clock: Arc<dyn Clock>, budget: Duration) -> QueryCtx {
        QueryCtx::default().and_deadline(clock, budget)
    }

    /// Attaches a deadline to an existing context (builder style).
    pub fn and_deadline(mut self, clock: Arc<dyn Clock>, budget: Duration) -> QueryCtx {
        self.deadline = Some(Deadline::after(clock, budget, self.cancel.clone()));
        self
    }

    /// Asks for EXPLAIN (builder style): results come back carrying one
    /// [`s3_obs::ExplainReport`] per query. The query path is the same —
    /// same filter, same scan, bit-identical matches and counters; the
    /// engines only keep the bookkeeping they would otherwise drop.
    pub fn explain(mut self) -> QueryCtx {
        self.explain = true;
        self
    }

    /// True if EXPLAIN was asked for.
    pub fn explains(&self) -> bool {
        self.explain
    }

    /// The process-unique query (or batch) id — what spans emitted under
    /// this context are tagged with.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The context's token.
    pub fn token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The context's deadline, if any.
    pub fn deadline(&self) -> Option<&Deadline> {
        self.deadline.as_ref()
    }

    /// The single cooperative check: true once the query should abandon
    /// remaining work. Polls the deadline (firing the token on the expiry
    /// transition), then the token.
    pub fn should_stop(&self) -> bool {
        if let Some(d) = &self.deadline {
            if d.expired() {
                return true;
            }
        }
        self.cancel.is_cancelled()
    }

    /// Why the context stopped, once it has.
    pub fn stop_cause(&self) -> Option<CancelCause> {
        self.cancel.cause()
    }
}

// ---------------------------------------------------------------------------
// Circuit breakers
// ---------------------------------------------------------------------------

/// Tuning of a [`SectionBreakers`] set.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive section-load failures (each already past its retries)
    /// that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker short-circuits loads before letting one
    /// probe attempt through (half-open).
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(5),
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct BreakerState {
    consecutive_failures: u32,
    /// `Some(t)` while open: loads short-circuit until the clock passes
    /// `t`, after which exactly one probe is allowed (half-open).
    open_until: Option<Duration>,
}

/// Per-section circuit breakers over a shared clock.
///
/// Sections are keyed by the first table slot they cover, so the same
/// physical region keeps its breaker across batches whenever a section
/// starts there, whatever memory budget packed it.
#[derive(Debug)]
pub struct SectionBreakers {
    cfg: BreakerConfig,
    clock: Arc<dyn Clock>,
    state: Mutex<HashMap<usize, BreakerState>>,
}

impl SectionBreakers {
    /// A breaker set with the given tuning and clock.
    pub fn new(cfg: BreakerConfig, clock: Arc<dyn Clock>) -> SectionBreakers {
        SectionBreakers {
            cfg,
            clock,
            state: Mutex::new(HashMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<usize, BreakerState>> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// True if a load of section `key` may proceed. While the breaker is
    /// open this returns false (short-circuit: skip with stat); once the
    /// cooldown passes, the first call returns true as the half-open probe.
    pub fn try_pass(&self, key: usize) -> bool {
        let mut st = self.lock();
        let Some(s) = st.get_mut(&key) else {
            return true;
        };
        match s.open_until {
            None => true,
            Some(until) => {
                if self.clock.now() >= until {
                    // Half-open: allow one probe; a failure re-trips
                    // immediately (the failure count is still at/above the
                    // threshold), a success resets.
                    s.open_until = None;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a section-load failure (already past its retries). Returns
    /// true when this failure trips the breaker open.
    pub fn record_failure(&self, key: usize) -> bool {
        let mut st = self.lock();
        let s = st.entry(key).or_default();
        s.consecutive_failures = s.consecutive_failures.saturating_add(1);
        if s.consecutive_failures >= self.cfg.failure_threshold && s.open_until.is_none() {
            s.open_until = Some(self.clock.now() + self.cfg.cooldown);
            return true;
        }
        false
    }

    /// Records a successful load, closing the breaker for `key`.
    pub fn record_success(&self, key: usize) {
        let mut st = self.lock();
        if let Some(s) = st.get_mut(&key) {
            *s = BreakerState::default();
        }
    }

    /// Number of sections currently open (short-circuiting).
    pub fn open_count(&self) -> usize {
        let now = self.clock.now();
        self.lock()
            .values()
            .filter(|s| s.open_until.is_some_and(|t| now < t))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_clock_advances_on_sleep() {
        let c = MockClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        c.sleep(Duration::from_millis(30));
        c.advance(Duration::from_millis(12));
        assert_eq!(c.now(), Duration::from_millis(42));
    }

    #[test]
    fn token_fires_once_with_cause() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.cause(), None);
        assert!(t.cancel(), "first fire wins");
        assert!(!t.cancel(), "second fire is a no-op");
        assert!(t.is_cancelled());
        assert_eq!(t.cause(), Some(CancelCause::Cancelled));
        let clone = t.clone();
        assert!(clone.is_cancelled(), "clones share state");
    }

    #[test]
    fn deadline_fires_on_mock_expiry() {
        let clock = Arc::new(MockClock::new());
        let ctx = QueryCtx::with_deadline(clock.clone(), Duration::from_millis(100));
        assert!(!ctx.should_stop());
        clock.advance(Duration::from_millis(99));
        assert!(!ctx.should_stop());
        clock.advance(Duration::from_millis(2));
        assert!(ctx.should_stop());
        assert_eq!(ctx.stop_cause(), Some(CancelCause::DeadlineExceeded));
        let fired = ctx.token().fired_at().expect("fired");
        assert_eq!(fired, Duration::from_millis(101));
        // Expiry is sticky even if (hypothetically) time rolled on.
        clock.advance(Duration::from_secs(1));
        assert!(ctx.should_stop());
    }

    #[test]
    fn deadline_metric_counts_each_expiry_once() {
        let m = CoreMetrics::get();
        let before = m.deadline_exceeded.get();
        let clock = Arc::new(MockClock::new());
        let ctx = QueryCtx::with_deadline(clock.clone(), Duration::from_millis(5));
        clock.advance(Duration::from_millis(10));
        assert!(ctx.should_stop());
        assert!(ctx.should_stop());
        assert!(ctx.should_stop());
        assert_eq!(m.deadline_exceeded.get(), before + 1);
    }

    #[test]
    fn breaker_trips_cools_down_and_half_opens() {
        let clock = Arc::new(MockClock::new());
        let cfg = BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(1),
        };
        let br = SectionBreakers::new(cfg, clock.clone());
        assert!(br.try_pass(5));
        assert!(!br.record_failure(5), "below threshold");
        assert!(br.try_pass(5), "still closed after one failure");
        assert!(br.record_failure(5), "second failure trips");
        assert!(!br.try_pass(5), "open: short-circuit");
        assert_eq!(br.open_count(), 1);
        clock.advance(Duration::from_millis(1500));
        assert!(br.try_pass(5), "cooldown passed: half-open probe");
        // Probe fails: re-trips immediately.
        br.record_failure(5);
        assert!(!br.try_pass(5), "failed probe re-opens");
        clock.advance(Duration::from_secs(2));
        assert!(br.try_pass(5));
        br.record_success(5);
        br.record_failure(5);
        assert!(br.try_pass(5), "success reset the failure count");
        assert!(br.try_pass(6), "other sections unaffected");
    }
}
