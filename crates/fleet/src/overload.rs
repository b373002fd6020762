//! Adaptive overload control: per-model AIMD admission, a hysteretic
//! precision-degradation controller, and circuit breakers.
//!
//! Three state machines, one [`ModelGuard`] per model name tying them
//! together for [`Fleet::submit`](crate::Fleet::submit):
//!
//! - [`fab_serve::AimdLimiter`] — bounds each model's in-flight
//!   concurrency adaptively (grow on on-SLO completions, cut on
//!   breaches). An acquire failure is the *pressure* signal everything
//!   else keys off.
//! - [`DegradeController`] — a level counter over the model's precision
//!   ladder (`f32-exact → fastmath → int8`, same task, from the
//!   registry). Pressure escalates one level at a time, sustained calm
//!   recovers one level at a time, and both directions are dwell-limited
//!   so the ladder cannot flap. Every transition method takes an explicit
//!   `now`, so property tests drive simulated time through the exact
//!   production code.
//! - [`CircuitBreaker`] — counts *consecutive* hard failures (forward
//!   panics, dead servers) against a threshold; tripping opens the
//!   circuit (fast-fail with a retry hint), a timeout moves it to
//!   half-open where a bounded number of probe requests decide between
//!   closing and re-opening.
//!
//! Degradation never invents a numeric path: a degraded request is
//! served by the *registered* cheaper-precision server, so its logits are
//! bit-identical to that profile answering directly.

use fab_serve::{AimdConfig, AimdLimiter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Overload-control knobs, embedded in
/// [`FleetConfig`](crate::FleetConfig) and applied per model name.
///
/// Everything defaults *off* (`adaptive: false`, `degrade: false`,
/// `breaker_failures: 0`): a fleet configured without an `overload`
/// section behaves exactly like the pre-PR-9 one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Enables the per-model AIMD concurrency limiter.
    pub adaptive: bool,
    /// The limiter's control-law knobs (limits, SLO, AIMD steps).
    pub aimd: AimdConfig,
    /// Enables precision degradation under sustained pressure.
    pub degrade: bool,
    /// Minimum milliseconds between two degrade-level changes (either
    /// direction) — the anti-flap dwell.
    pub degrade_dwell_ms: u64,
    /// Milliseconds of sustained calm before recovering one level.
    pub recover_after_ms: u64,
    /// Consecutive hard failures that open the circuit (0 = breaker off).
    pub breaker_failures: u32,
    /// Milliseconds an open circuit fast-fails before probing.
    pub breaker_open_ms: u64,
    /// Probe requests admitted while half-open.
    pub breaker_probes: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            adaptive: false,
            aimd: AimdConfig::default(),
            degrade: false,
            degrade_dwell_ms: 200,
            recover_after_ms: 1_000,
            breaker_failures: 0,
            breaker_open_ms: 1_000,
            breaker_probes: 2,
        }
    }
}

/// The hysteretic precision-degradation state machine. Level 0 is the
/// configured precision; each higher level is one step down the model's
/// ladder. See the module docs for the control law.
#[derive(Debug, Clone)]
pub struct DegradeController {
    level: usize,
    dwell: Duration,
    recover_after: Duration,
    last_change: Option<Instant>,
    calm_since: Option<Instant>,
    forced: Option<usize>,
}

impl DegradeController {
    /// A controller at level 0 with the given dwell and recovery windows.
    pub fn new(dwell: Duration, recover_after: Duration) -> Self {
        Self { level: 0, dwell, recover_after, last_change: None, calm_since: None, forced: None }
    }

    /// The effective level: the forced override when set, the adaptive
    /// level otherwise.
    pub fn level(&self) -> usize {
        self.forced.unwrap_or(self.level)
    }

    /// The forced override, if any.
    pub(crate) fn forced(&self) -> Option<usize> {
        self.forced
    }

    /// Pins the effective level (admin/chaos use); `None` returns control
    /// to the adaptive law.
    pub(crate) fn force(&mut self, level: Option<usize>) {
        self.forced = level;
    }

    /// Feeds one pressure event (an admission-limit rejection) at `now`.
    /// Escalates one level — never more — once per dwell window; any
    /// pressure cancels accumulated calm. Returns `true` on escalation.
    pub fn on_pressure(&mut self, now: Instant) -> bool {
        self.calm_since = None;
        if let Some(last) = self.last_change {
            if now.saturating_duration_since(last) < self.dwell {
                return false;
            }
        }
        self.level += 1;
        self.last_change = Some(now);
        true
    }

    /// Feeds one calm event (an on-SLO completion with admission
    /// headroom) at `now`. Recovers one level once calm has been
    /// sustained for `recover_after` *and* the dwell has elapsed since
    /// the last change. Returns `true` on recovery.
    pub fn on_calm(&mut self, now: Instant) -> bool {
        let since = *self.calm_since.get_or_insert(now);
        if self.level == 0 {
            return false;
        }
        if now.saturating_duration_since(since) < self.recover_after {
            return false;
        }
        if let Some(last) = self.last_change {
            if now.saturating_duration_since(last) < self.dwell {
                return false;
            }
        }
        self.level -= 1;
        self.last_change = Some(now);
        self.calm_since = Some(now);
        true
    }
}

/// Externally visible circuit state, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Healthy: requests flow.
    Closed,
    /// Probing: a bounded number of requests test recovery.
    HalfOpen,
    /// Tripped: requests fast-fail with a retry hint.
    Open,
}

impl CircuitState {
    /// Canonical snake_case name (`closed` / `half_open` / `open`).
    pub fn name(self) -> &'static str {
        match self {
            CircuitState::Closed => "closed",
            CircuitState::HalfOpen => "half_open",
            CircuitState::Open => "open",
        }
    }

    /// Metric gauge value: 0 closed, 1 half-open, 2 open.
    pub fn gauge(self) -> u64 {
        match self {
            CircuitState::Closed => 0,
            CircuitState::HalfOpen => 1,
            CircuitState::Open => 2,
        }
    }
}

/// What the breaker says about admitting one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitDecision {
    /// Circuit closed: admit normally.
    Admit,
    /// Circuit half-open: admit as one of the bounded probes.
    Probe,
    /// Circuit open (or probes exhausted): fast-fail, retry after the
    /// hinted delay.
    Reject {
        /// Milliseconds until the circuit is worth re-trying.
        retry_after_ms: u64,
    },
}

/// The per-model circuit breaker. All methods take an explicit `now` so
/// tests drive simulated time; a `threshold` of 0 disables the breaker
/// (every decision is [`CircuitDecision::Admit`]).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    open_for: Duration,
    probes: u32,
    consecutive: u32,
    /// `Some(until)` while open; half-open once `now` passes it.
    open_until: Option<Instant>,
    /// Probes still admittable in the current half-open episode.
    probes_left: u32,
    half_open: bool,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures,
    /// staying open `open_for`, then admitting `probes` probe requests.
    pub fn new(threshold: u32, open_for: Duration, probes: u32) -> Self {
        Self {
            threshold,
            open_for,
            probes: probes.max(1),
            consecutive: 0,
            open_until: None,
            probes_left: 0,
            half_open: false,
        }
    }

    /// Whether the breaker is active (`threshold > 0`).
    pub(crate) fn enabled(&self) -> bool {
        self.threshold > 0
    }

    /// The externally visible state at `now`.
    pub fn state(&self, now: Instant) -> CircuitState {
        match self.open_until {
            None if self.half_open => CircuitState::HalfOpen,
            None => CircuitState::Closed,
            Some(until) if now < until => CircuitState::Open,
            Some(_) => CircuitState::HalfOpen,
        }
    }

    /// Consecutive hard failures observed while closed.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive
    }

    /// Decides one request at `now`. An open circuit whose timeout has
    /// elapsed transitions to half-open here and starts handing out its
    /// probe budget.
    pub fn admit(&mut self, now: Instant) -> CircuitDecision {
        if !self.enabled() {
            return CircuitDecision::Admit;
        }
        if let Some(until) = self.open_until {
            if now < until {
                let remaining = until.saturating_duration_since(now).as_millis() as u64;
                return CircuitDecision::Reject { retry_after_ms: remaining.max(1) };
            }
            // Timeout elapsed: move to half-open with a fresh probe budget.
            self.open_until = None;
            self.half_open = true;
            self.probes_left = self.probes;
        }
        if self.half_open {
            if self.probes_left > 0 {
                self.probes_left -= 1;
                return CircuitDecision::Probe;
            }
            // Probes are in flight and undecided: fast-fail until one
            // resolves (success closes, failure re-opens).
            return CircuitDecision::Reject { retry_after_ms: self.open_for.as_millis() as u64 };
        }
        CircuitDecision::Admit
    }

    /// Feeds a healthy completion at `now`: resets the failure streak;
    /// a successful half-open probe closes the circuit.
    pub fn on_success(&mut self, _now: Instant) {
        self.consecutive = 0;
        if self.open_until.is_none() && self.half_open {
            self.half_open = false;
            self.probes_left = 0;
        }
    }

    /// Feeds a hard failure (forward panic, dead server) at `now`: while
    /// closed, counts toward the threshold; while half-open, re-opens
    /// immediately.
    pub fn on_failure(&mut self, now: Instant) {
        if !self.enabled() {
            return;
        }
        if self.open_until.is_some() {
            return; // stale completion from before the trip
        }
        if self.half_open {
            self.trip(now);
            return;
        }
        self.consecutive += 1;
        if self.consecutive >= self.threshold {
            self.trip(now);
        }
    }

    fn trip(&mut self, now: Instant) {
        self.open_until = Some(now + self.open_for);
        self.half_open = false;
        self.probes_left = 0;
        self.consecutive = 0;
    }
}

/// One model name's overload-control state: limiter + degrade controller
/// + breaker, shared between submission and completion.
#[derive(Debug)]
pub(crate) struct ModelGuard {
    config: OverloadConfig,
    limiter: AimdLimiter,
    degrade: Mutex<DegradeController>,
    breaker: Mutex<CircuitBreaker>,
    degraded_total: AtomicU64,
    breaker_rejected: AtomicU64,
}

impl ModelGuard {
    /// A fresh guard from the fleet's overload config.
    pub(crate) fn new(config: OverloadConfig) -> Self {
        let limiter = AimdLimiter::new(config.aimd.clone());
        let degrade = DegradeController::new(
            Duration::from_millis(config.degrade_dwell_ms),
            Duration::from_millis(config.recover_after_ms),
        );
        let breaker = CircuitBreaker::new(
            config.breaker_failures,
            Duration::from_millis(config.breaker_open_ms),
            config.breaker_probes,
        );
        Self {
            config,
            limiter,
            degrade: Mutex::new(degrade),
            breaker: Mutex::new(breaker),
            degraded_total: AtomicU64::new(0),
            breaker_rejected: AtomicU64::new(0),
        }
    }

    /// The admission limiter.
    pub(crate) fn limiter(&self) -> &AimdLimiter {
        &self.limiter
    }

    /// Asks the breaker about one request. A disabled breaker
    /// (`breaker_failures: 0`) admits without touching any lock.
    pub(crate) fn admit_circuit(&self, now: Instant) -> CircuitDecision {
        if self.config.breaker_failures == 0 {
            return CircuitDecision::Admit;
        }
        let decision = lock_recover(&self.breaker).admit(now);
        if matches!(decision, CircuitDecision::Reject { .. }) {
            self.breaker_rejected.fetch_add(1, Ordering::Relaxed);
        }
        decision
    }

    /// Feeds a completion outcome into the breaker (no-op when the
    /// breaker is disabled).
    pub(crate) fn circuit_outcome(&self, now: Instant, hard_failure: bool) {
        if self.config.breaker_failures == 0 {
            return;
        }
        let mut breaker = lock_recover(&self.breaker);
        if hard_failure {
            breaker.on_failure(now);
        } else {
            breaker.on_success(now);
        }
    }

    /// The effective degrade level.
    pub(crate) fn degrade_level(&self) -> usize {
        lock_recover(&self.degrade).level()
    }

    /// Pins (or releases) the degrade level, clamped to `max`.
    pub(crate) fn force_level(&self, level: Option<usize>, max: usize) -> usize {
        let mut degrade = lock_recover(&self.degrade);
        degrade.force(level.map(|l| l.min(max)));
        degrade.level()
    }

    /// Feeds one pressure event; returns `true` when the level escalated.
    pub(crate) fn pressure(&self, now: Instant) -> bool {
        if !self.config.degrade {
            return false;
        }
        lock_recover(&self.degrade).on_pressure(now)
    }

    /// Feeds one calm event; returns `true` when the level recovered.
    pub(crate) fn calm(&self, now: Instant) -> bool {
        if !self.config.degrade {
            return false;
        }
        lock_recover(&self.degrade).on_calm(now)
    }

    /// Counts one request actually rerouted to a cheaper precision.
    pub(crate) fn count_degraded(&self) {
        self.degraded_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time stats for `/v1/circuits`, `/v1/stats`, and metrics.
    pub(crate) fn stats(&self, now: Instant) -> GuardStats {
        let degrade = lock_recover(&self.degrade);
        let breaker = lock_recover(&self.breaker);
        GuardStats {
            adaptive: self.config.adaptive,
            limit: self.limiter.limit(),
            inflight: self.limiter.inflight(),
            limiter_rejected: self.limiter.rejected(),
            degrade_level: degrade.level(),
            forced_level: degrade.forced(),
            degraded_total: self.degraded_total.load(Ordering::Relaxed),
            circuit: breaker.state(now),
            breaker_enabled: breaker.enabled(),
            consecutive_failures: breaker.consecutive_failures(),
            breaker_rejected: self.breaker_rejected.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of one model's `ModelGuard`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardStats {
    /// Whether the AIMD limiter gates admission for this model.
    pub adaptive: bool,
    /// Current adaptive concurrency limit.
    pub limit: u64,
    /// Requests currently holding a limiter slot.
    pub inflight: u64,
    /// Admissions rejected by the limiter since start.
    pub limiter_rejected: u64,
    /// Effective degrade level (0 = configured precision).
    pub degrade_level: usize,
    /// Forced degrade override, if pinned.
    pub forced_level: Option<usize>,
    /// Requests actually served by a cheaper precision.
    pub degraded_total: u64,
    /// Circuit state at snapshot time.
    pub circuit: CircuitState,
    /// Whether the breaker is active for this model.
    pub breaker_enabled: bool,
    /// Consecutive hard failures while closed.
    pub consecutive_failures: u32,
    /// Requests fast-failed by an open circuit since start.
    pub breaker_rejected: u64,
}

/// Ranks a [`ModelSpec`](crate::ModelSpec) precision string on the
/// degradation ladder: lower is more precise. Unknown precisions return
/// `None` and never participate in degradation.
pub(crate) fn precision_rank(precision: &str) -> Option<usize> {
    match precision {
        "f32" | "exact" => Some(0),
        "fastmath" | "fast" => Some(1),
        "int8" => Some(2),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn degrade_escalates_once_per_dwell_and_cancels_calm() {
        let base = Instant::now();
        let mut c = DegradeController::new(Duration::from_millis(100), Duration::from_millis(300));
        assert!(c.on_pressure(at(base, 0)));
        assert_eq!(c.level(), 1);
        // A burst of pressure inside the dwell does not stack levels.
        for ms in [1, 10, 50, 99] {
            assert!(!c.on_pressure(at(base, ms)));
        }
        assert_eq!(c.level(), 1);
        assert!(c.on_pressure(at(base, 100)));
        assert_eq!(c.level(), 2);
    }

    #[test]
    fn degrade_recovers_only_after_sustained_calm() {
        let base = Instant::now();
        let mut c = DegradeController::new(Duration::from_millis(100), Duration::from_millis(300));
        c.on_pressure(at(base, 0));
        // Calm accumulates from the first calm event...
        assert!(!c.on_calm(at(base, 150)));
        assert!(!c.on_calm(at(base, 300)));
        // ...and recovers once 300 ms of calm have been sustained.
        assert!(c.on_calm(at(base, 450)));
        assert_eq!(c.level(), 0);
        // At level 0, calm is a no-op.
        assert!(!c.on_calm(at(base, 1000)));
    }

    #[test]
    fn pressure_resets_the_calm_clock() {
        let base = Instant::now();
        let mut c = DegradeController::new(Duration::from_millis(10), Duration::from_millis(300));
        c.on_pressure(at(base, 0));
        assert!(!c.on_calm(at(base, 100)));
        // Pressure at 200 ms (dwell elapsed → escalates) wipes the calm
        // accumulated since 100 ms.
        assert!(c.on_pressure(at(base, 200)));
        assert!(!c.on_calm(at(base, 450)), "calm restarted at 450");
        assert!(!c.on_calm(at(base, 700)), "only 250 ms of calm");
        assert!(c.on_calm(at(base, 750)), "300 ms of calm since 450");
        assert_eq!(c.level(), 1);
    }

    #[test]
    fn forced_level_overrides_and_releases() {
        let mut c = DegradeController::new(Duration::from_millis(10), Duration::from_millis(10));
        assert_eq!(c.level(), 0);
        c.force(Some(2));
        assert_eq!(c.level(), 2);
        assert_eq!(c.level, 0, "the adaptive level is untouched");
        c.force(None);
        assert_eq!(c.level(), 0);
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_only() {
        let base = Instant::now();
        let mut b = CircuitBreaker::new(3, Duration::from_millis(500), 1);
        b.on_failure(at(base, 0));
        b.on_failure(at(base, 1));
        b.on_success(at(base, 2)); // streak broken
        b.on_failure(at(base, 3));
        b.on_failure(at(base, 4));
        assert_eq!(b.state(at(base, 5)), CircuitState::Closed);
        b.on_failure(at(base, 5)); // third consecutive
        assert_eq!(b.state(at(base, 6)), CircuitState::Open);
        match b.admit(at(base, 6)) {
            CircuitDecision::Reject { retry_after_ms } => {
                assert!((1..=500).contains(&retry_after_ms), "{retry_after_ms}");
            }
            other => panic!("open circuit admitted: {other:?}"),
        }
    }

    #[test]
    fn breaker_half_open_probe_success_closes() {
        let base = Instant::now();
        let mut b = CircuitBreaker::new(1, Duration::from_millis(100), 2);
        b.on_failure(at(base, 0));
        assert_eq!(b.state(at(base, 50)), CircuitState::Open);
        // Timeout elapsed: the first two admits are probes, the third is
        // rejected while they are undecided.
        assert_eq!(b.admit(at(base, 100)), CircuitDecision::Probe);
        assert_eq!(b.state(at(base, 100)), CircuitState::HalfOpen);
        assert_eq!(b.admit(at(base, 101)), CircuitDecision::Probe);
        assert!(matches!(b.admit(at(base, 102)), CircuitDecision::Reject { .. }));
        b.on_success(at(base, 110));
        assert_eq!(b.state(at(base, 110)), CircuitState::Closed);
        assert_eq!(b.admit(at(base, 111)), CircuitDecision::Admit);
    }

    #[test]
    fn breaker_half_open_probe_failure_reopens() {
        let base = Instant::now();
        let mut b = CircuitBreaker::new(1, Duration::from_millis(100), 1);
        b.on_failure(at(base, 0));
        assert_eq!(b.admit(at(base, 100)), CircuitDecision::Probe);
        b.on_failure(at(base, 105));
        assert_eq!(b.state(at(base, 106)), CircuitState::Open);
        // A second full cycle still works: open → half-open → closed.
        assert_eq!(b.admit(at(base, 205)), CircuitDecision::Probe);
        b.on_success(at(base, 210));
        assert_eq!(b.state(at(base, 211)), CircuitState::Closed);
    }

    #[test]
    fn disabled_breaker_admits_everything() {
        let base = Instant::now();
        let mut b = CircuitBreaker::new(0, Duration::from_millis(100), 1);
        for i in 0..50 {
            b.on_failure(at(base, i));
            assert_eq!(b.admit(at(base, i)), CircuitDecision::Admit);
        }
        assert_eq!(b.state(at(base, 50)), CircuitState::Closed);
    }

    #[test]
    fn guard_stats_reflect_the_machines() {
        let config = OverloadConfig {
            adaptive: true,
            degrade: true,
            breaker_failures: 2,
            ..OverloadConfig::default()
        };
        let g = ModelGuard::new(config);
        let now = Instant::now();
        assert_eq!(g.admit_circuit(now), CircuitDecision::Admit);
        g.circuit_outcome(now, true);
        g.circuit_outcome(now, true);
        let s = g.stats(now);
        assert_eq!(s.circuit, CircuitState::Open);
        assert!(s.breaker_enabled);
        let level = g.force_level(Some(9), 2);
        assert_eq!(level, 2, "forced level clamps to the ladder");
        assert_eq!(g.stats(now).forced_level, Some(2));
    }

    #[test]
    fn precision_ranks_order_the_ladder() {
        assert_eq!(precision_rank("f32"), Some(0));
        assert_eq!(precision_rank("exact"), Some(0));
        assert_eq!(precision_rank("fastmath"), Some(1));
        assert_eq!(precision_rank("int8"), Some(2));
        assert_eq!(precision_rank("bf16"), None);
    }
}
