//! Adaptive admission: an AIMD concurrency limiter.
//!
//! Static queue caps reject at a cliff — healthy until the queue fills,
//! then a wall of 429s. The [`AimdLimiter`] instead tracks how many
//! requests a model currently has in flight (admitted, not yet answered)
//! against an adaptive limit: completions inside the latency SLO grow the
//! limit additively (one slot per [`AimdConfig::increase_every`] on-SLO
//! completions), an SLO breach cuts it multiplicatively (to
//! [`AimdConfig::decrease_pct`] percent, at most once per
//! [`AimdConfig::cooldown_ms`] so one late burst does not collapse the
//! limit to the floor). TCP congestion control, pointed at a worker pool.
//!
//! The limiter is deliberately decoupled from the queue: the queue cap
//! bounds *memory*, the AIMD limit bounds *latency*. Under sustained
//! overload the limit converges to roughly the largest concurrency the
//! pool can serve within SLO, which is exactly the signal the fleet's
//! degradation ladder keys off — an acquire failure here is the "this
//! precision is out of capacity" event that reroutes traffic to a cheaper
//! precision of the same task.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Knobs for one [`AimdLimiter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AimdConfig {
    /// Starting concurrency limit.
    pub initial_limit: u64,
    /// Floor the multiplicative decrease never cuts below (≥ 1).
    pub min_limit: u64,
    /// Ceiling the additive increase never grows past.
    pub max_limit: u64,
    /// The latency SLO in microseconds: completions at or under it are
    /// "good" (grow the limit), over it are breaches (cut it).
    pub slo_us: u64,
    /// On-SLO completions per +1 of limit.
    pub increase_every: u64,
    /// Multiplicative-decrease target as a percentage (e.g. 70 cuts the
    /// limit to 70%).
    pub decrease_pct: u64,
    /// Minimum milliseconds between two multiplicative cuts.
    pub cooldown_ms: u64,
}

impl Default for AimdConfig {
    fn default() -> Self {
        Self {
            initial_limit: 64,
            min_limit: 4,
            max_limit: 1024,
            slo_us: 250_000,
            increase_every: 8,
            decrease_pct: 70,
            cooldown_ms: 100,
        }
    }
}

/// The adaptive concurrency limiter. All operations are lock-free; see
/// the module docs for the control law.
#[derive(Debug)]
pub struct AimdLimiter {
    config: AimdConfig,
    limit: AtomicU64,
    inflight: AtomicU64,
    /// On-SLO completions since the last limit increase.
    good_streak: AtomicU64,
    /// Microseconds-since-`started` of the last multiplicative cut.
    last_cut_us: AtomicU64,
    /// Acquire attempts rejected because the limit was full.
    rejected: AtomicU64,
    started: Instant,
}

impl AimdLimiter {
    /// A limiter starting at `config.initial_limit` (clamped into
    /// `[min_limit, max_limit]`).
    pub fn new(config: AimdConfig) -> Self {
        let min = config.min_limit.max(1);
        let max = config.max_limit.max(min);
        let initial = config.initial_limit.clamp(min, max);
        let config = AimdConfig { min_limit: min, max_limit: max, ..config };
        Self {
            config,
            limit: AtomicU64::new(initial),
            inflight: AtomicU64::new(0),
            good_streak: AtomicU64::new(0),
            last_cut_us: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Tries to take one in-flight slot. On `false` the caller must not
    /// submit (and must not call [`AimdLimiter::release`]).
    pub fn try_acquire(&self) -> bool {
        let taken = self.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        if taken > self.limit.load(Ordering::Acquire) {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Releases a slot for a completed request and feeds its end-to-end
    /// latency into the control law.
    pub fn release(&self, latency_us: u64) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        if latency_us <= self.config.slo_us {
            let streak = self.good_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if streak >= self.config.increase_every {
                self.good_streak.store(0, Ordering::Relaxed);
                let limit = self.limit.load(Ordering::Acquire);
                if limit < self.config.max_limit {
                    self.limit.store(limit + 1, Ordering::Release);
                }
            }
        } else {
            self.cut();
        }
    }

    /// Releases a slot for a request that failed without a meaningful
    /// latency (validation, panic, shutdown): no control-law feedback.
    pub fn release_failure(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        self.good_streak.store(0, Ordering::Relaxed);
    }

    /// One multiplicative cut, rate-limited by the cooldown.
    fn cut(&self) {
        self.good_streak.store(0, Ordering::Relaxed);
        let now_us = self.started.elapsed().as_micros() as u64;
        let last = self.last_cut_us.load(Ordering::Acquire);
        let cooldown_us = self.config.cooldown_ms * 1000;
        if now_us.saturating_sub(last) < cooldown_us && last != 0 {
            return;
        }
        if self
            .last_cut_us
            .compare_exchange(last, now_us.max(1), Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return; // another breach in the same instant already cut
        }
        let limit = self.limit.load(Ordering::Acquire);
        let cut = (limit * self.config.decrease_pct / 100).max(self.config.min_limit);
        self.limit.store(cut, Ordering::Release);
    }

    /// The current adaptive limit.
    pub fn limit(&self) -> u64 {
        self.limit.load(Ordering::Acquire)
    }

    /// Requests currently holding a slot.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Acquire)
    }

    /// Acquire attempts rejected since creation.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limiter(initial: u64, min: u64, max: u64) -> AimdLimiter {
        AimdLimiter::new(AimdConfig {
            initial_limit: initial,
            min_limit: min,
            max_limit: max,
            slo_us: 1_000,
            increase_every: 2,
            decrease_pct: 50,
            cooldown_ms: 0,
        })
    }

    #[test]
    fn acquire_respects_the_limit_and_release_frees_slots() {
        let l = limiter(2, 1, 8);
        assert!(l.try_acquire());
        assert!(l.try_acquire());
        assert!(!l.try_acquire(), "third acquire must fail at limit 2");
        assert_eq!(l.rejected(), 1);
        l.release_failure();
        assert!(l.try_acquire(), "released slot is reusable");
        assert_eq!(l.inflight(), 2);
    }

    #[test]
    fn on_slo_completions_grow_the_limit_additively_to_the_cap() {
        let l = limiter(2, 1, 4);
        for _ in 0..40 {
            let _ = l.try_acquire();
            l.release(10); // far under SLO
        }
        assert_eq!(l.limit(), 4, "limit must climb to and stop at max");
    }

    #[test]
    fn slo_breach_cuts_multiplicatively_to_the_floor() {
        let l = limiter(8, 2, 8);
        l.try_acquire();
        l.release(50_000); // breach: 8 -> 4
        assert_eq!(l.limit(), 4);
        l.try_acquire();
        l.release(50_000); // 4 -> 2 (floor)
        assert_eq!(l.limit(), 2);
        l.try_acquire();
        l.release(50_000);
        assert_eq!(l.limit(), 2, "min_limit is a hard floor");
    }

    #[test]
    fn cooldown_coalesces_a_burst_of_breaches_into_one_cut() {
        let l = AimdLimiter::new(AimdConfig {
            initial_limit: 64,
            min_limit: 1,
            max_limit: 64,
            slo_us: 1_000,
            increase_every: 2,
            decrease_pct: 50,
            cooldown_ms: 60_000, // longer than the test
        });
        for _ in 0..10 {
            l.try_acquire();
            l.release(1_000_000);
        }
        assert_eq!(l.limit(), 32, "ten breaches inside one cooldown = one cut");
    }

    #[test]
    fn failures_reset_the_good_streak_but_do_not_cut() {
        let l = limiter(4, 1, 8);
        l.try_acquire();
        l.release(10);
        l.try_acquire();
        l.release_failure(); // resets streak; limit untouched
        assert_eq!(l.limit(), 4);
        assert_eq!(l.inflight(), 0);
    }

    #[test]
    fn limit_stays_within_bounds_under_any_mixed_sequence() {
        let l = limiter(4, 2, 6);
        // Deterministic pseudo-random mix of good/bad/failed completions.
        let mut x = 0x12345u64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if l.try_acquire() {
                match x % 3 {
                    0 => l.release(10),
                    1 => l.release(1_000_000),
                    _ => l.release_failure(),
                }
            }
            let limit = l.limit();
            assert!((2..=6).contains(&limit), "limit {limit} escaped [2, 6]");
        }
        assert_eq!(l.inflight(), 0);
    }
}
