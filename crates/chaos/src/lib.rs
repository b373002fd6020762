//! # fab-chaos
//!
//! Deterministic fault injection for the serving stack. A
//! [`ChaosInjector`] holds one independent, seeded xorshift stream per
//! *site* — a named place in the code that asks "should this call fail?"
//! — so a test, bench, or chaos-smoke job that fixes the seed and the
//! per-site call sequence gets the exact same fault schedule every run.
//! That determinism is the whole point: overload and recovery claims are
//! gated on reproducible fault timelines, not on whatever a wall-clock
//! raced into.
//!
//! Sites ([`ChaosSite`]):
//!
//! - `slow_forward` — stretch a forward pass by a configured delay,
//! - `panic_forward` — panic inside the forward pass (exercises the
//!   batch-isolation retry and, when persistent, circuit breakers),
//! - `snapshot_save` — fail a snapshot write with an injected I/O error,
//! - `accept_stall` — stall the daemon's accept loop,
//! - `worker_exit` — make a serve worker exit as if it had died
//!   (exercises supervision and the inline shutdown drain),
//! - `poison_token` — panic the forward pass of a sequence that carries
//!   the site's parameter as a token id (exercises per-request isolation:
//!   only a sequence with the marker draws, so its batchmates never fail).
//!
//! Each site is off until configured with a rate `every` (fire on draws
//! where `xorshift() % every == 0`; `1` = always, `0` = off) and an
//! optional parameter: the delay in milliseconds for the stall sites, the
//! marker token id for `poison_token`. Configuration is lock-free and
//! runtime-mutable — the daemon arms it only behind its `fault_injection`
//! gate — and every fired injection is counted for the
//! `fabd_chaos_injected_total{site}` metric.
//!
//! The crate is std-only and dependency-free so every layer (serve,
//! store, daemon) can hook a site without new build edges.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A place in the code where faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosSite {
    /// Stretch a forward pass by [`SiteStatus::param_ms`].
    SlowForward,
    /// Panic inside a forward pass.
    PanicForward,
    /// Fail a snapshot save with an I/O error.
    SnapshotSave,
    /// Stall the accept loop by [`SiteStatus::param_ms`].
    AcceptStall,
    /// Make a serve worker exit at its next loop iteration.
    WorkerExit,
    /// Panic the forward pass of a sequence containing the token id
    /// [`SiteStatus::param_ms`] (see [`ChaosInjector::poisons`]).
    PoisonToken,
}

impl ChaosSite {
    /// Every site, in the order used by snapshots and metrics.
    pub const ALL: [ChaosSite; 6] = [
        ChaosSite::SlowForward,
        ChaosSite::PanicForward,
        ChaosSite::SnapshotSave,
        ChaosSite::AcceptStall,
        ChaosSite::WorkerExit,
        ChaosSite::PoisonToken,
    ];

    /// Canonical snake_case name (metric label / admin API value).
    pub fn name(self) -> &'static str {
        match self {
            ChaosSite::SlowForward => "slow_forward",
            ChaosSite::PanicForward => "panic_forward",
            ChaosSite::SnapshotSave => "snapshot_save",
            ChaosSite::AcceptStall => "accept_stall",
            ChaosSite::WorkerExit => "worker_exit",
            ChaosSite::PoisonToken => "poison_token",
        }
    }

    /// Parses a canonical name back into a site.
    pub fn parse(s: &str) -> Option<Self> {
        ChaosSite::ALL.into_iter().find(|site| site.name() == s)
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One site's lock-free state: schedule knobs, its private xorshift
/// stream, and the fired count.
#[derive(Debug)]
struct SiteState {
    /// Fire on draws where `xorshift() % every == 0`; 0 disables.
    every: AtomicU64,
    /// Delay in milliseconds (stall sites) or marker token id
    /// (`poison_token`).
    param_ms: AtomicU64,
    /// xorshift64* state; never zero.
    rng: AtomicU64,
    /// Faults actually fired at this site.
    injected: AtomicU64,
}

/// A point-in-time view of one site, for `/v1/stats` and admin replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteStatus {
    /// The site this row describes.
    pub site: ChaosSite,
    /// Current rate (0 = off, 1 = every draw, N = ~1/N of draws).
    pub every: u64,
    /// Delay in milliseconds for the stall sites, marker token id for
    /// `poison_token`; 0 otherwise.
    pub param_ms: u64,
    /// Faults fired at this site since the injector was created.
    pub injected: u64,
}

/// Mixes `seed` and a site index into a non-zero xorshift starting state
/// (splitmix64 finalizer), so sites draw from independent streams even
/// with small seeds.
fn mix_seed(seed: u64, site: usize) -> u64 {
    let mut z = seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(site as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z | 1 // xorshift state must be non-zero
}

/// The seeded fault scheduler. See the crate docs.
#[derive(Debug)]
pub struct ChaosInjector {
    seed: u64,
    sites: [SiteState; ChaosSite::ALL.len()],
}

impl ChaosInjector {
    /// A fresh injector with every site off, drawing from streams derived
    /// from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            sites: std::array::from_fn(|i| SiteState {
                every: AtomicU64::new(0),
                param_ms: AtomicU64::new(0),
                rng: AtomicU64::new(mix_seed(seed, i)),
                injected: AtomicU64::new(0),
            }),
        }
    }

    /// The seed the per-site streams were derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets one site's schedule: fire on ~1 of `every` draws (`1` =
    /// always, `0` = off), with `param_ms` as the delay for the stall
    /// sites or the marker token id for `poison_token`. Does not reset the
    /// site's stream or fired count.
    pub fn configure(&self, site: ChaosSite, every: u64, param_ms: u64) {
        let s = &self.sites[site.index()];
        s.param_ms.store(param_ms, Ordering::Relaxed);
        s.every.store(every, Ordering::Relaxed);
    }

    /// Turns every site off and restarts every stream from the seed, so a
    /// cleared injector re-configured identically replays the same
    /// schedule. Fired counts are kept (they are monotonic metrics).
    pub fn reset(&self) {
        for (i, s) in self.sites.iter().enumerate() {
            s.every.store(0, Ordering::Relaxed);
            s.param_ms.store(0, Ordering::Relaxed);
            s.rng.store(mix_seed(self.seed, i), Ordering::Relaxed);
        }
    }

    /// Draws the site's next schedule decision: `true` means the caller
    /// must inject the fault now (the fired count is already bumped).
    /// A disabled site does not advance its stream, so enabling a site
    /// later still replays its stream from the start.
    pub fn fires(&self, site: ChaosSite) -> bool {
        let s = &self.sites[site.index()];
        let every = s.every.load(Ordering::Relaxed);
        if every == 0 {
            return false;
        }
        // xorshift64*: race on the state only interleaves which thread
        // gets which draw; the draw *sequence* stays seed-determined.
        let mut x = s.rng.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.rng.store(x, Ordering::Relaxed);
        let fired = x.wrapping_mul(0x2545_f491_4f6c_dd1d).is_multiple_of(every);
        if fired {
            s.injected.fetch_add(1, Ordering::Relaxed);
        }
        fired
    }

    /// The site's millisecond parameter as a [`Duration`].
    pub fn param(&self, site: ChaosSite) -> Duration {
        Duration::from_millis(self.sites[site.index()].param_ms.load(Ordering::Relaxed))
    }

    /// Draws the site and, on fire, returns the configured delay for the
    /// caller to sleep. Convenience for the stall sites.
    pub fn stall(&self, site: ChaosSite) -> Option<Duration> {
        if self.fires(site) {
            Some(self.param(site))
        } else {
            None
        }
    }

    /// Draws `poison_token` for one sequence when it carries the site's
    /// marker token id: `true` means the caller must panic its forward
    /// pass. A sequence without the marker never draws, so it cannot fail
    /// and does not advance the stream; a disarmed site costs one load.
    pub fn poisons(&self, tokens: &[usize]) -> bool {
        let s = &self.sites[ChaosSite::PoisonToken.index()];
        if s.every.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let marker = s.param_ms.load(Ordering::Relaxed);
        tokens.iter().any(|&t| t as u64 == marker) && self.fires(ChaosSite::PoisonToken)
    }

    /// Faults fired at `site` since creation.
    pub fn injected(&self, site: ChaosSite) -> u64 {
        self.sites[site.index()].injected.load(Ordering::Relaxed)
    }

    /// Snapshots every site in [`ChaosSite::ALL`] order.
    pub fn status(&self) -> Vec<SiteStatus> {
        ChaosSite::ALL
            .into_iter()
            .map(|site| {
                let s = &self.sites[site.index()];
                SiteStatus {
                    site,
                    every: s.every.load(Ordering::Relaxed),
                    param_ms: s.param_ms.load(Ordering::Relaxed),
                    injected: s.injected.load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed, same configuration, same call sequence → identical
    /// decisions and fired counts. This is the property every chaos-gated
    /// bench claim rests on.
    #[test]
    fn same_seed_replays_the_same_schedule() {
        let run = |seed: u64| -> (Vec<bool>, u64) {
            let inj = ChaosInjector::new(seed);
            inj.configure(ChaosSite::PanicForward, 3, 0);
            let draws: Vec<bool> = (0..64).map(|_| inj.fires(ChaosSite::PanicForward)).collect();
            (draws, inj.injected(ChaosSite::PanicForward))
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds should differ somewhere in 64 draws");
    }

    #[test]
    fn disabled_sites_never_fire_and_do_not_advance_the_stream() {
        let inj = ChaosInjector::new(1);
        for _ in 0..32 {
            assert!(!inj.fires(ChaosSite::SlowForward));
        }
        assert_eq!(inj.injected(ChaosSite::SlowForward), 0);
        // Enabling after idle draws replays from the stream's start: the
        // decisions match a fresh injector configured immediately.
        inj.configure(ChaosSite::SlowForward, 2, 5);
        let late: Vec<bool> = (0..32).map(|_| inj.fires(ChaosSite::SlowForward)).collect();
        let fresh = ChaosInjector::new(1);
        fresh.configure(ChaosSite::SlowForward, 2, 5);
        let eager: Vec<bool> = (0..32).map(|_| fresh.fires(ChaosSite::SlowForward)).collect();
        assert_eq!(late, eager);
    }

    #[test]
    fn every_one_always_fires_and_counts() {
        let inj = ChaosInjector::new(42);
        inj.configure(ChaosSite::SnapshotSave, 1, 0);
        for _ in 0..10 {
            assert!(inj.fires(ChaosSite::SnapshotSave));
        }
        assert_eq!(inj.injected(ChaosSite::SnapshotSave), 10);
    }

    #[test]
    fn sites_draw_from_independent_streams() {
        let inj = ChaosInjector::new(9);
        inj.configure(ChaosSite::SlowForward, 2, 1);
        inj.configure(ChaosSite::PanicForward, 2, 0);
        let a: Vec<bool> = (0..64).map(|_| inj.fires(ChaosSite::SlowForward)).collect();
        let b: Vec<bool> = (0..64).map(|_| inj.fires(ChaosSite::PanicForward)).collect();
        assert_ne!(a, b, "same-rate sites should not share one stream");
    }

    #[test]
    fn rate_roughly_matches_every() {
        let inj = ChaosInjector::new(123);
        inj.configure(ChaosSite::AcceptStall, 4, 7);
        let fired = (0..4000).filter(|_| inj.fires(ChaosSite::AcceptStall)).count();
        assert!((700..=1300).contains(&fired), "~1/4 of 4000 expected, got {fired}");
        assert_eq!(inj.param(ChaosSite::AcceptStall), Duration::from_millis(7));
    }

    #[test]
    fn reset_restarts_streams_but_keeps_monotonic_counts() {
        let inj = ChaosInjector::new(5);
        inj.configure(ChaosSite::PanicForward, 2, 0);
        let first: Vec<bool> = (0..16).map(|_| inj.fires(ChaosSite::PanicForward)).collect();
        let fired_before = inj.injected(ChaosSite::PanicForward);
        inj.reset();
        assert!(!inj.fires(ChaosSite::PanicForward), "reset turns sites off");
        inj.configure(ChaosSite::PanicForward, 2, 0);
        let replay: Vec<bool> = (0..16).map(|_| inj.fires(ChaosSite::PanicForward)).collect();
        assert_eq!(first, replay);
        assert!(inj.injected(ChaosSite::PanicForward) >= fired_before);
    }

    #[test]
    fn poison_token_draws_only_for_sequences_carrying_the_marker() {
        let inj = ChaosInjector::new(3);
        assert!(!inj.poisons(&[0, 9]), "a disarmed site never fires");
        inj.configure(ChaosSite::PoisonToken, 1, 9);
        assert!(!inj.poisons(&[1, 2, 3]));
        assert_eq!(inj.injected(ChaosSite::PoisonToken), 0, "a clean sequence drew");
        assert!(inj.poisons(&[4, 9, 5]));
        assert_eq!(inj.injected(ChaosSite::PoisonToken), 1);
    }

    #[test]
    fn names_round_trip() {
        for site in ChaosSite::ALL {
            assert_eq!(ChaosSite::parse(site.name()), Some(site));
        }
        assert_eq!(ChaosSite::parse("nope"), None);
    }
}
