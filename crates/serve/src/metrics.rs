//! Serving metrics: lock-free counters and log-scaled latency histograms,
//! snapshotted into a [`ServerStats`] report.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Linear sub-buckets per power-of-two range, as `log2`: each octave is
/// split into `2^SUB_BITS` equal-width buckets, bounding the quantile
/// estimation error at `1 / 2^SUB_BITS` (≈ 6.25%) of the value instead of
/// the old pure power-of-two layout's factor-of-two band — which made every
/// percentile collapse onto bucket edges like `131071 µs` under load.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Highest resolved most-significant bit: values at or above `2^40` µs
/// (~12.7 days) clamp into the final bucket, far beyond any request
/// lifetime.
const MAX_MSB: u32 = 40;
/// Total bucket count: one linear region for values `< SUBS` plus
/// `(MAX_MSB - SUB_BITS)` log-linear octaves of `SUBS` buckets each.
const HIST_BUCKETS: usize = SUBS + (MAX_MSB - SUB_BITS) as usize * SUBS;

/// Index of the bucket containing `us` in the log-linear layout.
fn bucket_index(us: u64) -> usize {
    if us < SUBS as u64 {
        return us as usize;
    }
    let msb = 63 - us.leading_zeros() as u64;
    let octave = (msb as usize).min(MAX_MSB as usize - 1) - SUB_BITS as usize;
    let sub = if msb >= u64::from(MAX_MSB) {
        SUBS - 1
    } else {
        ((us >> (msb - u64::from(SUB_BITS))) & (SUBS as u64 - 1)) as usize
    };
    SUBS + octave * SUBS + sub
}

/// Inclusive upper bound of bucket `idx` (the value a quantile reports).
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let octave = (idx - SUBS) / SUBS;
    let sub = ((idx - SUBS) % SUBS) as u64;
    let msb = octave as u64 + u64::from(SUB_BITS);
    let base = 1u64 << msb;
    let width = 1u64 << (msb - u64::from(SUB_BITS));
    base + (sub + 1) * width - 1
}

/// A concurrent latency histogram with log-linear microsecond buckets
/// (HDR-histogram style: power-of-two octaves, each split into `SUBS`
/// linear sub-buckets).
///
/// Recording is a single relaxed atomic increment; a reported quantile is
/// the upper bound of the bucket containing the target rank, clamped to the
/// observed maximum — accurate to within ≈ 6.25% of the value.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one latency sample in microseconds.
    pub fn record(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) in microseconds: the upper
    /// boundary of the bucket containing the target rank, clamped to the
    /// observed maximum. Returns 0 when nothing was recorded.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cum += bucket.load(Ordering::Relaxed);
            if cum >= target {
                return bucket_upper(i).min(self.max_us.load(Ordering::Relaxed));
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// Snapshots count, mean, p50/p95/p99 and max.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        HistogramSummary {
            count,
            mean_us: if count == 0 {
                0.0
            } else {
                self.sum_us.load(Ordering::Relaxed) as f64 / count as f64
            },
            p50_us: self.quantile_us(0.50),
            p95_us: self.quantile_us(0.95),
            p99_us: self.quantile_us(0.99),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time summary of one latency histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Median (bucket-resolution estimate, clamped to the observed max).
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Largest recorded sample.
    pub max_us: u64,
}

/// The shared metric registry updated by the queue and the workers.
#[derive(Debug)]
pub(crate) struct Metrics {
    pub(crate) started: Instant,
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) shed_expired: AtomicU64,
    pub(crate) batch_panics: AtomicU64,
    pub(crate) worker_restarts: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batched_examples: AtomicU64,
    pub(crate) max_batch_observed: AtomicU64,
    pub(crate) peak_queue_depth: AtomicU64,
    /// End-to-end latency: submit → response sent.
    pub(crate) latency: LatencyHistogram,
    /// Time spent waiting in the queue before batch formation.
    pub(crate) queue_wait: LatencyHistogram,
    /// Model time per dispatched batch.
    pub(crate) service: LatencyHistogram,
    /// Sliding completion-rate window behind `retry_after_ms`.
    drain_window: Mutex<DrainWindow>,
}

/// Recent completion-rate estimate: refreshed whenever `retry_after_ms`
/// finds the window at least [`DRAIN_WINDOW`] old, so the hint tracks what
/// this server is draining *now* rather than a lifetime average that an
/// old burst (or a long idle stretch) would skew for minutes.
#[derive(Debug)]
struct DrainWindow {
    /// When the window was last rolled.
    at: Instant,
    /// `completed` counter at the last roll.
    completed: u64,
    /// Completions per second over the last non-empty window; halved on
    /// each stalled window so the hint of a wedged pool grows toward the
    /// 5 s clamp instead of quoting a stale rate forever.
    rate_rps: f64,
}

/// Minimum age before the drain-rate window rolls over.
const DRAIN_WINDOW: Duration = Duration::from_millis(250);

impl Metrics {
    pub(crate) fn new() -> Self {
        Self {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shed_expired: AtomicU64::new(0),
            batch_panics: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_examples: AtomicU64::new(0),
            max_batch_observed: AtomicU64::new(0),
            peak_queue_depth: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            service: LatencyHistogram::new(),
            drain_window: Mutex::new(DrainWindow {
                at: Instant::now(),
                completed: 0,
                rate_rps: 0.0,
            }),
        }
    }

    /// Suggests how long an [`Overloaded`](crate::ServeError::Overloaded)
    /// producer should wait before retrying: the time this server needs to
    /// drain its current queue at its *recent* completion rate (a sliding
    /// window of at least [`DRAIN_WINDOW`], decayed while completions
    /// stall), clamped to `[10 ms, 5 s]`. The rate is observed per server
    /// — one per model profile — so a saturated pool's hint never reflects
    /// another pool's drain speed. Before any request completes the hint
    /// is a flat 100 ms.
    pub(crate) fn retry_after_ms(&self, depth: usize) -> u64 {
        let completed = self.completed.load(Ordering::Relaxed);
        let mut w = self.drain_window.lock().unwrap_or_else(PoisonError::into_inner);
        let elapsed = w.at.elapsed();
        if elapsed >= DRAIN_WINDOW {
            let delta = completed.saturating_sub(w.completed);
            if delta > 0 {
                w.rate_rps = delta as f64 / elapsed.as_secs_f64();
            } else {
                w.rate_rps /= 2.0;
            }
            w.at = Instant::now();
            w.completed = completed;
        }
        if w.rate_rps <= f64::MIN_POSITIVE {
            // No windowed rate yet: fall back to the lifetime average, or
            // a flat 100 ms before the first completion.
            let elapsed_s = self.started.elapsed().as_secs_f64();
            if completed == 0 || elapsed_s <= 0.0 {
                return 100;
            }
            w.rate_rps = completed as f64 / elapsed_s;
        }
        ((depth as f64 / w.rate_rps) * 1000.0).round().clamp(10.0, 5000.0) as u64
    }

    pub(crate) fn snapshot(
        &self,
        queue_depth: usize,
        workers: usize,
        session_kind: &'static str,
    ) -> ServerStats {
        let elapsed_s = self.started.elapsed().as_secs_f64();
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let batched = self.batched_examples.load(Ordering::Relaxed);
        ServerStats {
            session_kind,
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed_expired: self.shed_expired.load(Ordering::Relaxed),
            batch_panics: self.batch_panics.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            queue_depth,
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            batches,
            mean_batch_occupancy: if batches == 0 { 0.0 } else { batched as f64 / batches as f64 },
            max_batch_observed: self.max_batch_observed.load(Ordering::Relaxed),
            throughput_rps: if elapsed_s > 0.0 { completed as f64 / elapsed_s } else { 0.0 },
            elapsed_s,
            workers,
            latency: self.latency.summary(),
            queue_wait: self.queue_wait.summary(),
            service: self.service.summary(),
        }
    }
}

/// A point-in-time snapshot of the server's aggregate metrics.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Which forward path the session runs (`exact` / `fastmath` / `int8`,
    /// see [`crate::SessionKind`]).
    pub session_kind: &'static str,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests completed (responses sent).
    pub completed: u64,
    /// Requests rejected by admission control (queue full).
    pub rejected: u64,
    /// Requests answered with an explicit error because their forward pass
    /// panicked even when retried in isolation.
    pub failed: u64,
    /// Requests shed because their deadline expired before a forward pass
    /// was spent on them (answered with
    /// [`DeadlineExceeded`](crate::ServeError::DeadlineExceeded)).
    pub shed_expired: u64,
    /// Batched forward passes that panicked; the batch's requests were
    /// retried in per-request isolation.
    pub batch_panics: u64,
    /// Worker threads the supervisor respawned after they died.
    pub worker_restarts: u64,
    /// Requests currently waiting in the queue.
    pub queue_depth: usize,
    /// Highest queue depth observed.
    pub peak_queue_depth: u64,
    /// Batches dispatched to inference sessions.
    pub batches: u64,
    /// Mean examples per dispatched batch.
    pub mean_batch_occupancy: f64,
    /// Largest batch dispatched.
    pub max_batch_observed: u64,
    /// Completed requests per second since the server started.
    pub throughput_rps: f64,
    /// Seconds since the server started.
    pub elapsed_s: f64,
    /// Number of worker threads.
    pub workers: usize,
    /// End-to-end request latency (submit → response).
    pub latency: HistogramSummary,
    /// Queue-wait component of the latency.
    pub queue_wait: HistogramSummary,
    /// Per-batch model service time.
    pub service: HistogramSummary,
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests : {} completed, {} rejected, {} failed, {} queued (peak {})",
            self.completed, self.rejected, self.failed, self.queue_depth, self.peak_queue_depth
        )?;
        writeln!(
            f,
            "faults   : {} shed (deadline), {} batch panics, {} worker restarts",
            self.shed_expired, self.batch_panics, self.worker_restarts
        )?;
        writeln!(
            f,
            "batches  : {} dispatched, {:.2} mean occupancy (max {}), {} workers ({} path)",
            self.batches,
            self.mean_batch_occupancy,
            self.max_batch_observed,
            self.workers,
            self.session_kind
        )?;
        writeln!(f, "rate     : {:.1} req/s over {:.2}s", self.throughput_rps, self.elapsed_s)?;
        writeln!(
            f,
            "latency  : p50 {}us  p95 {}us  p99 {}us  max {}us",
            self.latency.p50_us, self.latency.p95_us, self.latency.p99_us, self.latency.max_us
        )?;
        write!(
            f,
            "queueing : p50 {}us  p99 {}us   service/batch: p50 {}us  p99 {}us",
            self.queue_wait.p50_us,
            self.queue_wait.p99_us,
            self.service.p50_us,
            self.service.p99_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.max_us, 0);
    }

    #[test]
    fn quantiles_are_monotonic_and_bounded_by_max() {
        let h = LatencyHistogram::new();
        for us in [3u64, 9, 17, 120, 900, 5_000, 70_000] {
            h.record(us);
        }
        let s = h.summary();
        assert_eq!(s.count, 7);
        assert!(s.p50_us <= s.p95_us && s.p95_us <= s.p99_us && s.p99_us <= s.max_us);
        assert_eq!(s.max_us, 70_000);
    }

    #[test]
    fn single_sample_percentiles_equal_the_sample() {
        let h = LatencyHistogram::new();
        h.record(1000);
        let s = h.summary();
        assert_eq!(s.p50_us, 1000.min(s.max_us));
        assert_eq!(s.p99_us, s.p50_us);
    }

    #[test]
    fn bucket_estimate_is_within_a_factor_of_two() {
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(1500);
        }
        let p50 = h.quantile_us(0.5);
        assert!((1024..=2047).contains(&p50) || p50 == 1500, "p50 {p50}");
    }

    /// With pure power-of-two buckets every percentile of a loaded run
    /// collapses onto a bucket edge such as 131071 µs. A sample
    /// larger than 0.2 s must round-trip through the histogram with
    /// log-linear (≤ 1/16) resolution, not a factor-of-two band.
    #[test]
    fn large_sample_round_trips_through_the_histogram() {
        // Single >0.2 s sample: clamping to the observed max makes it exact.
        let h = LatencyHistogram::new();
        h.record(250_000);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_us, 250_000);
        assert_eq!(s.p99_us, 250_000);
        assert_eq!(s.max_us, 250_000);

        // Mixed large samples: the median lands within 1/16 of the true
        // median instead of snapping to 131071.
        let h = LatencyHistogram::new();
        for us in [210_000u64, 215_000, 221_000, 230_000, 252_000, 301_000, 407_000] {
            h.record(us);
        }
        let p50 = h.quantile_us(0.5);
        assert_ne!(p50, 131_071, "p50 must not saturate at the old bucket edge");
        assert!(
            (230_000..=230_000 + 230_000 / 16 + 1).contains(&p50),
            "p50 {p50} outside the 1/16-resolution band around 230000"
        );
        let p99 = h.quantile_us(0.99);
        assert!(
            (407_000..=407_000 + 407_000 / 16 + 1).contains(&p99.max(407_000)) && p99 <= 407_000,
            "p99 {p99} must clamp to the observed max"
        );
    }

    /// The retry hint tracks the *recent* completion rate, not the
    /// lifetime average: after a fast burst, a long stall must grow the
    /// hint (windowed decay) instead of quoting the stale burst rate.
    #[test]
    fn retry_hint_follows_the_recent_drain_rate() {
        let m = Metrics::new();
        // Before any completion: the flat fallback.
        assert_eq!(m.retry_after_ms(50), 100);
        // 200 completions land, then the first window rolls: the hint for
        // a 100-deep queue reflects the recent (fast) rate — far below the
        // 5 s clamp.
        m.completed.store(200, Ordering::Relaxed);
        std::thread::sleep(DRAIN_WINDOW);
        let busy = m.retry_after_ms(100);
        assert!((10..=1000).contains(&busy), "hint {busy}ms does not reflect a fast drain");
        // The server then stalls completely: each stalled window halves
        // the remembered rate, so the hint grows.
        std::thread::sleep(DRAIN_WINDOW);
        let s1 = m.retry_after_ms(100);
        std::thread::sleep(DRAIN_WINDOW);
        let s2 = m.retry_after_ms(100);
        assert!(s1 >= busy && s2 >= s1 * 2 - 1, "stall must grow the hint: {busy} {s1} {s2}");
        assert!(s2 <= 5000, "hint must stay clamped");
    }

    /// Bucket upper bounds are strictly monotonic and every value maps into
    /// a bucket whose bounds contain it.
    #[test]
    fn bucket_layout_is_monotonic_and_covering() {
        let mut prev = None;
        for idx in 0..HIST_BUCKETS {
            let upper = bucket_upper(idx);
            if let Some(p) = prev {
                assert!(upper > p, "bucket {idx} upper {upper} <= previous {p}");
            }
            prev = Some(upper);
        }
        for us in [0u64, 1, 15, 16, 17, 31, 32, 1000, 131_071, 131_072, 200_000, 1 << 39, u64::MAX]
        {
            let idx = bucket_index(us);
            assert!(idx < HIST_BUCKETS, "{us} -> {idx}");
            if us < (1 << MAX_MSB) {
                assert!(bucket_upper(idx) >= us, "{us} above its bucket upper");
                if idx > 0 {
                    assert!(bucket_upper(idx - 1) < us, "{us} below its bucket");
                }
            }
        }
    }
}
