//! Tenant-level quality of service: token-bucket admission quotas,
//! weighted-fair shares, and per-tenant serving counters.
//!
//! Quotas bound *admission rate* (how many requests per second a tenant
//! may inject, with a burst allowance), while weights bound *service
//! share* (how the scheduler divides each priority class among the
//! tenants queued in it). The two compose: a tenant inside its quota but
//! over its fair share queues behind its peers; a tenant over its quota
//! is rejected at the door with a `retry_after_ms` hint derived from its
//! own refill rate — not from any model's queue depth.

use fab_serve::{HistogramSummary, LatencyHistogram};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Tenant name used when a request carries no `X-Tenant` label: anonymous
/// traffic shares one bucket and one scheduling lane.
pub(crate) const DEFAULT_TENANT: &str = "default";

/// Per-tenant admission quota and scheduling weight.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantQuota {
    /// Sustained admission rate, in requests per second (the token-bucket
    /// refill rate). Non-positive = admit nothing once the burst is spent.
    pub rate_per_s: f64,
    /// Burst allowance, in requests (the token-bucket capacity).
    pub burst: f64,
    /// Weighted-fair share among the tenants queued in the same priority
    /// class. Zero = strictly best-effort: served only when no
    /// positive-weight tenant is queued (the no-starvation guarantee
    /// covers nonzero weights only).
    pub weight: f64,
}

impl Default for TenantQuota {
    fn default() -> Self {
        Self { rate_per_s: 500.0, burst: 1000.0, weight: 1.0 }
    }
}

/// Lock-free serving counters for one tenant, shared between the fleet
/// (which updates them) and metric scrapes (which read them).
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// Requests this tenant pushed into a model queue.
    pub submitted: AtomicU64,
    /// Requests answered with a prediction.
    pub completed: AtomicU64,
    /// Requests answered with an explicit serve error.
    pub failed: AtomicU64,
    /// Requests rejected at admission because the tenant's token bucket
    /// was empty.
    pub quota_rejected: AtomicU64,
    /// End-to-end latency of this tenant's completed requests.
    pub latency: LatencyHistogram,
}

/// The classic token bucket: refilled continuously at `rate_per_s`, capped
/// at `burst`, one token per admitted request.
#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    refilled: Instant,
}

impl TokenBucket {
    fn full(quota: &TenantQuota) -> Self {
        Self { tokens: quota.burst.max(1.0), refilled: Instant::now() }
    }

    /// Takes one token, or reports how many milliseconds until the bucket
    /// refills enough for one (clamped to `[10 ms, 5 s]`).
    fn try_take(&mut self, quota: &TenantQuota, now: Instant) -> Result<(), u64> {
        let dt = now.saturating_duration_since(self.refilled).as_secs_f64();
        self.tokens = (self.tokens + dt * quota.rate_per_s.max(0.0)).min(quota.burst.max(1.0));
        self.refilled = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return Ok(());
        }
        if quota.rate_per_s <= 0.0 {
            return Err(5000);
        }
        let wait_ms = ((1.0 - self.tokens) / quota.rate_per_s * 1000.0).ceil();
        Err(wait_ms.clamp(10.0, 5000.0) as u64)
    }
}

struct TenantEntry {
    quota: TenantQuota,
    bucket: TokenBucket,
    counters: Arc<TenantCounters>,
}

/// The fleet-wide tenant directory: quotas, buckets, weights, counters.
///
/// Tenants named in the configuration get their configured quota; a
/// tenant first seen on a request is created on the fly with the default
/// quota, so an unknown `X-Tenant` is rate-limited rather than unlimited.
pub struct TenantTable {
    default_quota: TenantQuota,
    inner: Mutex<HashMap<String, TenantEntry>>,
}

impl TenantTable {
    /// Builds the table from configured `(name, quota)` pairs; every other
    /// tenant falls back to `default_quota` on first sight.
    pub fn new(default_quota: TenantQuota, tenants: Vec<(String, TenantQuota)>) -> Self {
        let mut map = HashMap::new();
        for (name, quota) in tenants {
            map.insert(
                name,
                TenantEntry {
                    bucket: TokenBucket::full(&quota),
                    counters: Arc::new(TenantCounters::default()),
                    quota,
                },
            );
        }
        Self { default_quota, inner: Mutex::new(map) }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, HashMap<String, TenantEntry>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Charges one request against `tenant`'s token bucket. On success
    /// returns the tenant's counters (for outcome bookkeeping); on an
    /// empty bucket returns the tenant's own refill-derived retry hint in
    /// milliseconds and counts the rejection.
    pub(crate) fn charge(&self, tenant: &str) -> Result<Arc<TenantCounters>, u64> {
        let mut map = self.locked();
        let default_quota = self.default_quota.clone();
        let entry = map.entry(tenant.to_string()).or_insert_with(|| TenantEntry {
            bucket: TokenBucket::full(&default_quota),
            counters: Arc::new(TenantCounters::default()),
            quota: default_quota,
        });
        match entry.bucket.try_take(&entry.quota, Instant::now()) {
            Ok(()) => Ok(Arc::clone(&entry.counters)),
            Err(retry_ms) => {
                entry.counters.quota_rejected.fetch_add(1, Ordering::Relaxed);
                Err(retry_ms)
            }
        }
    }

    /// The tenant's weighted-fair share (default quota's weight for
    /// tenants never seen or configured).
    pub(crate) fn weight(&self, tenant: &str) -> f64 {
        self.locked().get(tenant).map_or(self.default_quota.weight, |e| e.quota.weight)
    }

    /// Snapshots every known tenant, sorted by name.
    pub(crate) fn snapshot(&self) -> Vec<TenantStats> {
        let map = self.locked();
        let mut stats: Vec<TenantStats> = map
            .iter()
            .map(|(name, e)| TenantStats {
                tenant: name.clone(),
                rate_per_s: e.quota.rate_per_s,
                weight: e.quota.weight,
                submitted: e.counters.submitted.load(Ordering::Relaxed),
                completed: e.counters.completed.load(Ordering::Relaxed),
                failed: e.counters.failed.load(Ordering::Relaxed),
                quota_rejected: e.counters.quota_rejected.load(Ordering::Relaxed),
                latency: e.counters.latency.summary(),
            })
            .collect();
        stats.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        stats
    }
}

/// A point-in-time snapshot of one tenant's QoS state.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Configured sustained admission rate.
    pub rate_per_s: f64,
    /// Configured weighted-fair share.
    pub weight: f64,
    /// Requests admitted into model queues.
    pub submitted: u64,
    /// Requests answered with a prediction.
    pub completed: u64,
    /// Requests answered with an explicit error.
    pub failed: u64,
    /// Requests rejected by the tenant's quota.
    pub quota_rejected: u64,
    /// End-to-end latency of completed requests.
    pub latency: HistogramSummary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn quota_rejects_once_the_burst_is_spent_and_refills() {
        let table = TenantTable::new(
            TenantQuota::default(),
            vec![("bg".to_string(), TenantQuota { rate_per_s: 100.0, burst: 3.0, weight: 1.0 })],
        );
        for _ in 0..3 {
            table.charge("bg").expect("burst admits");
        }
        let hint = table.charge("bg").expect_err("empty bucket rejects");
        assert!((10..=5000).contains(&hint), "hint {hint}ms outside its clamp");
        // 100 req/s refills one token in 10 ms.
        std::thread::sleep(Duration::from_millis(25));
        table.charge("bg").expect("bucket refilled");
        assert_eq!(table.snapshot()[0].quota_rejected, 1);
    }

    #[test]
    fn unknown_tenants_get_the_default_quota_not_unlimited() {
        let table =
            TenantTable::new(TenantQuota { rate_per_s: 0.0, burst: 2.0, weight: 1.0 }, Vec::new());
        assert!(table.charge("stranger").is_ok());
        assert!(table.charge("stranger").is_ok());
        assert_eq!(table.charge("stranger").err(), Some(5000), "zero refill pins the max hint");
        assert_eq!(table.weight("stranger"), 1.0);
    }
}
