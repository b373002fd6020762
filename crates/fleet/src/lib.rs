//! # fab-fleet
//!
//! The model-fleet layer between `fab-serve` (one dynamic-batching server
//! per model) and `fabd` (the network daemon): one process serving many
//! named models — mixed tasks, architectures, and precisions — behind
//! shared admission and scheduling policy.
//!
//! Three pieces compose the subsystem:
//!
//! - [`Registry`] — named, versioned, ref-counted model entries with a
//!   loading → ready → draining → retired lifecycle and atomic swap:
//!   hot load/unload/reload never drops an in-flight request (the PR-6
//!   zero-drop drain invariant holds across a reload).
//! - [`TenantTable`] — per-tenant token-bucket admission quotas, fair
//!   -share weights, and serving counters; a tenant over its quota is
//!   rejected with a hint derived from its own refill rate.
//! - [`QosPolicy`] — a two-level weighted-fair (stride) scheduler over
//!   `(priority class, tenant)` lanes, plugged into fab-serve's
//!   [`BatchPolicy`](fab_serve::BatchPolicy) trait, so each model's
//!   worker pool keeps all the PR-6 robustness machinery while dequeue
//!   order follows QoS policy. Priority classes are weighted
//!   (16 : 4 : 1 by default), not strict — a background tenant with a
//!   nonzero weight is never starved.
//!
//! [`Fleet`] ties them together: `submit` resolves the model (pinning the
//! version across the enqueue, after which the server's own drain
//! guarantees the answer), charges the tenant's bucket, labels the
//! request with [`RequestQos`], and returns a [`FleetPending`] that
//! records per-tenant / per-class outcome metrics.
//!
//! Scheduling never changes results: logits stay bit-identical to the
//! same session answering the request alone, whatever batch, order, or
//! worker count the policy produces (the session runs every sequence of
//! a batch on its own).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod overload;
pub mod qos;
pub mod registry;
pub mod scheduler;

pub use overload::{
    CircuitBreaker, CircuitDecision, CircuitState, DegradeController, GuardStats, ModelGuard,
    OverloadConfig,
};
pub use qos::{TenantCounters, TenantQuota, TenantStats, TenantTable, DEFAULT_TENANT};
pub use registry::{
    LoadTicket, ModelHandle, ModelInfo, ModelSource, ModelSpec, ModelState, Registry,
};
pub use scheduler::{ClassWeights, QosPolicy};

use fab_serve::{
    HistogramSummary, InferenceSession, LatencyHistogram, Prediction, Priority, RequestQos,
    ServeConfig, ServeError, Server, ServerStats,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Why the fleet could not take or finish a request or admin action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// No model is registered under this name.
    NoSuchModel(String),
    /// The name's first load has not finished yet.
    ModelLoading(String),
    /// A load of this name is already in progress.
    AlreadyLoading(String),
    /// The tenant's token bucket is empty.
    QuotaExceeded {
        /// The rejected tenant.
        tenant: String,
        /// Milliseconds until the tenant's bucket refills one token.
        retry_after_ms: u64,
    },
    /// The model's circuit breaker is open: recent requests hard-failed
    /// and the fleet is fast-failing instead of queueing onto a broken
    /// server.
    CircuitOpen {
        /// The model whose circuit tripped.
        model: String,
        /// Milliseconds until the breaker will admit probe requests.
        retry_after_ms: u64,
    },
    /// The model's server rejected or failed the request.
    Serve(ServeError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoSuchModel(name) => write!(f, "no model named '{name}'"),
            FleetError::ModelLoading(name) => write!(f, "model '{name}' is still loading"),
            FleetError::AlreadyLoading(name) => {
                write!(f, "a load of model '{name}' is already in progress")
            }
            FleetError::QuotaExceeded { tenant, retry_after_ms } => {
                write!(f, "tenant '{tenant}' exceeded its quota; retry in {retry_after_ms}ms")
            }
            FleetError::CircuitOpen { model, retry_after_ms } => {
                write!(f, "model '{model}' circuit is open; retry in {retry_after_ms}ms")
            }
            FleetError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<ServeError> for FleetError {
    fn from(e: ServeError) -> Self {
        FleetError::Serve(e)
    }
}

/// Fleet-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// Per-model server knobs (pool size, queue capacity, batching delay).
    pub serve: ServeConfig,
    /// Relative dequeue shares of the priority classes.
    pub class_weights: ClassWeights,
    /// Quota applied to tenants not named in `tenants`.
    pub default_quota: TenantQuota,
    /// Explicitly configured tenants.
    pub tenants: Vec<(String, TenantQuota)>,
    /// Bound on one tenant's queued requests per model (0 = none).
    pub per_tenant_queue_cap: usize,
    /// Adaptive admission, precision degradation, and circuit breakers
    /// (all off by default; see [`OverloadConfig`]).
    pub overload: OverloadConfig,
}

/// The fleet facade: registry + tenants + per-class latency, one `submit`
/// entry point. See the crate docs.
pub struct Fleet {
    config: FleetConfig,
    registry: Registry,
    tenants: Arc<TenantTable>,
    /// End-to-end latency per priority class, fleet-wide.
    class_latency: [Arc<LatencyHistogram>; 3],
    /// Overload-control state per model name (created on first use; kept
    /// across reloads so a hot swap does not reset breaker history).
    guards: Mutex<HashMap<String, Arc<ModelGuard>>>,
    /// Set once any model has a forced degrade level, so the default
    /// all-off config never pays the guard-map lock on the submit path.
    forced_any: AtomicBool,
}

impl Fleet {
    /// An empty fleet; load models with [`Fleet::load`].
    pub fn new(config: FleetConfig) -> Self {
        let tenants =
            Arc::new(TenantTable::new(config.default_quota.clone(), config.tenants.clone()));
        Self {
            config,
            registry: Registry::new(),
            tenants,
            class_latency: std::array::from_fn(|_| Arc::new(LatencyHistogram::new())),
            guards: Mutex::new(HashMap::new()),
            forced_any: AtomicBool::new(false),
        }
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The tenant directory (for metric scrapes).
    pub fn tenants(&self) -> &TenantTable {
        &self.tenants
    }

    /// Marks `spec.name` as loading and returns the ticket to commit the
    /// trained session with ([`Fleet::commit`]). A ready version of the
    /// name keeps serving until the commit swaps it out.
    ///
    /// # Errors
    ///
    /// [`FleetError::AlreadyLoading`].
    pub fn begin_load(&self, spec: ModelSpec) -> Result<LoadTicket<'_>, FleetError> {
        self.registry.begin_load(spec)
    }

    /// Builds a server around `session` (queue ordered by [`QosPolicy`]) and
    /// commits it as the new current version of the ticket's name, recorded
    /// as [`ModelSource::Trained`].
    pub fn commit(&self, ticket: LoadTicket<'_>, session: InferenceSession) -> ModelInfo {
        self.commit_with_source(ticket, session, ModelSource::Trained)
    }

    /// [`Fleet::commit`] with an explicit provenance tag — warm starts and
    /// snapshot fallbacks record where the version came from.
    pub fn commit_with_source(
        &self,
        ticket: LoadTicket<'_>,
        session: InferenceSession,
        source: ModelSource,
    ) -> ModelInfo {
        let policy = QosPolicy::new(
            self.config.class_weights.clone(),
            self.config.per_tenant_queue_cap,
            Arc::clone(&self.tenants),
        );
        let server =
            Server::start_with_policy(session, self.config.serve.clone(), Box::new(policy));
        ticket.commit_with_source(server, source)
    }

    /// One-step [`Fleet::begin_load`] + [`Fleet::commit`] for callers that
    /// already hold the session.
    ///
    /// # Errors
    ///
    /// [`FleetError::AlreadyLoading`].
    pub fn load(
        &self,
        spec: ModelSpec,
        session: InferenceSession,
    ) -> Result<ModelInfo, FleetError> {
        let ticket = self.begin_load(spec)?;
        Ok(self.commit(ticket, session))
    }

    /// Removes a name; its current version drains in the background
    /// (answering everything it admitted).
    ///
    /// # Errors
    ///
    /// [`FleetError::NoSuchModel`].
    pub fn unload(&self, name: &str) -> Result<ModelInfo, FleetError> {
        self.registry.unload(name)
    }

    /// Resolves a name to a version-pinning handle.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoSuchModel`] / [`FleetError::ModelLoading`].
    pub fn get(&self, name: &str) -> Result<ModelHandle, FleetError> {
        self.registry.get(name)
    }

    /// Submits one request: resolves the model, consults its circuit
    /// breaker, charges the tenant's bucket (`None` = the shared
    /// [`DEFAULT_TENANT`]), routes through the overload controls (which
    /// may reroute to a cheaper precision of the same task), and enqueues
    /// with the tenant/priority labels the scheduler orders by.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoSuchModel`] / [`FleetError::ModelLoading`],
    /// [`FleetError::CircuitOpen`], [`FleetError::QuotaExceeded`], or
    /// [`FleetError::Serve`] for validation and admission failures of the
    /// model's server (including the adaptive admission limit).
    pub fn submit(
        &self,
        model: &str,
        tenant: Option<&str>,
        priority: Priority,
        tokens: Vec<usize>,
        deadline: Option<Duration>,
    ) -> Result<FleetPending, FleetError> {
        let handle = self.registry.get(model)?;
        let overload = &self.config.overload;
        // The default all-off config takes the static path untouched: no
        // guard map, no extra locks, byte-for-byte the pre-overload flow.
        let use_guards = overload.adaptive
            || overload.degrade
            || overload.breaker_failures > 0
            || self.forced_any.load(Ordering::Relaxed);
        let guard = use_guards.then(|| self.guard(model));
        let now = Instant::now();
        if let Some(guard) = &guard {
            if let CircuitDecision::Reject { retry_after_ms } = guard.admit_circuit(now) {
                return Err(FleetError::CircuitOpen { model: model.to_string(), retry_after_ms });
            }
        }
        let tenant = tenant.unwrap_or(DEFAULT_TENANT);
        let counters = self.tenants.charge(tenant).map_err(|retry_after_ms| {
            FleetError::QuotaExceeded { tenant: tenant.to_string(), retry_after_ms }
        })?;
        let (serving, serving_guard) = match &guard {
            Some(g) => match self.route(handle, g, now) {
                Ok(r) => r,
                Err(e) => {
                    counters.failed.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
            },
            None => (handle, None),
        };
        let degraded = serving.spec().name != model;
        let served_by = serving.spec().name.clone();
        if degraded {
            if let Some(g) = &guard {
                g.count_degraded();
            }
        }
        let qos = RequestQos { tenant: Some(tenant.to_string()), priority };
        let pending = match serving.server().submit_with_qos(tokens, deadline, qos) {
            Ok(p) => p,
            Err(e) => {
                if let Some(sg) = &serving_guard {
                    sg.limiter().release_failure();
                }
                counters.failed.fetch_add(1, Ordering::Relaxed);
                return Err(FleetError::Serve(e));
            }
        };
        // The handle drops here, releasing the version: once the request
        // is *enqueued*, the server's own shutdown drain guarantees the
        // answer — pinning through the wait would deadlock a reaper
        // against a request only that reaper's shutdown can answer.
        drop(serving);
        counters.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(FleetPending {
            pending,
            counters,
            class_latency: Arc::clone(&self.class_latency[priority.index()]),
            submitted: Instant::now(),
            served_by,
            degraded,
            serving_guard,
            primary_guard: guard,
            slo_us: overload.aimd.slo_us,
        })
    }

    /// Picks the model that actually serves this request and, when
    /// adaptive admission is on, takes a limiter slot on it.
    ///
    /// The chain tried is `primary, ladder[0], ladder[1], ...` starting at
    /// the current degrade level — routing never moves *up* the ladder,
    /// so an escalated level is honored by every request until the
    /// controller itself recovers. Each acquire failure feeds one
    /// pressure event into the primary's degrade controller; exhausting
    /// the chain is an [`ServeError::Overloaded`] rejection whose hint is
    /// derived from the admission SLO.
    fn route(
        &self,
        handle: ModelHandle,
        guard: &Arc<ModelGuard>,
        now: Instant,
    ) -> Result<(ModelHandle, Option<Arc<ModelGuard>>), FleetError> {
        let overload = &self.config.overload;
        if !overload.adaptive && guard.degrade_level() == 0 {
            return Ok((handle, None));
        }
        let ladder = self.ladder_for(handle.spec());
        let mut level = guard.degrade_level().min(ladder.len());
        let mut primary = Some(handle);
        loop {
            let candidate = if level == 0 {
                Some((primary.take().expect("level 0 is visited at most once"), Arc::clone(guard)))
            } else {
                let name = &ladder[level - 1];
                // A rung can vanish between the ladder snapshot and here
                // (hot unload); skip it rather than fail the request.
                self.registry.get(name).ok().map(|h| (h, self.guard(name)))
            };
            if let Some((cand_handle, cand_guard)) = candidate {
                if !overload.adaptive {
                    // Forced degrade without adaptive admission: route
                    // straight to the pinned rung, no limiter slot.
                    return Ok((cand_handle, None));
                }
                if cand_guard.limiter().try_acquire() {
                    return Ok((cand_handle, Some(cand_guard)));
                }
                // This rung is out of capacity — the pressure signal the
                // primary's degrade controller keys off.
                guard.pressure(now);
            }
            if level >= ladder.len() {
                break;
            }
            level += 1;
        }
        let retry_after_ms = (overload.aimd.slo_us / 1_000).clamp(10, 5_000);
        Err(FleetError::Serve(ServeError::Overloaded { depth: 0, retry_after_ms }))
    }

    /// The overload-control guard for `name`, created on first use.
    fn guard(&self, name: &str) -> Arc<ModelGuard> {
        let mut guards = self.guards.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            guards
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(ModelGuard::new(self.config.overload.clone()))),
        )
    }

    /// The degradation ladder below `spec`: ready models of the same task
    /// at strictly cheaper precisions, most precise first. Models whose
    /// precision has no rank (see [`overload::precision_rank`]) never
    /// participate.
    fn ladder_for(&self, spec: &ModelSpec) -> Vec<String> {
        let Some(primary_rank) = overload::precision_rank(&spec.precision) else {
            return Vec::new();
        };
        let mut rungs: Vec<(usize, String)> = self
            .registry
            .ready_models()
            .into_iter()
            .filter_map(|(info, _)| {
                if info.spec.name == spec.name || info.spec.task != spec.task {
                    return None;
                }
                let rank = overload::precision_rank(&info.spec.precision)?;
                (rank > primary_rank).then_some((rank, info.spec.name))
            })
            .collect();
        rungs.sort();
        rungs.into_iter().map(|(_, name)| name).collect()
    }

    /// The degradation ladder below `model`, in routing order.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoSuchModel`] / [`FleetError::ModelLoading`].
    pub fn ladder(&self, model: &str) -> Result<Vec<String>, FleetError> {
        let handle = self.registry.get(model)?;
        Ok(self.ladder_for(handle.spec()))
    }

    /// Pins `model`'s degrade level (clamped to its ladder), or releases
    /// the pin with `None`; returns the effective level.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoSuchModel`] / [`FleetError::ModelLoading`].
    pub fn force_degrade(&self, model: &str, level: Option<usize>) -> Result<usize, FleetError> {
        let handle = self.registry.get(model)?;
        let ladder = self.ladder_for(handle.spec());
        drop(handle);
        if level.is_some() {
            self.forced_any.store(true, Ordering::Relaxed);
        }
        Ok(self.guard(model).force_level(level, ladder.len()))
    }

    /// Overload-control snapshots for every ready model, sorted by name.
    pub fn guard_stats(&self) -> Vec<(String, GuardStats)> {
        let now = Instant::now();
        self.registry
            .ready_models()
            .into_iter()
            .map(|(info, _)| {
                let stats = self.guard(&info.spec.name).stats(now);
                (info.spec.name, stats)
            })
            .collect()
    }

    /// Lists every known model entry (loading, ready, draining, recently
    /// retired), sorted by name.
    pub fn models(&self) -> Vec<ModelInfo> {
        self.registry.list()
    }

    /// Snapshots `(info, server stats)` for every ready model.
    pub fn model_stats(&self) -> Vec<(ModelInfo, ServerStats)> {
        self.registry
            .ready_models()
            .into_iter()
            .map(|(info, handle)| {
                let stats = handle.server().stats();
                (info, stats)
            })
            .collect()
    }

    /// Snapshots every known tenant.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        self.tenants.snapshot()
    }

    /// Fleet-wide end-to-end latency per priority class, as
    /// `(class name, summary)` in [`Priority::ALL`] order.
    pub fn class_latency(&self) -> [(&'static str, HistogramSummary); 3] {
        std::array::from_fn(|i| (Priority::ALL[i].name(), self.class_latency[i].summary()))
    }

    /// Unloads every model and waits for all drains: every admitted
    /// request is answered before this returns. Idempotent.
    pub fn shutdown(&self) {
        self.registry.shutdown();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A submitted fleet request: fab-serve's pending prediction plus the
/// tenant/class metric sinks. It holds no [`ModelHandle`] — an enqueued
/// request is answered by its server's drain even after the version is
/// swapped out, so the version needs pinning only during submission.
pub struct FleetPending {
    pending: fab_serve::PendingPrediction,
    counters: Arc<TenantCounters>,
    class_latency: Arc<LatencyHistogram>,
    submitted: Instant,
    /// Name of the model actually serving the request (the requested one
    /// unless degradation rerouted it).
    served_by: String,
    degraded: bool,
    /// Limiter slot to release on completion: the guard of the *serving*
    /// model, present only when adaptive admission took a slot.
    serving_guard: Option<Arc<ModelGuard>>,
    /// Feedback target for breaker/degrade signals: the guard of the
    /// *requested* model.
    primary_guard: Option<Arc<ModelGuard>>,
    slo_us: u64,
}

impl FleetPending {
    /// Name of the model actually serving this request.
    pub fn served_by(&self) -> &str {
        &self.served_by
    }

    /// Whether overload control rerouted this request to a cheaper
    /// precision than the one requested.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Blocks until the prediction (or its explicit error) arrives,
    /// recording the outcome in the tenant's and class's metrics and
    /// feeding it back into the overload controls: the serving model's
    /// limiter slot is released with the observed latency, and the
    /// requested model's breaker hears hard failures (forward panics,
    /// dead servers) while its degrade controller hears on-SLO
    /// completions as calm.
    ///
    /// # Errors
    ///
    /// The request's explicit [`ServeError`].
    pub fn wait(self) -> Result<Prediction, ServeError> {
        match self.pending.wait() {
            Ok(p) => {
                let us = self.submitted.elapsed().as_micros() as u64;
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                self.counters.latency.record(us);
                self.class_latency.record(us);
                if let Some(sg) = &self.serving_guard {
                    sg.limiter().release(us);
                }
                if let Some(pg) = &self.primary_guard {
                    let now = Instant::now();
                    pg.circuit_outcome(now, false);
                    // Calm = on-SLO completion while the primary's own
                    // limiter has headroom: recovery probes the primary's
                    // capacity, not the rung currently absorbing traffic.
                    let limiter = pg.limiter();
                    if us <= self.slo_us && limiter.inflight() < limiter.limit() {
                        pg.calm(now);
                    }
                }
                Ok(p)
            }
            Err(e) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                if let Some(sg) = &self.serving_guard {
                    sg.limiter().release_failure();
                }
                if let Some(pg) = &self.primary_guard {
                    let hard = matches!(e, ServeError::ModelPanicked | ServeError::ServerStopped);
                    pg.circuit_outcome(Instant::now(), hard);
                }
                Err(e)
            }
        }
    }
}
