//! The dynamic-batching server: a bounded MPSC request queue drained into
//! micro-batches by a supervised pool of std-thread workers.
//!
//! ```text
//!  clients ──submit──▶ bounded queue (admission control, per-request
//!                          │          deadlines; order set by the policy)
//!                          │  drain ≤ max_batch, wait ≤ max_wait_us,
//!                          │  shed expired requests before the forward pass
//!                          ▼
//!                micro-batch (a list of sequences of any length;
//!                nothing is padded — the session runs one forward
//!                per sequence, fanned out over the worker pool)
//!                          │
//!                          ▼
//!        worker pool ──▶ InferenceSession::logits_batch ──▶ responses
//!             ▲
//!        supervisor (respawns dead workers with exponential backoff)
//! ```
//!
//! The *order* requests leave the queue in belongs to a pluggable
//! [`BatchPolicy`] (see [`crate::policy`]): [`Server::start`] installs the
//! arrival-order [`FifoPolicy`], [`Server::start_with_policy`] accepts any
//! other discipline — e.g. fab-fleet's tenant-aware weighted-fair policy —
//! on top of the same worker pool, supervision, shedding, and drain
//! machinery. *When* a batch leaves is one rule for every policy, written
//! once in this module: at once during shutdown drain or when `max_batch`
//! requests are queued, otherwise when the oldest has waited `max_wait_us`.
//!
//! # Robustness guarantees
//!
//! - **No silent drops.** Every request accepted by [`ServerHandle::submit`]
//!   is answered: with a [`Prediction`], or with an explicit [`ServeError`]
//!   (deadline expired, forward pass panicked, server stopped). Graceful
//!   shutdown drains the queue — if every worker has died, [`Server::shutdown`]
//!   drains it inline on the calling thread.
//! - **Deadlines shed before compute.** A request whose deadline expires
//!   while queued is answered [`ServeError::DeadlineExceeded`] at batch
//!   formation, before any forward pass is spent on it.
//! - **Panic isolation.** A panicking batched forward fails no one else:
//!   the batch's requests are retried one by one, so only requests that
//!   panic in isolation get [`ServeError::ModelPanicked`].
//! - **Poison recovery.** Queue locks recover from mutex poisoning instead
//!   of cascading one producer's panic into every worker and caller.
//! - **Supervision.** A supervisor thread respawns dead worker threads with
//!   fresh scratch and exponential backoff (a hot-failing model cannot make
//!   the pool spin), counted in [`ServerStats::worker_restarts`].

use crate::metrics::{Metrics, ServerStats};
use crate::policy::{BatchPolicy, FifoPolicy, QueuedRequest, RequestQos};
use crate::session::{InferenceSession, SessionScratch};
use fab_chaos::ChaosSite;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering from poisoning: a panic in one lock holder
/// must not cascade-kill every other worker and caller. The queue state is
/// a set of independently-valid queues plus counters, so observing a
/// poisoned-but-consistent snapshot is always safe.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long a worker must stay alive for the supervisor to consider it
/// healthy and reset its restart backoff.
const HEALTHY_AFTER: Duration = Duration::from_secs(5);
/// Upper bound of the supervisor's exponential restart backoff.
const RESTART_BACKOFF_MAX: Duration = Duration::from_secs(1);
/// Supervisor poll interval for dead-worker detection.
const SUPERVISE_EVERY: Duration = Duration::from_millis(2);

/// Knobs of the dynamic micro-batcher.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest number of requests fused into one batch.
    pub max_batch: usize,
    /// Longest time the oldest queued request may wait for its batch to
    /// fill before being dispatched anyway, in microseconds.
    pub max_wait_us: u64,
    /// Admission-control bound: requests beyond this many queued are
    /// rejected with [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Number of worker threads (0 = one per available core, capped at 4).
    pub num_workers: usize,
    /// Initial supervisor backoff before respawning a dead worker, in
    /// milliseconds. Doubles on every consecutive death (capped at one
    /// second) and resets once a worker stays alive for a few seconds.
    pub restart_backoff_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            max_wait_us: 500,
            queue_capacity: 1024,
            num_workers: 0,
            restart_backoff_ms: 10,
        }
    }
}

impl ServeConfig {
    /// Validates the knobs and fills in the worker count.
    fn resolved(mut self) -> Self {
        assert!(self.max_batch >= 1, "max_batch must be at least 1");
        assert!(self.queue_capacity >= 1, "queue_capacity must be at least 1");
        assert!(self.restart_backoff_ms >= 1, "restart_backoff_ms must be at least 1");
        if self.num_workers == 0 {
            self.num_workers =
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4);
        }
        self
    }
}

/// Why the server could not take or finish a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control rejected the request: the queue is full.
    Overloaded {
        /// Queue depth at rejection time.
        depth: usize,
        /// Suggested wait before retrying, in milliseconds: the time
        /// *this* server (one per model profile) needs to drain its
        /// current queue at its recently-observed completion rate — a
        /// sliding window, not a lifetime average, so a pool that just
        /// slowed down or sped up hints accordingly and a saturated int8
        /// pool never inflates the hint of an idle f32 pool (clamped to
        /// `[10 ms, 5 s]`). Surfaces as the HTTP `Retry-After` hint and
        /// drives `fabctl`'s backoff.
        retry_after_ms: u64,
    },
    /// The request's deadline expired before a forward pass was spent on
    /// it; it was shed at submission or batch-formation time.
    DeadlineExceeded,
    /// The sequence is longer than the model's `max_seq`.
    SequenceTooLong {
        /// Length of the rejected sequence.
        len: usize,
        /// Largest acceptable length.
        max: usize,
    },
    /// The sequence is empty.
    EmptySequence,
    /// A token id is outside the model's vocabulary.
    InvalidToken {
        /// The offending token id.
        id: usize,
        /// Vocabulary size of the served model.
        vocab: usize,
    },
    /// The model forward pass panicked on this request even when it was
    /// retried in isolation (outside any batch).
    ModelPanicked,
    /// The server was shut down (or a worker failed) before this request
    /// could be served.
    ServerStopped,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth, retry_after_ms } => {
                write!(f, "queue full ({depth} requests pending); retry in {retry_after_ms}ms")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "deadline expired before the request was served")
            }
            ServeError::SequenceTooLong { len, max } => {
                write!(f, "sequence length {len} exceeds the model's max_seq {max}")
            }
            ServeError::EmptySequence => write!(f, "cannot serve an empty sequence"),
            ServeError::InvalidToken { id, vocab } => {
                write!(f, "token id {id} outside the model vocabulary of {vocab}")
            }
            ServeError::ModelPanicked => {
                write!(f, "model forward pass panicked while serving the request")
            }
            ServeError::ServerStopped => {
                write!(f, "server shut down or failed before serving the request")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A completed prediction with its per-request serving metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Class logits.
    pub logits: Vec<f32>,
    /// Argmax class.
    pub class: usize,
    /// Time spent queued before batch formation, in microseconds.
    pub queue_wait_us: u64,
    /// Model time of the batch this request rode in, in microseconds.
    pub service_us: u64,
    /// Number of requests in that batch.
    pub batch_size: usize,
}

/// Mutex-guarded queue state (the MPSC channel core): the batch policy
/// owning the queued requests, plus the shutdown latch.
struct PolicyState {
    policy: Box<dyn BatchPolicy>,
    /// Set once by [`Server::shutdown`]; workers drain and exit.
    shutdown: bool,
}

/// Supervisor bookkeeping for one worker thread slot.
struct WorkerSlot {
    handle: Option<std::thread::JoinHandle<()>>,
    /// Times this slot's worker died and was respawned.
    restarts: u64,
    /// Backoff before the next respawn of this slot.
    backoff: Duration,
    /// Dead slot: earliest instant the supervisor may respawn it.
    respawn_at: Option<Instant>,
    /// When the current worker was spawned (backoff resets after a healthy
    /// lifetime).
    spawned_at: Instant,
}

struct Shared {
    state: Mutex<PolicyState>,
    work: Condvar,
    config: ServeConfig,
    session: Arc<InferenceSession>,
    metrics: Metrics,
    /// Worker-thread registry, owned jointly by the supervisor (respawn)
    /// and shutdown (join).
    workers: Mutex<Vec<WorkerSlot>>,
}

/// The dynamic-batching inference server.
///
/// Start one with [`Server::start`], hand [`ServerHandle`]s (cheap clones)
/// to client threads, and read aggregate [`ServerStats`] at any time.
/// Dropping the server shuts it down gracefully: queued requests are
/// drained, then the workers exit.
pub struct Server {
    shared: Arc<Shared>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns the worker pool (plus its supervisor thread) and returns the
    /// running server.
    ///
    /// # Panics
    ///
    /// Panics when `config` is invalid (zero `max_batch` /
    /// `queue_capacity` / `restart_backoff_ms`).
    pub fn start(session: InferenceSession, config: ServeConfig) -> Self {
        Self::start_with_policy(session, config, Box::new(FifoPolicy::default()))
    }

    /// Like [`Server::start`], but with a caller-supplied [`BatchPolicy`]
    /// ordering the queue instead of arrival order.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Server::start`].
    pub fn start_with_policy(
        session: InferenceSession,
        config: ServeConfig,
        policy: Box<dyn BatchPolicy>,
    ) -> Self {
        let config = config.resolved();
        let shared = Arc::new(Shared {
            state: Mutex::new(PolicyState { policy, shutdown: false }),
            work: Condvar::new(),
            config: config.clone(),
            session: Arc::new(session),
            metrics: Metrics::new(),
            workers: Mutex::new(Vec::new()),
        });
        {
            let mut slots = lock_recover(&shared.workers);
            for i in 0..config.num_workers {
                slots.push(WorkerSlot {
                    handle: Some(spawn_worker(&shared, i)),
                    restarts: 0,
                    backoff: Duration::from_millis(config.restart_backoff_ms),
                    respawn_at: None,
                    spawned_at: Instant::now(),
                });
            }
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fab-serve-supervisor".to_string())
                .spawn(move || supervisor_loop(&shared))
                .expect("spawn serve supervisor")
        };
        Self { shared, supervisor: Some(supervisor) }
    }

    /// Returns a cloneable handle clients use to submit requests.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// The resolved configuration (defaults filled in).
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Snapshots the aggregate serving metrics.
    pub fn stats(&self) -> ServerStats {
        self.handle().stats()
    }

    /// Drains the queue, stops the workers and waits for them to exit.
    /// Requests submitted after this call are rejected with
    /// [`ServeError::ServerStopped`]; requests admitted before it are all
    /// answered (with a prediction or an explicit error) — if every worker
    /// died, the remaining queue is drained inline on this thread.
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn begin_shutdown(&self) {
        lock_recover(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
    }

    /// Idempotent shutdown core shared by [`Server::shutdown`] and `Drop`.
    fn finish(&mut self) {
        self.begin_shutdown();
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        let handles: Vec<_> = {
            let mut slots = lock_recover(&self.shared.workers);
            slots.iter_mut().filter_map(|s| s.handle.take()).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        // Every live worker drains the queue before exiting; this inline
        // drain only runs work when all workers died (e.g. fault injection
        // mid-shutdown) so admitted requests are still never dropped.
        while let Some(batch) = next_batch(&self.shared) {
            run_batch(&self.shared, batch);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.finish();
    }
}

/// A cheap, cloneable, `Send` handle for submitting inference requests.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Enqueues a request without blocking for its completion.
    ///
    /// Admission control applies immediately: a full queue rejects with
    /// [`ServeError::Overloaded`] rather than blocking the producer —
    /// backpressure surfaces at the edge instead of growing the queue
    /// without bound.
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptySequence`], [`ServeError::SequenceTooLong`],
    /// [`ServeError::Overloaded`], or [`ServeError::ServerStopped`].
    pub fn submit(&self, tokens: Vec<usize>) -> Result<PendingPrediction, ServeError> {
        self.submit_with_deadline(tokens, None)
    }

    /// Enqueues a request that must start being served within `deadline`.
    ///
    /// The deadline travels with the request through the queue: once it
    /// expires, the request is shed at batch-formation time — before any
    /// forward pass is spent on it — and answered
    /// [`ServeError::DeadlineExceeded`] (counted in
    /// [`ServerStats::shed_expired`]). A zero deadline is shed immediately.
    ///
    /// # Errors
    ///
    /// Same as [`ServerHandle::submit`], plus an immediate
    /// [`ServeError::DeadlineExceeded`] for a zero `deadline`.
    pub fn submit_with_deadline(
        &self,
        tokens: Vec<usize>,
        deadline: Option<Duration>,
    ) -> Result<PendingPrediction, ServeError> {
        self.submit_with_qos(tokens, deadline, RequestQos::default())
    }

    /// Enqueues a request carrying explicit QoS labels (tenant and
    /// priority class), which QoS-aware batch policies (fab-fleet's
    /// weighted-fair scheduler) use for ordering; the default
    /// [`FifoPolicy`] ignores them.
    ///
    /// # Errors
    ///
    /// Same as [`ServerHandle::submit_with_deadline`].
    pub fn submit_with_qos(
        &self,
        tokens: Vec<usize>,
        deadline: Option<Duration>,
        qos: RequestQos,
    ) -> Result<PendingPrediction, ServeError> {
        if tokens.is_empty() {
            return Err(ServeError::EmptySequence);
        }
        let max = self.shared.session.max_seq();
        if tokens.len() > max {
            return Err(ServeError::SequenceTooLong { len: tokens.len(), max });
        }
        let vocab = self.shared.session.vocab_size();
        if let Some(&id) = tokens.iter().find(|&&id| id >= vocab) {
            return Err(ServeError::InvalidToken { id, vocab });
        }
        if deadline.is_some_and(|d| d.is_zero()) {
            self.shared.metrics.shed_expired.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::DeadlineExceeded);
        }
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        {
            let mut st = lock_recover(&self.shared.state);
            if st.shutdown {
                return Err(ServeError::ServerStopped);
            }
            let depth = st.policy.depth();
            if depth >= self.shared.config.queue_capacity {
                self.shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    depth,
                    retry_after_ms: self.shared.metrics.retry_after_ms(depth),
                });
            }
            let req = QueuedRequest {
                tokens,
                enqueued: now,
                deadline: deadline.map(|d| now + d),
                qos,
                resp: tx,
            };
            if st.policy.admit(req).is_err() {
                // Policy-internal bound (e.g. a per-tenant queue cap).
                self.shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    depth,
                    retry_after_ms: self.shared.metrics.retry_after_ms(depth),
                });
            }
            self.shared.metrics.submitted.fetch_add(1, Ordering::Relaxed);
            self.shared
                .metrics
                .peak_queue_depth
                .fetch_max(st.policy.depth() as u64, Ordering::Relaxed);
        }
        self.shared.work.notify_all();
        Ok(PendingPrediction { rx })
    }

    /// Submits a request and blocks until its prediction arrives.
    ///
    /// # Errors
    ///
    /// Same as [`ServerHandle::submit`], plus [`ServeError::ServerStopped`]
    /// when the server shuts down before responding.
    pub fn infer(&self, tokens: Vec<usize>) -> Result<Prediction, ServeError> {
        self.submit(tokens)?.wait()
    }

    /// The session this server's workers run.
    pub fn session(&self) -> &InferenceSession {
        &self.shared.session
    }

    /// Snapshots the aggregate serving metrics.
    pub fn stats(&self) -> ServerStats {
        let depth = lock_recover(&self.shared.state).policy.depth();
        self.shared.metrics.snapshot(
            depth,
            self.shared.config.num_workers,
            self.shared.session.kind().name(),
        )
    }
}

/// A submitted request whose prediction has not arrived yet.
pub struct PendingPrediction {
    rx: mpsc::Receiver<Result<Prediction, ServeError>>,
}

impl PendingPrediction {
    /// Blocks until the prediction (or its explicit error) arrives.
    ///
    /// # Errors
    ///
    /// The request's explicit failure ([`ServeError::DeadlineExceeded`],
    /// [`ServeError::ModelPanicked`], [`ServeError::ServerStopped`]), or
    /// [`ServeError::ServerStopped`] when the server dropped the request's
    /// response channel without answering.
    pub fn wait(self) -> Result<Prediction, ServeError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServeError::ServerStopped),
        }
    }

    /// Like [`PendingPrediction::wait`], but gives up after `timeout`
    /// (returning `None`; the request stays in flight server-side).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Prediction, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::ServerStopped)),
        }
    }
}

/// The worker loop: form a batch (blocking on the condvar while the queue
/// is empty or the head batch is still filling), run the session, respond.
fn worker_loop(shared: &Shared) {
    loop {
        if chaos_kills(shared) {
            return; // fault injection: this worker "dies" without cleanup
        }
        match next_batch(shared) {
            Some(batch) => run_batch(shared, batch),
            None => return,
        }
    }
}

/// Draws the session's `worker_exit` chaos site: `true` means this worker
/// must exit now. The supervisor detects the death and respawns the slot
/// after its backoff, counted in [`ServerStats::worker_restarts`].
fn chaos_kills(shared: &Shared) -> bool {
    shared.session.chaos().is_some_and(|chaos| chaos.fires(ChaosSite::WorkerExit))
}

/// The batch-timing rule, the same for every policy: how long a worker
/// should still sleep before taking the next batch off `policy`. `None`
/// means the queue is empty; zero means dispatch now — on `rush` (shutdown
/// drain), when a full `max_batch` is queued, or once the oldest request
/// has waited `max_wait`. An idle server therefore adds at most `max_wait`
/// of batching delay and a saturated one runs full batches back to back.
pub(crate) fn dispatch_delay(
    policy: &dyn BatchPolicy,
    max_batch: usize,
    max_wait: Duration,
    now: Instant,
    rush: bool,
) -> Option<Duration> {
    let oldest = policy.oldest()?;
    if rush || policy.depth() >= max_batch {
        return Some(Duration::ZERO);
    }
    Some((oldest + max_wait).saturating_duration_since(now))
}

/// Blocks until a batch is ready (returning it, oldest-first as the policy
/// orders it) or shutdown completes with an empty queue (returning `None`).
/// Requests whose deadline expired while queued are shed here — answered
/// [`ServeError::DeadlineExceeded`] without a forward pass.
fn next_batch(shared: &Shared) -> Option<Vec<QueuedRequest>> {
    let max_batch = shared.config.max_batch;
    let max_wait = Duration::from_micros(shared.config.max_wait_us);
    let mut st = lock_recover(&shared.state);
    loop {
        // Draw a kill each time this worker wakes on the condvar — but never
        // during shutdown, when this loop is also the inline drain of last
        // resort and must answer every remaining request.
        if !st.shutdown && chaos_kills(shared) {
            return None;
        }
        let now = Instant::now();
        match dispatch_delay(st.policy.as_ref(), max_batch, max_wait, now, st.shutdown) {
            Some(Duration::ZERO) => {
                let take = st.policy.depth().min(max_batch);
                let mut live = Vec::with_capacity(take);
                for _ in 0..take {
                    let Some(req) = st.policy.pop() else { break };
                    if req.expired(now) {
                        shed_expired(shared, req);
                    } else {
                        live.push(req);
                    }
                }
                if !live.is_empty() {
                    return Some(live);
                }
                // Everything popped had expired; look for more work.
            }
            Some(delay) => {
                let (guard, _) =
                    shared.work.wait_timeout(st, delay).unwrap_or_else(PoisonError::into_inner);
                st = guard;
            }
            None => {
                if st.shutdown {
                    return None;
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Answers one expired request with [`ServeError::DeadlineExceeded`].
fn shed_expired(shared: &Shared, req: QueuedRequest) {
    shared.metrics.shed_expired.fetch_add(1, Ordering::Relaxed);
    let _ = req.resp.send(Err(ServeError::DeadlineExceeded));
}

/// Runs one drained batch through the session and fulfils its requests.
///
/// A panicking batched forward pass fails no other request in the batch:
/// the panic is counted in [`ServerStats::batch_panics`] and every request
/// is retried in isolation — requests that panic even alone are answered
/// [`ServeError::ModelPanicked`] (counted in [`ServerStats::failed`]), the
/// rest get their predictions, and the worker stays alive for the next
/// batch either way.
fn run_batch(shared: &Shared, batch: Vec<QueuedRequest>) {
    let t0 = Instant::now();
    let refs: Vec<&[usize]> = batch.iter().map(|r| r.tokens.as_slice()).collect();
    let forward = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.session.logits_batch(&refs, shared.session.max_seq(), &mut SessionScratch::new())
    }));
    drop(refs);
    let logits = match forward {
        Ok(logits) => logits,
        Err(_) => {
            shared.metrics.batch_panics.fetch_add(1, Ordering::Relaxed);
            run_batch_isolated(shared, batch);
            return;
        }
    };
    let service_us = t0.elapsed().as_micros() as u64;
    let n = batch.len();
    let m = &shared.metrics;
    m.batches.fetch_add(1, Ordering::Relaxed);
    m.batched_examples.fetch_add(n as u64, Ordering::Relaxed);
    m.max_batch_observed.fetch_max(n as u64, Ordering::Relaxed);
    m.service.record(service_us);
    for (req, lg) in batch.into_iter().zip(logits) {
        let queue_wait_us = t0.duration_since(req.enqueued).as_micros() as u64;
        m.queue_wait.record(queue_wait_us);
        m.latency.record(req.enqueued.elapsed().as_micros() as u64);
        m.completed.fetch_add(1, Ordering::Relaxed);
        let class = fab_nn::argmax(&lg);
        // The client may have dropped its receiver; that is not an error.
        let _ = req.resp.send(Ok(Prediction {
            logits: lg,
            class,
            queue_wait_us,
            service_us,
            batch_size: n,
        }));
    }
}

/// Fallback after a batched forward pass panicked: serve each request of
/// the batch alone, so one poisonous input cannot take down its batchmates.
fn run_batch_isolated(shared: &Shared, batch: Vec<QueuedRequest>) {
    let m = &shared.metrics;
    for req in batch {
        let t0 = Instant::now();
        let forward = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.session.logits(&req.tokens)
        }));
        match forward {
            Ok(lg) => {
                let service_us = t0.elapsed().as_micros() as u64;
                let queue_wait_us = t0.duration_since(req.enqueued).as_micros() as u64;
                m.queue_wait.record(queue_wait_us);
                m.latency.record(req.enqueued.elapsed().as_micros() as u64);
                m.service.record(service_us);
                m.batches.fetch_add(1, Ordering::Relaxed);
                m.batched_examples.fetch_add(1, Ordering::Relaxed);
                m.completed.fetch_add(1, Ordering::Relaxed);
                let class = fab_nn::argmax(&lg);
                let _ = req.resp.send(Ok(Prediction {
                    logits: lg,
                    class,
                    queue_wait_us,
                    service_us,
                    batch_size: 1,
                }));
            }
            Err(_) => {
                m.failed.fetch_add(1, Ordering::Relaxed);
                let _ = req.resp.send(Err(ServeError::ModelPanicked));
            }
        }
    }
}

/// Spawns the worker thread for registry slot `i`.
fn spawn_worker(shared: &Arc<Shared>, i: usize) -> std::thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("fab-serve-{i}"))
        .spawn(move || worker_loop(&shared))
        .expect("spawn serve worker")
}

/// The supervisor loop: detect dead worker threads (panicked beyond batch
/// isolation, or killed by fault injection), join them, and respawn the
/// slot after an exponential backoff so a hot-failing model cannot spin
/// the pool. Exits on shutdown — [`Server::finish`] then joins the
/// remaining workers and drains the queue inline if none survived.
fn supervisor_loop(shared: &Arc<Shared>) {
    loop {
        if lock_recover(&shared.state).shutdown {
            return;
        }
        std::thread::sleep(SUPERVISE_EVERY);
        let now = Instant::now();
        let mut slots = lock_recover(&shared.workers);
        for i in 0..slots.len() {
            let slot = &mut slots[i];
            if slot.handle.as_ref().is_some_and(|h| h.is_finished()) {
                let _ = slot.handle.take().expect("checked above").join();
                if lock_recover(&shared.state).shutdown {
                    continue; // normal exit during drain, not a death
                }
                shared.metrics.worker_restarts.fetch_add(1, Ordering::Relaxed);
                slot.restarts += 1;
                if now.duration_since(slot.spawned_at) >= HEALTHY_AFTER {
                    slot.backoff = Duration::from_millis(shared.config.restart_backoff_ms);
                }
                slot.respawn_at = Some(now + slot.backoff);
                slot.backoff = (slot.backoff * 2).min(RESTART_BACKOFF_MAX);
            }
            if slot.handle.is_none() && slot.respawn_at.is_some_and(|at| now >= at) {
                slot.handle = Some(spawn_worker(shared, i));
                slot.respawn_at = None;
                slot.spawned_at = Instant::now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_chaos::ChaosInjector;
    use fab_nn::{Model, ModelConfig, ModelKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An exact (bit-identical to the tape path) session, so tests can
    /// compare served logits with `Model::predict` by equality.
    fn tiny_session() -> (Model, InferenceSession) {
        let mut rng = StdRng::seed_from_u64(5);
        let model = Model::new(&ModelConfig::tiny_for_tests(), ModelKind::FabNet, &mut rng);
        let session = InferenceSession::exact(&model);
        (model, session)
    }

    /// [`tiny_session`] with a chaos schedule attached, every site off.
    fn chaos_session() -> (Model, InferenceSession, Arc<ChaosInjector>) {
        let (model, session) = tiny_session();
        let chaos = Arc::new(ChaosInjector::new(11));
        (model, session.with_chaos(Arc::clone(&chaos)), chaos)
    }

    #[test]
    fn served_logits_match_direct_predict() {
        let (model, session) = tiny_session();
        let server = Server::start(session, ServeConfig::default());
        let handle = server.handle();
        let tokens = vec![1usize, 2, 3, 4, 5];
        let p = handle.infer(tokens.clone()).expect("request served");
        assert_eq!(p.logits, model.predict(&tokens));
        assert_eq!(p.class, model.predict_class(&tokens));
        assert!(p.batch_size >= 1);
        server.shutdown();
    }

    #[test]
    fn quantized_session_serves_through_the_batcher() {
        use fab_quant::{quantize_frozen, CalibrationConfig};
        let mut rng = StdRng::seed_from_u64(21);
        let config = ModelConfig::tiny_for_tests();
        let model = Model::new(&config, ModelKind::Transformer, &mut rng);
        let frozen = model.freeze().with_fast_math(true);
        let calib: Vec<Vec<usize>> = (0..6)
            .map(|i| (0..8).map(|j| (i * 7 + j * 3 + 1) % config.vocab_size).collect())
            .collect();
        let quant = quantize_frozen(&frozen, &calib, &CalibrationConfig::default());
        let session = InferenceSession::from_frozen(quant.clone());
        let server = Server::start(session, ServeConfig::default());
        let handle = server.handle();
        let tokens = vec![1usize, 2, 3, 4, 5];
        let p = handle.infer(tokens.clone()).expect("request served");
        // Served logits are bit-identical to the direct quantized forward
        // (batch invariance), and the stats report the int8 path.
        assert_eq!(p.logits, quant.logits(&tokens));
        assert_eq!(p.class, quant.predict_class(&tokens));
        let stats = server.stats();
        assert_eq!(stats.session_kind, "int8");
        assert_eq!(stats.completed, 1);
        server.shutdown();
    }

    #[test]
    fn f32_sessions_report_their_kind_in_stats() {
        let (_model, session) = tiny_session();
        let server = Server::start(session, ServeConfig::default());
        assert_eq!(server.stats().session_kind, "exact");
        server.shutdown();
    }

    #[test]
    fn invalid_requests_are_rejected_up_front() {
        let (_model, session) = tiny_session();
        let max_seq = session.max_seq();
        let server = Server::start(session, ServeConfig::default());
        let handle = server.handle();
        assert_eq!(handle.infer(vec![]), Err(ServeError::EmptySequence));
        assert_eq!(
            handle.infer(vec![0; max_seq + 1]),
            Err(ServeError::SequenceTooLong { len: max_seq + 1, max: max_seq })
        );
        let vocab = server.shared.session.vocab_size();
        assert_eq!(
            handle.infer(vec![0, vocab + 3]),
            Err(ServeError::InvalidToken { id: vocab + 3, vocab })
        );
        assert_eq!(server.stats().completed, 0);
    }

    #[test]
    fn requests_coalesce_into_batches() {
        let (_model, session) = tiny_session();
        let config = ServeConfig {
            max_batch: 8,
            max_wait_us: 200_000,
            num_workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(session, config);
        let handle = server.handle();
        let pending: Vec<_> =
            (0..8).map(|i| handle.submit(vec![1, 2, 3, (i % 4) + 1]).unwrap()).collect();
        let sizes: Vec<usize> = pending.into_iter().map(|p| p.wait().unwrap().batch_size).collect();
        // The batch dispatches as soon as it is full, well before the 200ms
        // deadline, so at least the last-served requests rode a
        // multi-request batch.
        assert!(*sizes.iter().max().unwrap() > 1, "no batching happened: {sizes:?}");
        let stats = server.stats();
        assert_eq!(stats.completed, 8);
        assert!(stats.mean_batch_occupancy > 1.0);
        server.shutdown();
    }

    #[test]
    fn admission_control_rejects_when_full_with_retry_hint() {
        let (_model, session) = tiny_session();
        // One worker stuck behind a long max_wait with a tiny queue.
        let config = ServeConfig {
            max_batch: 16,
            max_wait_us: 300_000,
            queue_capacity: 2,
            num_workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(session, config);
        let handle = server.handle();
        let mut pending = Vec::new();
        let mut rejected = 0;
        for _ in 0..6 {
            match handle.submit(vec![1, 2, 3]) {
                Ok(p) => pending.push(p),
                Err(ServeError::Overloaded { retry_after_ms, .. }) => {
                    rejected += 1;
                    assert!(
                        (10..=5000).contains(&retry_after_ms),
                        "retry hint {retry_after_ms}ms outside its clamp"
                    );
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(rejected > 0, "expected admission control to kick in");
        for p in pending {
            p.wait().unwrap();
        }
        assert_eq!(server.stats().rejected, rejected);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let (_model, session) = tiny_session();
        let config = ServeConfig { max_wait_us: 100_000, num_workers: 1, ..ServeConfig::default() };
        let server = Server::start(session, config);
        let handle = server.handle();
        let pending: Vec<_> = (0..5).map(|_| handle.submit(vec![2, 3, 4]).unwrap()).collect();
        server.shutdown();
        for p in pending {
            p.wait().expect("queued request served during graceful shutdown");
        }
        assert_eq!(handle.infer(vec![1, 2]), Err(ServeError::ServerStopped));
    }

    #[test]
    fn mixed_lengths_share_one_batch() {
        let (model, session) = tiny_session();
        // Only a full batch can dispatch before the 10 s wait: both
        // requests answering at all means they rode together.
        let config = ServeConfig {
            max_batch: 2,
            max_wait_us: 10_000_000,
            num_workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(session, config);
        let handle = server.handle();
        let short = handle.submit(vec![1; 3]).unwrap();
        let long = handle.submit(vec![1; 16]).unwrap();
        let (short, long) = (short.wait().unwrap(), long.wait().unwrap());
        assert_eq!((short.batch_size, long.batch_size), (2, 2));
        assert_eq!(short.logits, model.predict(&[1; 3]));
        assert_eq!(long.logits, model.predict(&[1; 16]));
        server.shutdown();
    }

    #[test]
    fn zero_deadline_is_shed_at_submission() {
        let (_model, session) = tiny_session();
        let server = Server::start(session, ServeConfig::default());
        let handle = server.handle();
        assert_eq!(
            handle
                .submit_with_deadline(vec![1, 2, 3], Some(Duration::ZERO))
                .map(|_| ())
                .unwrap_err(),
            ServeError::DeadlineExceeded
        );
        assert_eq!(server.stats().shed_expired, 1);
        assert_eq!(server.stats().completed, 0);
        server.shutdown();
    }

    #[test]
    fn expired_deadlines_are_shed_before_the_forward_pass() {
        let (_model, session) = tiny_session();
        // One worker parked on a long batching wait, so queued requests
        // expire before the batch forms.
        let config = ServeConfig {
            max_batch: 16,
            max_wait_us: 150_000,
            num_workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(session, config);
        let handle = server.handle();
        let doomed: Vec<_> = (0..3)
            .map(|_| {
                handle
                    .submit_with_deadline(vec![1, 2, 3], Some(Duration::from_millis(1)))
                    .expect("admitted")
            })
            .collect();
        let alive = handle.submit(vec![4, 5, 6]).expect("admitted");
        for p in doomed {
            assert_eq!(p.wait(), Err(ServeError::DeadlineExceeded));
        }
        alive.wait().expect("undeadlined request survives");
        let stats = server.stats();
        assert_eq!(stats.shed_expired, 3);
        assert_eq!(stats.completed, 1);
        server.shutdown();
    }

    #[test]
    fn killed_workers_are_respawned_by_the_supervisor() {
        let (model, session, chaos) = chaos_session();
        let config = ServeConfig {
            num_workers: 1,
            restart_backoff_ms: 1,
            max_wait_us: 100,
            ..ServeConfig::default()
        };
        let server = Server::start(session, config);
        let handle = server.handle();
        handle.infer(vec![1, 2, 3]).expect("pre-kill request served");
        // The next request wakes the (sole) worker, which draws the armed
        // site and dies; disarm once it fired so the respawn survives.
        chaos.configure(ChaosSite::WorkerExit, 1, 0);
        let stranded = handle.submit(vec![2, 3, 4]).expect("admitted");
        let deadline = Instant::now() + Duration::from_secs(10);
        while chaos.injected(ChaosSite::WorkerExit) == 0 {
            assert!(Instant::now() < deadline, "worker_exit never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        chaos.configure(ChaosSite::WorkerExit, 0, 0);
        // The supervisor must respawn the worker, which then answers the
        // request the dead one left queued. Allow generous time for backoff.
        let served = stranded
            .wait_timeout(Duration::from_secs(10))
            .expect("supervisor never respawned the worker")
            .expect("respawned worker serves");
        assert_eq!(served.logits, model.predict(&[2, 3, 4]));
        handle.infer(vec![1, 2, 3]).expect("the respawned worker keeps serving");
        assert!(server.stats().worker_restarts >= 1, "restart not counted");
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_inline_when_every_worker_died() {
        let (model, session, chaos) = chaos_session();
        // Armed before start: each worker draws at the top of its loop and
        // dies before taking any work.
        chaos.configure(ChaosSite::WorkerExit, 1, 0);
        let config = ServeConfig {
            num_workers: 2,
            max_wait_us: 500_000,
            // Keep dead workers down across the whole test: backoff starts
            // beyond the test's lifetime, so only the inline drain can
            // answer the queued requests.
            restart_backoff_ms: 60_000,
            ..ServeConfig::default()
        };
        let server = Server::start(session, config);
        let handle = server.handle();
        let deadline = Instant::now() + Duration::from_secs(10);
        while chaos.injected(ChaosSite::WorkerExit) < 2 {
            assert!(Instant::now() < deadline, "not every worker died");
            std::thread::sleep(Duration::from_millis(1));
        }
        let pending: Vec<_> = (0..4).map(|_| handle.submit(vec![1, 2, 3]).unwrap()).collect();
        server.shutdown();
        for p in pending {
            let served = p.wait().expect("inline drain answers queued requests");
            assert_eq!(served.logits, model.predict(&[1, 2, 3]));
        }
    }

    #[test]
    fn poisoned_queue_lock_recovers_instead_of_cascading() {
        let (model, session) = tiny_session();
        let server = Server::start(session, ServeConfig::default());
        let handle = server.handle();
        // Poison the queue mutex: a panicking producer mid-critical-section.
        let shared = Arc::clone(&server.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.state.lock().unwrap();
            panic!("poison the serve queue");
        })
        .join();
        assert!(server.shared.state.is_poisoned(), "test failed to poison the lock");
        // Every path that takes the lock must keep working.
        let p = handle.infer(vec![1, 2, 3]).expect("request served on a poisoned lock");
        assert_eq!(p.logits, model.predict(&[1, 2, 3]));
        assert!(server.stats().completed >= 1);
        server.shutdown();
    }

    #[test]
    fn panicking_batch_spares_its_batchmates() {
        let (model, session, chaos) = chaos_session();
        let marker = 7usize;
        chaos.configure(ChaosSite::PoisonToken, 1, marker as u64);
        let config = ServeConfig {
            max_batch: 8,
            max_wait_us: 100_000,
            num_workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(session, config);
        let handle = server.handle();
        // One poisonous request plus healthy batchmates, all in one batch.
        let victims: Vec<_> = (0..4).map(|_| handle.submit(vec![1, 2, 3]).unwrap()).collect();
        let poisonous = handle.submit(vec![1, marker, 3]).unwrap();
        let mut batch_fill: Vec<_> =
            (0..3).map(|_| handle.submit(vec![1, 2, 3]).unwrap()).collect();
        // Healthy batchmates still get answers (served in isolation).
        for p in victims.into_iter().chain(batch_fill.drain(..)) {
            let served = p.wait().expect("batchmates survive the panic");
            assert_eq!(served.logits, model.predict(&[1, 2, 3]));
        }
        // The poisonous request gets an explicit error, not a hang.
        assert_eq!(poisonous.wait(), Err(ServeError::ModelPanicked));
        let stats = server.stats();
        assert!(stats.batch_panics >= 1, "panic not counted: {stats}");
        assert_eq!(stats.failed, 1);
        // Only the poisoned sequence drew: once batched, once alone.
        assert_eq!(chaos.injected(ChaosSite::PoisonToken), stats.batch_panics + 1);
        // The worker survived: a fresh request is served.
        handle.infer(vec![4, 5, 6]).expect("worker keeps serving after the panic");
        server.shutdown();
    }
}
