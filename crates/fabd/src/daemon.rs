//! The serving daemon: a `TcpListener` accept loop in front of a
//! [`fab_fleet::Fleet`] of supervised model servers.
//!
//! Robustness layers, outermost first:
//!
//! 1. **Connection admission** — at most `max_connections` concurrent
//!    connections; excess ones are answered `503` and closed immediately so
//!    an accept flood cannot exhaust threads.
//! 2. **Socket timeouts** — every connection carries read/write timeouts; a
//!    slow-loris peer is cut off with `408` when the read timeout fires
//!    mid-request; an idle keep-alive connection is closed without one.
//! 3. **Tenant quotas** — requests are charged against their tenant's
//!    token bucket (`X-Tenant` header or body field); an empty bucket
//!    answers `429` with a hint from the tenant's own refill rate.
//! 4. **Queue admission** — per-model bounded queues answer `429` with a
//!    `Retry-After` hint derived from that model's depth and observed
//!    drain rate.
//! 5. **Deadlines** — `deadline_ms` (body field or `X-Deadline-Ms` header)
//!    sheds requests *before* a forward pass is spent on them; expired
//!    requests get `504`.
//! 6. **Supervision** — dead inference workers are respawned with fresh
//!    scratch by the per-server supervisor; a panicking forward pass is
//!    retried per-request so batchmates of a poison input still get answers.
//! 7. **Graceful drain** — [`Daemon::initiate_drain`] flips `/readyz` to
//!    `503`, stops accepting, lets in-flight connections finish, then drains
//!    every queued request to completion. Zero accepted requests dropped.
//!
//! Inside the fleet, each model's server dequeues by priority class
//! (`X-Priority`: interactive / batch / background) with weighted-fair
//! shares across tenants, and `POST /admin/models` hot-loads, reloads, or
//! unloads named models without dropping in-flight requests.

use crate::config::{DaemonConfig, ProfileConfig, TrainingKey};
use crate::http::{read_request, write_response, Request, Response};
use crate::json::Json;
use crate::stats::{self, ModelRow, Snapshot};
use fab_chaos::{ChaosInjector, ChaosSite};
use fab_fleet::{Fleet, FleetError, ModelInfo, ModelSource, ModelState};
use fab_nn::FrozenModel;
use fab_serve::{InferenceSession, Prediction, Priority, ServeError, ServerStats};
use fab_store::{ModelArtifact, Store, FINGERPRINT_KEY};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How often `join` re-checks the in-flight request count while draining,
/// and how long the accept loop backs off after a failed `accept` (fd
/// exhaustion, an aborted handshake) so a persistent error cannot spin it.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Daemon-level counters (the per-model ones live in [`ServerStats`]).
#[derive(Default)]
struct HttpCounters {
    connections_total: AtomicU64,
    connections_rejected: AtomicU64,
    requests_total: AtomicU64,
    /// Responses by status class: 2xx, 4xx, everything else.
    responses: [AtomicU64; 3],
    read_errors: AtomicU64,
}

impl HttpCounters {
    fn count_status(&self, status: u16) {
        let class = match status {
            200..=299 => 0,
            400..=499 => 1,
            _ => 2,
        };
        self.responses[class].fetch_add(1, Ordering::Relaxed);
    }
}

struct DaemonShared {
    config: DaemonConfig,
    fleet: Fleet,
    /// Profile definitions by name; `/admin/models` reload re-trains from
    /// here, and load/unload keep it in sync.
    profiles: Mutex<HashMap<String, ProfileConfig>>,
    /// Routing target for requests that name no model (the first
    /// configured profile).
    default_model: String,
    /// Snapshot store; `None` runs the daemon without persistence
    /// (every boot trains from scratch, exactly as before fab-store).
    store: Option<Store>,
    /// Flips true once every configured profile is committed; `/readyz`
    /// answers `503 loading` until then so orchestrators never route to a
    /// daemon that would 404 half its models.
    ready: AtomicBool,
    /// Wall-clock seconds from boot to all profiles ready, stored as f64
    /// bits (written once by the boot thread, read by `/metrics`).
    warm_start_seconds: AtomicU64,
    /// Last persisted snapshot version per model name.
    snapshot_versions: Mutex<HashMap<String, u64>>,
    /// The storable artifact behind each loaded model, kept so
    /// `POST /admin/snapshot` can re-persist without retraining.
    artifacts: Mutex<HashMap<String, ModelArtifact>>,
    /// The deterministic fault injector. Always present but inert unless
    /// sites are armed — via config (requires `fault_injection`) or
    /// `POST /admin/chaos` (403 without `fault_injection`).
    chaos: Arc<ChaosInjector>,
    /// The bound listener address; a drain connects to it once to wake the
    /// accept thread out of its blocking `accept`.
    addr: SocketAddr,
    draining: AtomicBool,
    open_connections: AtomicUsize,
    /// Requests currently between "fully read" and "response written". The
    /// drain waits on this, not on `open_connections`: an idle keep-alive
    /// connection (a client holding its socket between requests) must not
    /// stall shutdown for a full read-timeout.
    active_requests: AtomicUsize,
    counters: HttpCounters,
    started: Instant,
}

/// Decrements the open-connection gauge when a connection thread exits,
/// panic or not.
struct ConnectionGuard(Arc<DaemonShared>);

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.open_connections.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Marks one request in flight for the drain logic, panic-safe.
struct RequestGuard<'a>(&'a DaemonShared);

impl RequestGuard<'_> {
    fn new(shared: &DaemonShared) -> RequestGuard<'_> {
        shared.active_requests.fetch_add(1, Ordering::AcqRel);
        RequestGuard(shared)
    }
}

impl Drop for RequestGuard<'_> {
    fn drop(&mut self) {
        self.0.active_requests.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running serving daemon. Dropping it without [`Daemon::shutdown`] leaks
/// the accept thread until process exit; call `shutdown` (or
/// `initiate_drain` + `join`) for a clean stop.
pub struct Daemon {
    shared: Arc<DaemonShared>,
    accept_thread: Option<thread::JoinHandle<()>>,
    addr: SocketAddr,
}

impl Daemon {
    /// Validates the config, binds the listener, then brings every
    /// configured profile up — warm-starting from the last good snapshot
    /// when `snapshot_dir` is set and the stored fingerprint matches,
    /// training from scratch otherwise (and persisting the result).
    ///
    /// Boot trains each distinct training key once: the profiles that must
    /// train and share a key (the `f32` / `fast` / `int8` rungs of one
    /// model) build their artifacts from one exact frozen model, trained
    /// when the first of them needs it and dropped when boot ends. Warm and
    /// fallback profiles never train.
    ///
    /// The accept loop runs *during* model loading so probes get answers:
    /// `/healthz` is up immediately, `/readyz` stays `503 loading` until
    /// every profile is ready. `start` itself still blocks until the
    /// daemon is fully ready (or failed).
    ///
    /// # Errors
    ///
    /// Returns a message when the config is invalid (no profiles,
    /// duplicate names, unusable `snapshot_dir`), the address cannot be
    /// bound, or a profile fails to load.
    pub fn start(config: DaemonConfig) -> Result<Self, String> {
        config.validate()?;
        let store = match &config.snapshot_dir {
            Some(dir) => Some(
                Store::open(Path::new(dir))
                    .map_err(|e| format!("snapshot_dir '{dir}' is unusable: {e}"))?,
            ),
            None => None,
        };
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;

        let fleet = Fleet::new(config.fleet_config());
        let profiles =
            config.profiles.iter().map(|p| (p.name.clone(), p.clone())).collect::<HashMap<_, _>>();
        let default_model = config.profiles[0].name.clone();
        let chaos = Arc::new(ChaosInjector::new(config.chaos_seed));
        for &(site, every, param_ms) in &config.chaos_sites {
            chaos.configure(site, every, param_ms);
        }

        let shared = Arc::new(DaemonShared {
            config,
            fleet,
            profiles: Mutex::new(profiles),
            default_model,
            store,
            ready: AtomicBool::new(false),
            warm_start_seconds: AtomicU64::new(0),
            snapshot_versions: Mutex::new(HashMap::new()),
            artifacts: Mutex::new(HashMap::new()),
            chaos,
            addr,
            draining: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            active_requests: AtomicUsize::new(0),
            counters: HttpCounters::default(),
            started: Instant::now(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("fabd-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| format!("spawn accept loop: {e}"))?;

        let boot = Instant::now();
        let mut trained = HashMap::new();
        for p in shared.config.profiles.clone() {
            if let Err(e) = boot_profile(&shared, &p, &mut trained) {
                // Tear the half-started daemon down cleanly: stop the
                // accept loop before reporting the failure.
                shared.begin_drain();
                let _ = accept_thread.join();
                return Err(e);
            }
        }
        shared.warm_start_seconds.store(boot.elapsed().as_secs_f64().to_bits(), Ordering::Relaxed);
        shared.ready.store(true, Ordering::SeqCst);
        Ok(Daemon { shared, accept_thread: Some(accept_thread), addr })
    }

    /// The actual bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Names of the currently ready models, sorted.
    pub fn model_names(&self) -> Vec<String> {
        self.shared
            .fleet
            .models()
            .into_iter()
            .filter(|m| m.state == ModelState::Ready)
            .map(|m| m.spec.name)
            .collect()
    }

    /// Starts a graceful drain: `/readyz` flips to `503`, the accept loop
    /// stops taking connections, in-flight requests keep being served.
    /// Idempotent.
    pub fn initiate_drain(&self) {
        self.shared.begin_drain();
    }

    /// Whether a drain is in progress.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Per-model stats snapshots for every ready model.
    pub fn stats(&self) -> Vec<(String, ServerStats)> {
        self.shared.fleet.model_stats().into_iter().map(|(info, s)| (info.spec.name, s)).collect()
    }

    /// Waits for the drain to complete and stops every model server,
    /// answering all queued requests first. Blocks up to `drain_timeout_ms`
    /// for in-flight requests (idle keep-alive connections don't count),
    /// then unconditionally drains the queues — a request still waiting on
    /// a dead worker pool is answered by the inline drain, never dropped.
    pub fn join(mut self) {
        self.initiate_drain();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let deadline = Instant::now() + Duration::from_millis(self.shared.config.drain_timeout_ms);
        while self.shared.active_requests.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            thread::sleep(DRAIN_POLL);
        }
        // Brief grace for requests whose bytes arrived but whose handler
        // hasn't registered yet; anything slower gets an explicit
        // ServerStopped (503) answer rather than a hang.
        thread::sleep(DRAIN_POLL.saturating_mul(4));
        // Drains every queued request of every model to an answer
        // (zero-drop), including versions still draining after a reload.
        self.shared.fleet.shutdown();
    }

    /// `initiate_drain` + `join` in one call.
    pub fn shutdown(self) {
        self.initiate_drain();
        self.join();
    }
}

/// Brings one profile up at boot: last-good snapshot when available and
/// fingerprint-matched (`warm`, or `fallback` when an older version had to
/// stand in for a corrupt newest), fresh training otherwise (`trained`,
/// persisted for the next boot). A profile that trains takes its training
/// key's exact model from `trained`, training it on first use.
fn boot_profile(
    shared: &Arc<DaemonShared>,
    profile: &ProfileConfig,
    trained: &mut HashMap<TrainingKey, FrozenModel>,
) -> Result<(), String> {
    let ticket = shared
        .fleet
        .begin_load(profile.spec())
        .map_err(|e| format!("load profile {}: {e}", profile.name))?;
    let mut train = || {
        let exact = trained.entry(profile.training_key()).or_insert_with(|| profile.train_exact());
        profile.artifact_from_exact(exact)
    };
    let fingerprint = profile.fingerprint();
    let (artifact, source) = match &shared.store {
        Some(store) => match store.load_last_good(&profile.name, Some(&fingerprint)) {
            Ok(rec) => {
                let source = if rec.fallback { ModelSource::Fallback } else { ModelSource::Warm };
                shared
                    .snapshot_versions
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(profile.name.clone(), rec.version);
                (rec.artifact, source)
            }
            // No snapshot, stale fingerprint, or every version corrupt:
            // retrain and persist the result.
            Err(_) => {
                let artifact = train();
                persist_artifact(shared, &profile.name, &artifact, &fingerprint);
                (artifact, ModelSource::Trained)
            }
        },
        None => (train(), ModelSource::Trained),
    };
    let artifact = share_weights(shared, profile, artifact);
    let session = attach_chaos(shared, profile.session_from_artifact(&artifact, false));
    shared.fleet.commit_with_source(ticket, session, source);
    shared
        .artifacts
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(profile.name.clone(), artifact);
    Ok(())
}

/// `artifact`, or the same model on the weights of a loaded model of the
/// same training key when those are bit-equal: a warm boot restores each
/// rung's snapshot on its own and a reload retrains, and both would
/// otherwise keep a second copy of weights already resident. A cold boot's
/// rungs share their training key's one f32 set already, and the check
/// costs them a pointer comparison (a warm one a walk over the weights).
fn share_weights(
    shared: &DaemonShared,
    profile: &ProfileConfig,
    artifact: ModelArtifact,
) -> ModelArtifact {
    let key = profile.training_key();
    let peers: Vec<String> = (shared.profiles.lock().unwrap_or_else(PoisonError::into_inner))
        .iter()
        .filter(|(name, p)| **name != profile.name && p.training_key() == key)
        .map(|(name, _)| name.clone())
        .collect();
    let loaded: Vec<ModelArtifact> = {
        let artifacts = shared.artifacts.lock().unwrap_or_else(PoisonError::into_inner);
        peers.iter().filter_map(|name| artifacts.get(name).cloned()).collect()
    };
    match loaded.into_iter().find(|peer| peer.0.same_weights(&artifact.0)) {
        Some(peer) => ModelArtifact(peer.0.with_fast_math(artifact.0.fast_math())),
        None => artifact,
    }
}

/// Wires the daemon's chaos injector into a session's forward path. Only
/// fault-injection builds get the hook; production sessions never carry it.
fn attach_chaos(shared: &DaemonShared, session: InferenceSession) -> InferenceSession {
    if shared.config.fault_injection {
        session.with_chaos(Arc::clone(&shared.chaos))
    } else {
        session
    }
}

/// Best-effort snapshot persistence. A full disk or yanked volume must
/// never take serving down, so save failures are swallowed here; they
/// surface as a `null` `snapshot_version` in `/v1/models`.
fn persist_artifact(
    shared: &DaemonShared,
    model: &str,
    artifact: &ModelArtifact,
    fingerprint: &str,
) -> Option<u64> {
    let store = shared.store.as_ref()?;
    // Chaos `snapshot_save` simulates the disk vanishing mid-save: the
    // attempt is counted as injected and reported exactly like a real
    // store failure.
    if shared.chaos.fires(ChaosSite::SnapshotSave) {
        return None;
    }
    let meta = vec![(FINGERPRINT_KEY.to_string(), fingerprint.to_string())];
    let version = store.save(model, artifact, &meta).ok()?;
    let _ = store.gc(shared.config.snapshot_keep);
    shared
        .snapshot_versions
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(model.to_string(), version);
    Some(version)
}

impl DaemonShared {
    /// Flips the daemon into draining and, the first time only, wakes the
    /// accept thread: it parks in a blocking `accept`, so the flag alone
    /// would not be seen until the next client happened to connect. The
    /// wake is a loopback connection to the daemon's own listener, which
    /// the accept loop drops on sight of the flag. Should the connect fail
    /// (descriptors exhausted, backlog full), `accept` is not parked either:
    /// it is failing or returning queued connections, and sees the flag.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<DaemonShared>) {
    loop {
        let accepted = listener.accept();
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        // Chaos `accept_stall` freezes the accept loop for the configured
        // delay, backing up the listen queue exactly like a wedged accept
        // thread would.
        if let Some(delay) = shared.chaos.stall(ChaosSite::AcceptStall) {
            thread::sleep(delay);
        }
        match accepted {
            Ok((stream, _)) => {
                shared.counters.connections_total.fetch_add(1, Ordering::Relaxed);
                let open = shared.open_connections.fetch_add(1, Ordering::AcqRel) + 1;
                let guard = ConnectionGuard(Arc::clone(&shared));
                if open > shared.config.max_connections {
                    shared.counters.connections_rejected.fetch_add(1, Ordering::Relaxed);
                    // Best-effort 503 before closing; the guard drops the
                    // gauge either way. The hint tells well-behaved clients
                    // to back off instead of hammering the full listener.
                    let resp = error_response(503, "connection limit reached", Some(1000));
                    let mut stream = stream;
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(
                        shared.config.write_timeout_ms.max(1),
                    )));
                    let _ = write_response(&mut stream, &resp, false);
                    drop(guard);
                    continue;
                }
                let conn_shared = Arc::clone(&shared);
                let spawned =
                    thread::Builder::new().name("fabd-conn".to_string()).spawn(move || {
                        let _guard = guard;
                        serve_connection(stream, conn_shared);
                    });
                if spawned.is_err() {
                    // Thread exhaustion: shed instead of crashing the
                    // accept loop. The guard moved into the failed closure
                    // was dropped by spawn, releasing the slot.
                    shared.counters.connections_rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => thread::sleep(DRAIN_POLL),
        }
    }
}

fn serve_connection(stream: TcpStream, shared: Arc<DaemonShared>) {
    let config = &shared.config;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(config.read_timeout_ms.max(1))));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(config.write_timeout_ms.max(1))));
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader, config.max_body_bytes) {
            Ok(Some(request)) => request,
            Ok(None) => return, // clean keep-alive close
            Err(e) => {
                shared.counters.read_errors.fetch_add(1, Ordering::Relaxed);
                let status = e.status();
                shared.counters.count_status(status);
                let _ = write_response(
                    reader.get_mut(),
                    &error_response(status, &e.to_string(), None),
                    false,
                );
                return;
            }
        };
        shared.counters.requests_total.fetch_add(1, Ordering::Relaxed);
        let in_flight = RequestGuard::new(&shared);
        let keep_alive = request.keep_alive() && !shared.draining.load(Ordering::SeqCst);
        let response = route(&shared, &request);
        shared.counters.count_status(response.status);
        let write = write_response(reader.get_mut(), &response, keep_alive);
        drop(in_flight);
        if write.is_err() || !keep_alive {
            return;
        }
    }
}

/// Builds the standard JSON error body.
fn error_response(status: u16, message: &str, retry_after_ms: Option<u64>) -> Response {
    let mut obj = vec![("error".to_string(), Json::Str(message.to_string()))];
    if let Some(ms) = retry_after_ms {
        obj.push(("retry_after_ms".to_string(), Json::Num(ms as f64)));
    }
    let resp = Response::json(status, Json::Obj(obj));
    match retry_after_ms {
        // Retry-After is whole seconds; round up so clients never retry
        // before the hint.
        Some(ms) => resp.with_header("Retry-After", ms.div_ceil(1000).max(1)),
        None => resp,
    }
}

/// Maps a serving-layer failure onto an HTTP response.
fn serve_error_response(err: &ServeError) -> Response {
    match err {
        ServeError::Overloaded { retry_after_ms, .. } => {
            error_response(429, &err.to_string(), Some(*retry_after_ms))
        }
        ServeError::DeadlineExceeded => error_response(504, &err.to_string(), None),
        ServeError::SequenceTooLong { .. }
        | ServeError::EmptySequence
        | ServeError::InvalidToken { .. } => error_response(400, &err.to_string(), None),
        ServeError::ModelPanicked => error_response(500, &err.to_string(), None),
        // Retryable: another replica (or this one post-restart) can serve.
        ServeError::ServerStopped => error_response(503, &err.to_string(), Some(1000)),
    }
}

/// Maps a fleet-layer failure onto an HTTP response. The two `429` sources
/// carry different hints: a quota rejection hints the tenant's own bucket
/// refill, a queue rejection hints the model's own drain rate.
fn fleet_error_response(err: &FleetError) -> Response {
    match err {
        FleetError::NoSuchModel(_) => error_response(404, &err.to_string(), None),
        // Retryable: the model is training/loading and will be ready soon.
        FleetError::ModelLoading(_) => error_response(503, &err.to_string(), Some(1000)),
        FleetError::AlreadyLoading(_) => error_response(409, &err.to_string(), None),
        FleetError::QuotaExceeded { retry_after_ms, .. } => {
            error_response(429, &err.to_string(), Some(*retry_after_ms))
        }
        FleetError::CircuitOpen { retry_after_ms, .. } => {
            error_response(503, &err.to_string(), Some(*retry_after_ms))
        }
        FleetError::Serve(e) => serve_error_response(e),
    }
}

fn route(shared: &Arc<DaemonShared>, request: &Request) -> Response {
    match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => {
            if shared.draining.load(Ordering::SeqCst) {
                Response::text(503, "draining\n")
            } else if !shared.ready.load(Ordering::SeqCst) {
                Response::text(503, "loading\n")
            } else {
                Response::text(200, "ready\n")
            }
        }
        ("GET", "/metrics") => Response::text(200, stats::prometheus(&snapshot(shared))),
        ("GET", "/v1/models") => {
            let models = model_rows(shared).iter().map(stats::model_json).collect();
            Response::json(200, Json::Obj(vec![("models".to_string(), Json::Arr(models))]))
        }
        ("GET", "/v1/stats") => Response::json(200, stats::json(&snapshot(shared))),
        ("GET", "/v1/circuits") => circuits_json(shared),
        ("POST", "/v1/predict") => predict(shared, request, false),
        ("POST", "/v1/predict_batch") => predict(shared, request, true),
        ("POST", "/admin/shutdown") => {
            shared.begin_drain();
            Response::json(200, Json::Obj(vec![("draining".to_string(), Json::Bool(true))]))
        }
        ("POST", "/admin/models") => admin_models(shared, request),
        ("POST", "/admin/snapshot") => snapshot_all(shared),
        ("GET", "/admin/snapshot") => snapshot_list(shared),
        ("POST", "/admin/degrade") => admin_degrade(shared, request),
        ("POST", "/admin/chaos") => admin_chaos(shared, request),
        ("GET", "/admin/chaos") => chaos_status(shared),
        (
            _,
            "/healthz" | "/readyz" | "/metrics" | "/v1/models" | "/v1/stats" | "/v1/circuits"
            | "/v1/predict" | "/v1/predict_batch" | "/admin/shutdown" | "/admin/models"
            | "/admin/snapshot" | "/admin/degrade" | "/admin/chaos",
        ) => error_response(405, "method not allowed", None),
        _ => error_response(404, "no such route", None),
    }
}

/// `GET /v1/circuits`: overload posture of every ready model — breaker
/// state, admission limiter, degrade ladder and current rung.
fn circuits_json(shared: &DaemonShared) -> Response {
    let circuits = shared.fleet.guard_stats().into_iter().map(|(name, g)| {
        let ladder = shared.fleet.ladder(&name).unwrap_or_default();
        let mut obj = stats::object("model", &name, stats::GUARD, &g);
        obj.push(("ladder".to_string(), Json::Arr(ladder.into_iter().map(Json::Str).collect())));
        Json::Obj(obj)
    });
    Response::json(200, Json::Obj(vec![("circuits".to_string(), Json::Arr(circuits.collect()))]))
}

/// `POST /admin/degrade`: pins or releases a model's degrade rung. Body:
/// `{"model": "...", "level": N}` forces rung N (0 = primary), `"level":
/// null` (or `"off"`) returns control to the adaptive controller. This is
/// an operator brownout control, not a fault injector, so it works without
/// `fault_injection`.
fn admin_degrade(shared: &DaemonShared, request: &Request) -> Response {
    let body = match json_body(request) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let model = body
        .get("model")
        .and_then(Json::as_str)
        .map(str::to_string)
        .unwrap_or_else(|| shared.default_model.clone());
    let level = match body.get("level") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) if s == "off" => None,
        Some(v) => match v.as_usize() {
            Some(l) => Some(l),
            None => {
                return error_response(400, "'level' must be a non-negative integer or null", None)
            }
        },
    };
    match shared.fleet.force_degrade(&model, level) {
        Ok(effective) => Response::json(
            200,
            Json::Obj(vec![
                ("model".to_string(), Json::Str(model)),
                ("forced".to_string(), Json::Bool(level.is_some())),
                ("level".to_string(), Json::Num(effective as f64)),
            ]),
        ),
        Err(e) => fleet_error_response(&e),
    }
}

/// `GET /admin/chaos`: current per-site injection rates and fire counts.
/// Read-only, so it answers even without `fault_injection` (all-off).
fn chaos_status(shared: &DaemonShared) -> Response {
    let sites: Vec<Json> = shared.chaos.status().iter().map(stats::site_json).collect();
    Response::json(200, Json::Obj(vec![("sites".to_string(), Json::Arr(sites))]))
}

/// `POST /admin/chaos`: arms or clears chaos sites at runtime. Body:
/// `{"reset": true}` disarms everything; `{"sites": [{"site": "...",
/// "every": N, "param_ms": M}, ...]}` reconfigures the listed sites
/// (`param_ms` is the marker token id for `poison_token`). Gated on
/// `fault_injection` — a production daemon cannot be armed over HTTP.
fn admin_chaos(shared: &DaemonShared, request: &Request) -> Response {
    if !shared.config.fault_injection {
        return error_response(403, "fault injection is disabled", None);
    }
    let body = match json_body(request) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    if body.get("reset").and_then(Json::as_bool) == Some(true) {
        shared.chaos.reset();
    }
    if let Some(sites) = body.get("sites").and_then(Json::as_arr) {
        for entry in sites {
            let Some(name) = entry.get("site").and_then(Json::as_str) else {
                return error_response(400, "each chaos site needs a 'site' name", None);
            };
            let Some(site) = ChaosSite::parse(name) else {
                return error_response(400, &format!("unknown chaos site '{name}'"), None);
            };
            let every = entry.get("every").and_then(Json::as_u64).unwrap_or(0);
            let param_ms = entry.get("param_ms").and_then(Json::as_u64).unwrap_or(0);
            shared.chaos.configure(site, every, param_ms);
        }
    }
    chaos_status(shared)
}

/// Extracts the request deadline: `X-Deadline-Ms` header beats the body's
/// `deadline_ms` beats the configured default. An *explicit* 0 means
/// "already expired" (the serving queue sheds it immediately with a 504 —
/// useful for probing the shed path); an absent deadline falls back to the
/// config default, where 0 means "no deadline".
fn request_deadline(shared: &DaemonShared, request: &Request, body: &Json) -> Option<Duration> {
    request
        .header("x-deadline-ms")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .or_else(|| body.get("deadline_ms").and_then(Json::as_u64))
        .map(Duration::from_millis)
        .or_else(|| {
            (shared.config.default_deadline_ms > 0)
                .then(|| Duration::from_millis(shared.config.default_deadline_ms))
        })
}

/// Extracts the request's QoS labels: tenant from the `X-Tenant` header or
/// the body's `tenant` field, priority class from `X-Priority` or
/// `priority` (header beats body, default interactive). An unknown
/// priority name is a `400` — silently downgrading a typo'd
/// `"interactive"` to a default would be a debugging trap.
fn request_qos(request: &Request, body: &Json) -> Result<(Option<String>, Priority), Response> {
    let tenant = request
        .header("x-tenant")
        .map(str::trim)
        .or_else(|| body.get("tenant").and_then(Json::as_str))
        .map(str::to_string)
        .filter(|t| !t.is_empty());
    let priority = match request
        .header("x-priority")
        .map(str::trim)
        .or_else(|| body.get("priority").and_then(Json::as_str))
    {
        None => Priority::Interactive,
        Some(s) => Priority::parse(&s.to_ascii_lowercase())
            .ok_or_else(|| error_response(400, &format!("unknown priority '{s}'"), None))?,
    };
    Ok((tenant, priority))
}

fn parse_tokens(v: &Json) -> Result<Vec<usize>, Response> {
    let arr = v.as_arr().ok_or_else(|| error_response(400, "tokens must be an array", None))?;
    arr.iter()
        .map(|t| {
            t.as_usize()
                .ok_or_else(|| error_response(400, "tokens must be non-negative integers", None))
        })
        .collect()
}

fn prediction_json(model: &str, served_by: &str, degraded: bool, p: &Prediction) -> Json {
    Json::Obj(vec![
        ("model".to_string(), Json::Str(model.to_string())),
        ("served_by".to_string(), Json::Str(served_by.to_string())),
        ("degraded".to_string(), Json::Bool(degraded)),
        ("class".to_string(), Json::Num(p.class as f64)),
        (
            "logits".to_string(),
            Json::Arr(p.logits.iter().map(|&l| Json::Num(f64::from(l))).collect()),
        ),
        ("queue_wait_us".to_string(), Json::Num(p.queue_wait_us as f64)),
        ("service_us".to_string(), Json::Num(p.service_us as f64)),
        ("batch_size".to_string(), Json::Num(p.batch_size as f64)),
    ])
}

/// The request body as JSON, or the `400` answering a body that is not
/// UTF-8 or not JSON.
fn json_body(request: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| error_response(400, "body is not UTF-8", None))?;
    Json::parse(text).map_err(|e| error_response(400, &format!("body JSON: {e}"), None))
}

fn predict(shared: &DaemonShared, request: &Request, batch: bool) -> Response {
    let body = match json_body(request) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let model = body.get("model").and_then(Json::as_str).unwrap_or(&shared.default_model);
    let (tenant, priority) = match request_qos(request, &body) {
        Ok(qos) => qos,
        Err(resp) => return resp,
    };
    let deadline = request_deadline(shared, request, &body);

    if !batch {
        let tokens = match body.get("tokens") {
            Some(v) => match parse_tokens(v) {
                Ok(tokens) => tokens,
                Err(resp) => return resp,
            },
            None => return error_response(400, "missing 'tokens'", None),
        };
        return match shared.fleet.submit(model, tenant.as_deref(), priority, tokens, deadline) {
            Ok(pending) => {
                let served_by = pending.served_by().to_string();
                let degraded = pending.degraded();
                match pending.wait() {
                    Ok(p) => Response::json(200, prediction_json(model, &served_by, degraded, &p)),
                    Err(e) => serve_error_response(&e),
                }
            }
            Err(e) => fleet_error_response(&e),
        };
    }

    // A bad model name fails the whole batch up front (matching the
    // single-predict 404); per-sequence failures stay inline below.
    if let Err(e) = shared.fleet.get(model) {
        return fleet_error_response(&e);
    }
    let Some(sequences) = body.get("sequences").and_then(Json::as_arr) else {
        return error_response(400, "missing 'sequences' array", None);
    };
    // Submit everything first so the batcher can coalesce the whole set,
    // then collect the answers in order. Admission failures become inline
    // per-sequence errors — batchmates are unaffected.
    let pending: Vec<_> = sequences
        .iter()
        .map(|seq| match parse_tokens(seq) {
            Ok(tokens) => shared
                .fleet
                .submit(model, tenant.as_deref(), priority, tokens, deadline)
                .map_err(|e| Json::Obj(vec![("error".to_string(), Json::Str(e.to_string()))])),
            Err(_) => Err(Json::Obj(vec![(
                "error".to_string(),
                Json::Str("tokens must be non-negative integers".to_string()),
            )])),
        })
        .collect();
    let results: Vec<Json> = pending
        .into_iter()
        .map(|slot| {
            match slot.map(|p| {
                let served_by = p.served_by().to_string();
                let degraded = p.degraded();
                (served_by, degraded, p.wait())
            }) {
                Ok((served_by, degraded, Ok(p))) => {
                    prediction_json(model, &served_by, degraded, &p)
                }
                Ok((_, _, Err(e))) => {
                    Json::Obj(vec![("error".to_string(), Json::Str(e.to_string()))])
                }
                Err(err_json) => err_json,
            }
        })
        .collect();
    Response::json(
        200,
        Json::Obj(vec![
            ("model".to_string(), Json::Str(model.to_string())),
            ("results".to_string(), Json::Arr(results)),
        ]),
    )
}

/// `POST /admin/models`: hot model lifecycle. Actions:
///
/// - `{"action": "load", "profile": {...}}` — train the given profile and
///   swap it in as the new current version of its name (version 1 for a
///   new name). In-flight requests against the old version keep their
///   answers; the old version drains in the background.
/// - `{"action": "reload", "model": "<name>"}` — re-train the stored
///   profile definition and swap (version bump).
/// - `{"action": "unload", "model": "<name>"}` — remove the name; its
///   current version drains in the background. The profile definition is
///   kept, so a later `reload` revives the name.
fn admin_models(shared: &DaemonShared, request: &Request) -> Response {
    let body = match json_body(request) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let named = |body: &Json| -> Result<String, Response> {
        body.get("model")
            .or_else(|| body.get("name"))
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| error_response(400, "missing 'model' name", None))
    };
    match body.get("action").and_then(Json::as_str) {
        Some("load") => {
            let Some(profile_json) = body.get("profile") else {
                return error_response(400, "load needs a 'profile' object", None);
            };
            match ProfileConfig::from_json(profile_json) {
                Ok(profile) => load_profile(shared, profile),
                Err(e) => error_response(400, &e, None),
            }
        }
        Some("reload") => {
            let name = match named(&body) {
                Ok(name) => name,
                Err(resp) => return resp,
            };
            let profile =
                shared.profiles.lock().unwrap_or_else(PoisonError::into_inner).get(&name).cloned();
            match profile {
                Some(profile) => load_profile(shared, profile),
                None => error_response(404, &format!("no profile named '{name}'"), None),
            }
        }
        Some("unload") => {
            let name = match named(&body) {
                Ok(name) => name,
                Err(resp) => return resp,
            };
            match shared.fleet.unload(&name) {
                Ok(info) => {
                    // The name is gone from the fleet; stop re-snapshotting
                    // it. Snapshots on disk stay, so a later reload can
                    // still warm-start manually via the store.
                    shared.artifacts.lock().unwrap_or_else(PoisonError::into_inner).remove(&name);
                    shared
                        .snapshot_versions
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .remove(&name);
                    Response::json(200, stats::model_json(&model_row(shared, info, None)))
                }
                Err(e) => fleet_error_response(&e),
            }
        }
        Some(other) => error_response(400, &format!("unknown action '{other}'"), None),
        None => error_response(400, "missing 'action' (load / reload / unload)", None),
    }
}

/// Trains `profile` on the connection thread and commits it. The loading
/// mark taken up front makes concurrent loads of the same name answer
/// `409` instead of training twice; the previous version keeps serving
/// throughout the (slow) training step. The freshly trained model is
/// persisted to the snapshot store so the next boot warm-starts it.
fn load_profile(shared: &DaemonShared, profile: ProfileConfig) -> Response {
    let ticket = match shared.fleet.begin_load(profile.spec()) {
        Ok(ticket) => ticket,
        Err(e) => return fleet_error_response(&e),
    };
    let artifact = share_weights(shared, &profile, profile.build_artifact());
    let session = attach_chaos(shared, profile.session_from_artifact(&artifact, false));
    let info = shared.fleet.commit_with_source(ticket, session, ModelSource::Trained);
    persist_artifact(shared, &profile.name, &artifact, &profile.fingerprint());
    shared
        .artifacts
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(profile.name.clone(), artifact);
    shared
        .profiles
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(profile.name.clone(), profile);
    Response::json(200, stats::model_json(&model_row(shared, info, None)))
}

/// `POST /admin/snapshot`: re-persists every loaded model's artifact as a
/// fresh snapshot version, without retraining anything.
fn snapshot_all(shared: &DaemonShared) -> Response {
    if shared.store.is_none() {
        return error_response(503, "no snapshot_dir configured", None);
    }
    // Clone out of the locks before the (slow) encode + fsync work.
    let artifacts: Vec<(String, ModelArtifact)> = shared
        .artifacts
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(name, a)| (name.clone(), a.clone()))
        .collect();
    let fingerprints: HashMap<String, String> = shared
        .profiles
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(name, p)| (name.clone(), p.fingerprint()))
        .collect();
    let mut saved = Vec::new();
    let mut failed = Vec::new();
    for (name, artifact) in artifacts {
        let fingerprint = fingerprints.get(&name).cloned().unwrap_or_default();
        match persist_artifact(shared, &name, &artifact, &fingerprint) {
            Some(version) => saved.push(Json::Obj(vec![
                ("model".to_string(), Json::Str(name)),
                ("version".to_string(), Json::Num(version as f64)),
            ])),
            None => failed.push(Json::Str(name)),
        }
    }
    Response::json(
        200,
        Json::Obj(vec![
            ("saved".to_string(), Json::Arr(saved)),
            ("failed".to_string(), Json::Arr(failed)),
        ]),
    )
}

/// `GET /admin/snapshot`: lists every snapshot version on disk.
fn snapshot_list(shared: &DaemonShared) -> Response {
    let Some(store) = &shared.store else {
        return error_response(503, "no snapshot_dir configured", None);
    };
    match store.list() {
        Ok(infos) => Response::json(
            200,
            Json::Obj(vec![(
                "snapshots".to_string(),
                Json::Arr(
                    infos
                        .into_iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("model".to_string(), Json::Str(s.model)),
                                ("version".to_string(), Json::Num(s.version as f64)),
                                ("bytes".to_string(), Json::Num(s.bytes as f64)),
                            ])
                        })
                        .collect(),
                ),
            )]),
        ),
        Err(e) => error_response(500, &e.to_string(), None),
    }
}

/// Reads everything the stats views render.
fn snapshot(shared: &DaemonShared) -> Snapshot {
    let c = &shared.counters;
    let count = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let draining = shared.draining.load(Ordering::SeqCst);
    Snapshot {
        ready: shared.ready.load(Ordering::SeqCst) && !draining,
        draining,
        uptime_s: shared.started.elapsed().as_secs_f64(),
        warm_start_s: f64::from_bits(shared.warm_start_seconds.load(Ordering::Relaxed)),
        open_connections: shared.open_connections.load(Ordering::Acquire),
        active_requests: shared.active_requests.load(Ordering::Acquire),
        connections_total: count(&c.connections_total),
        connections_rejected: count(&c.connections_rejected),
        http_requests: count(&c.requests_total),
        read_errors: count(&c.read_errors),
        responses: c.responses.each_ref().map(count),
        resident_weight_bytes: resident_weight_bytes(shared),
        models: model_rows(shared),
        tenants: shared.fleet.tenant_stats(),
        classes: shared.fleet.class_latency(),
        chaos: shared.chaos.status(),
    }
}

/// Every registry entry: the ready ones with their server stats, each with
/// the guard of its name.
fn model_rows(shared: &DaemonShared) -> Vec<ModelRow> {
    let mut servers: HashMap<_, _> = shared
        .fleet
        .model_stats()
        .into_iter()
        .map(|(i, s)| ((i.spec.name, i.version), s))
        .collect();
    let guards: HashMap<_, _> = shared.fleet.guard_stats().into_iter().collect();
    let rows = shared.fleet.models().into_iter().map(|info| {
        let server = servers.remove(&(info.spec.name.clone(), info.version));
        ModelRow { guard: guards.get(&info.spec.name).cloned(), ..model_row(shared, info, server) }
    });
    rows.collect()
}

/// `info` with the snapshot version last persisted for its name and, while
/// it is ready, the bytes of the weights it serves from.
fn model_row(shared: &DaemonShared, info: ModelInfo, server: Option<ServerStats>) -> ModelRow {
    let ready = info.state == ModelState::Ready;
    let weight_bytes = (shared.artifacts.lock().unwrap_or_else(PoisonError::into_inner))
        .get(&info.spec.name)
        .filter(|_| ready)
        .map(|a| a.0.weight_bytes());
    let versions = shared.snapshot_versions.lock().unwrap_or_else(PoisonError::into_inner);
    let snapshot_version = versions.get(&info.spec.name).copied();
    ModelRow { snapshot_version, weight_bytes, info, server, guard: None }
}

/// Bytes of the distinct weight sets behind the loaded models' artifacts
/// (which their sessions share), each set counted once.
fn resident_weight_bytes(shared: &DaemonShared) -> usize {
    let artifacts = shared.artifacts.lock().unwrap_or_else(PoisonError::into_inner);
    let mut sets: Vec<&FrozenModel> = Vec::new();
    for artifact in artifacts.values() {
        if !sets.iter().any(|set| set.shares_weights(&artifact.0)) {
            sets.push(&artifact.0);
        }
    }
    sets.iter().map(|set| set.weight_bytes()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Precision, TRAININGS};
    use fab_store::encode_artifact;
    use std::cell::Cell;

    /// Boots `config` and returns, per profile, its source and the FABSNAP
    /// bytes of its booted artifact, plus the trainings the boot ran.
    fn boot(config: &DaemonConfig) -> (Vec<(ModelSource, Vec<u8>)>, usize) {
        let before = TRAININGS.with(Cell::get);
        let daemon = Daemon::start(config.clone()).expect("daemon boots");
        let trainings = TRAININGS.with(Cell::get) - before;
        let sources: HashMap<String, ModelSource> =
            daemon.shared.fleet.models().into_iter().map(|m| (m.spec.name, m.source)).collect();
        assert_one_set_per_key_and_format(&daemon, config);
        let booted = {
            let artifacts = daemon.shared.artifacts.lock().unwrap_or_else(PoisonError::into_inner);
            config
                .profiles
                .iter()
                .map(|p| (sources[&p.name], encode_artifact(&artifacts[&p.name], &[])))
                .collect()
        };
        daemon.shutdown();
        (booted, trainings)
    }

    /// Every profile's session and artifact are on one weight set, and two
    /// profiles are on the same set exactly when they have one training
    /// key and the same table format (f32 or int8). The stats report each
    /// model's set and count the distinct sets once.
    fn assert_one_set_per_key_and_format(daemon: &Daemon, config: &DaemonConfig) {
        let artifacts = daemon.shared.artifacts.lock().unwrap_or_else(PoisonError::into_inner);
        let models: Vec<FrozenModel> = (config.profiles.iter())
            .map(|p| {
                let artifact = &artifacts[&p.name].0;
                let handle = daemon.shared.fleet.get(&p.name).expect("loaded");
                let session = handle.server().session().model();
                assert!(session.shares_weights(artifact), "{}: two sets", p.name);
                assert!(std::ptr::eq(session.blocks(), artifact.blocks()), "{}", p.name);
                artifact.clone()
            })
            .collect();
        drop(artifacts);
        let int8 = |p: &ProfileConfig| p.precision == Precision::Int8;
        for (a, ma) in config.profiles.iter().zip(&models) {
            for (b, mb) in config.profiles.iter().zip(&models) {
                let same = a.training_key() == b.training_key() && int8(a) == int8(b);
                assert_eq!(ma.shares_weights(mb), same, "{} / {}", a.name, b.name);
                assert_eq!(std::ptr::eq(ma.blocks(), mb.blocks()), same, "{} / {}", a.name, b.name);
            }
        }
        let mut sets: Vec<&FrozenModel> = Vec::new();
        for m in &models {
            if !sets.iter().any(|set| std::ptr::eq(set.blocks(), m.blocks())) {
                sets.push(m);
            }
        }
        let snap = snapshot(&daemon.shared);
        assert_eq!(snap.resident_weight_bytes, sets.iter().map(|s| s.weight_bytes()).sum());
        for row in &snap.models {
            let i = config.profiles.iter().position(|p| p.name == row.info.spec.name);
            let ready = row.info.state == ModelState::Ready;
            let want = i.filter(|_| ready).map(|i| models[i].weight_bytes());
            assert_eq!(row.weight_bytes, want, "{} {:?}", row.info.spec.name, row.info.state);
        }
    }

    #[test]
    fn a_cold_boot_trains_each_training_key_once() {
        // The three precision rungs of one recipe, plus one profile of
        // another seed: two training keys.
        let mut profiles: Vec<ProfileConfig> =
            [("f32", Precision::Exact), ("fast", Precision::FastMath), ("int8", Precision::Int8)]
                .iter()
                .map(|&(name, precision)| ProfileConfig::tiny(name, precision, 5))
                .collect();
        profiles.push(ProfileConfig::tiny("other", Precision::FastMath, 6));
        let dir = std::env::temp_dir().join(format!("fabd-boot-keys-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            profiles: profiles.clone(),
            ..DaemonConfig::default()
        };
        let independent: Vec<Vec<u8>> =
            profiles.iter().map(|p| encode_artifact(&p.build_artifact(), &[])).collect();

        // Without a store, and with an empty one: one training per key, and
        // every profile serves the bytes of its own independent build.
        for snapshot_dir in [None, Some(dir.to_string_lossy().into_owned())] {
            config.snapshot_dir = snapshot_dir;
            let (booted, trainings) = boot(&config);
            assert_eq!(trainings, 2, "store {:?}", config.snapshot_dir);
            for ((p, (source, bytes)), want) in profiles.iter().zip(&booted).zip(&independent) {
                assert_eq!(*source, ModelSource::Trained, "{}", p.name);
                assert!(bytes == want, "{}: booted artifact differs from build_artifact", p.name);
            }
        }
        // Warm profiles never train, and restore the same bytes.
        let (booted, trainings) = boot(&config);
        assert_eq!(trainings, 0);
        for ((p, (source, bytes)), want) in profiles.iter().zip(&booted).zip(&independent) {
            assert_eq!(*source, ModelSource::Warm, "{}", p.name);
            assert!(bytes == want, "{}: warm artifact differs from build_artifact", p.name);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reloaded_rung_joins_the_weight_set_of_its_training_key() {
        let profiles: Vec<ProfileConfig> =
            [("f32", Precision::Exact), ("fast", Precision::FastMath), ("int8", Precision::Int8)]
                .iter()
                .map(|&(name, precision)| ProfileConfig::tiny(name, precision, 8))
                .collect();
        let config =
            DaemonConfig { addr: "127.0.0.1:0".to_string(), profiles, ..DaemonConfig::default() };
        let daemon = Daemon::start(config.clone()).expect("daemon boots");
        for p in &config.profiles {
            let response = load_profile(&daemon.shared, p.clone());
            assert_eq!(response.status, 200, "reload {}", p.name);
            assert_one_set_per_key_and_format(&daemon, &config);
        }
        daemon.shutdown();
    }
}
