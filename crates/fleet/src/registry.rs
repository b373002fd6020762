//! The model registry: named, versioned, ref-counted model entries with
//! atomic swap and a loading → ready → draining → retired lifecycle.
//!
//! Hot reload never drops a request. The sequence:
//!
//! 1. [`Registry::begin_load`] marks the name as loading (a reload keeps
//!    the old version serving — the mark only blocks a *second* concurrent
//!    load of the same name).
//! 2. The caller builds the new model (training is its business) and
//!    commits a running [`Server`] via [`LoadTicket::commit`]; the new
//!    entry is swapped into the name under the write lock — lookups see
//!    either the old or the new version, never a gap.
//! 3. The old entry moves to *draining*: a reaper thread waits for every
//!    outstanding [`ModelHandle`] (held across the resolve→submit window,
//!    never across a blocking wait) to drop, then calls
//!    [`Server::shutdown`] — which answers every request still queued —
//!    and marks the entry *retired*.
//!
//! Every request admitted against the old version is therefore answered
//! (the PR-6 zero-drop drain invariant), while new lookups route to the
//! new version immediately.

use crate::FleetError;
use fab_serve::{Server, ServerHandle};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, Weak};
use std::time::Duration;

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How often a reaper polls for the last outstanding handle.
const REAP_POLL: Duration = Duration::from_millis(1);
/// Retired entries kept for `models()` listings.
const RETIRED_HISTORY: usize = 32;

/// Lifecycle state of a registry entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelState {
    /// `begin_load` ran; no server committed for this version yet.
    Loading,
    /// Serving traffic.
    Ready,
    /// Swapped out (reload/unload); answering its admitted requests.
    Draining,
    /// Fully drained; its server is gone.
    Retired,
}

impl ModelState {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ModelState::Loading => "loading",
            ModelState::Ready => "ready",
            ModelState::Draining => "draining",
            ModelState::Retired => "retired",
        }
    }
}

impl fmt::Display for ModelState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a committed model version came from — operators watch this to spot
/// snapshot-corruption (fallback) and retrain-on-miss events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSource {
    /// Restored from the newest valid snapshot (warm start).
    Warm,
    /// Trained in-process (cold start, hot reload, or snapshot miss).
    Trained,
    /// Restored from an *older* snapshot after the newest was rejected as
    /// corrupt or stale.
    Fallback,
}

impl ModelSource {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ModelSource::Warm => "warm",
            ModelSource::Trained => "trained",
            ModelSource::Fallback => "fallback",
        }
    }
}

impl fmt::Display for ModelSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Identity of a fleet model: what it is, not how it is doing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Registry name (route key).
    pub name: String,
    /// Task the model was trained for (e.g. `text`, `pathfinder`).
    pub task: String,
    /// Architecture (e.g. `fabnet`, `transformer`).
    pub arch: String,
    /// Serving precision (`f32` / `fastmath` / `int8`).
    pub precision: String,
}

/// A registry entry: one version of one named model.
struct ModelEntry {
    spec: ModelSpec,
    version: u64,
    source: ModelSource,
    state: Mutex<ModelState>,
    /// The running server; taken (consumed) by the reaper at drain time.
    server: Mutex<Option<Server>>,
    /// Kept separately so requests never contend with the reaper.
    handle: ServerHandle,
}

/// A ref-counted grip on one model version.
///
/// Holding one pins the version: its server is not shut down until every
/// handle drops, so a request that resolved a name can still enqueue
/// against its (possibly just-swapped-out) version. Do not hold one
/// across a blocking wait for that version's own answers — the reaper
/// cannot start the drain that produces them until the handle drops.
#[derive(Clone)]
pub struct ModelHandle {
    entry: Arc<ModelEntry>,
}

impl ModelHandle {
    /// The model's identity.
    pub(crate) fn spec(&self) -> &ModelSpec {
        &self.entry.spec
    }

    /// The serving handle for submitting requests.
    pub fn server(&self) -> &ServerHandle {
        &self.entry.handle
    }
}

/// A point-in-time description of one registry entry.
#[derive(Debug, Clone)]
pub struct ModelInfo {
    /// The model's identity.
    pub spec: ModelSpec,
    /// Version number (1-based; a reload bumps it).
    pub version: u64,
    /// Where this version came from (warm / trained / fallback).
    pub source: ModelSource,
    /// Lifecycle state at snapshot time.
    pub state: ModelState,
}

/// The fleet's name → model map. See the module docs for the lifecycle.
pub(crate) struct Registry {
    ready: RwLock<HashMap<String, Arc<ModelEntry>>>,
    /// Names with a load in progress (blocks concurrent loads, renders as
    /// `loading` in listings).
    loading: Mutex<HashMap<String, ModelSpec>>,
    /// Next version per name (survives unload, so a re-load after an
    /// unload still bumps the version).
    versions: Mutex<HashMap<String, u64>>,
    /// Arc-shared with reaper threads, which append retired entries.
    retired: Arc<Mutex<Vec<ModelInfo>>>,
    /// Weak refs to entries mid-drain, so listings show them between the
    /// swap and the reaper's retired-log append. Weak, because a strong
    /// ref here would keep the reaper's handle count from reaching one.
    draining: Arc<Mutex<Vec<Weak<ModelEntry>>>>,
    reapers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self {
            ready: RwLock::new(HashMap::new()),
            loading: Mutex::new(HashMap::new()),
            versions: Mutex::new(HashMap::new()),
            retired: Arc::new(Mutex::new(Vec::new())),
            draining: Arc::new(Mutex::new(Vec::new())),
            reapers: Mutex::new(Vec::new()),
        }
    }

    /// Starts loading `spec.name`. The returned ticket must be
    /// [committed](LoadTicket::commit) with a running server (or dropped
    /// to abort). An existing ready version keeps serving meanwhile.
    ///
    /// # Errors
    ///
    /// [`FleetError::AlreadyLoading`] when a load of the same name is in
    /// progress.
    pub(crate) fn begin_load(&self, spec: ModelSpec) -> Result<LoadTicket<'_>, FleetError> {
        let mut loading = lock_recover(&self.loading);
        if loading.contains_key(&spec.name) {
            return Err(FleetError::AlreadyLoading(spec.name));
        }
        loading.insert(spec.name.clone(), spec.clone());
        Ok(LoadTicket { registry: self, spec: Some(spec) })
    }

    /// Resolves a name to its current ready version.
    ///
    /// # Errors
    ///
    /// [`FleetError::ModelLoading`] when the name's first load is still in
    /// progress, [`FleetError::NoSuchModel`] otherwise.
    pub(crate) fn get(&self, name: &str) -> Result<ModelHandle, FleetError> {
        let ready = self.ready.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = ready.get(name) {
            return Ok(ModelHandle { entry: Arc::clone(entry) });
        }
        drop(ready);
        if lock_recover(&self.loading).contains_key(name) {
            Err(FleetError::ModelLoading(name.to_string()))
        } else {
            Err(FleetError::NoSuchModel(name.to_string()))
        }
    }

    /// Removes a name and drains its current version in the background.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoSuchModel`] when no ready version exists.
    pub(crate) fn unload(&self, name: &str) -> Result<ModelInfo, FleetError> {
        let old = self
            .ready
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name)
            .ok_or_else(|| FleetError::NoSuchModel(name.to_string()))?;
        let info = ModelInfo {
            spec: old.spec.clone(),
            version: old.version,
            source: old.source,
            state: ModelState::Draining,
        };
        self.retire(old);
        Ok(info)
    }

    /// Moves `entry` to draining and spawns its reaper: wait for the last
    /// outside handle, shut the server down (answering everything still
    /// queued), mark retired.
    fn retire(&self, entry: Arc<ModelEntry>) {
        *lock_recover(&entry.state) = ModelState::Draining;
        lock_recover(&self.draining).push(Arc::downgrade(&entry));
        let log = Arc::clone(&self.retired);
        let draining = Arc::clone(&self.draining);
        let reaper = std::thread::Builder::new()
            .name(format!("fab-fleet-reaper-{}", entry.spec.name))
            .spawn(move || {
                // The registry dropped its Arc; once requests (ModelHandle
                // clones) drop theirs, ours is the last one standing (the
                // draining list only holds a Weak).
                while Arc::strong_count(&entry) > 1 {
                    std::thread::sleep(REAP_POLL);
                }
                if let Some(server) = lock_recover(&entry.server).take() {
                    server.shutdown();
                }
                *lock_recover(&entry.state) = ModelState::Retired;
                {
                    let mut log = lock_recover(&log);
                    log.push(ModelInfo {
                        spec: entry.spec.clone(),
                        version: entry.version,
                        source: entry.source,
                        state: ModelState::Retired,
                    });
                    let overflow = log.len().saturating_sub(RETIRED_HISTORY);
                    log.drain(..overflow);
                }
                // Logged as retired; stop listing it as draining. (`list`
                // dedups against the retired log, so the overlap between
                // the push above and this prune never double-counts.)
                lock_recover(&draining)
                    .retain(|w| w.upgrade().is_some_and(|e| !Arc::ptr_eq(&e, &entry)));
            })
            .expect("spawn fleet reaper");
        lock_recover(&self.reapers).push(reaper);
    }

    /// Lists every known entry — loading marks, ready/draining versions,
    /// and recently retired ones — sorted by name then version.
    pub(crate) fn list(&self) -> Vec<ModelInfo> {
        let mut out: Vec<ModelInfo> = Vec::new();
        for spec in lock_recover(&self.loading).values() {
            out.push(ModelInfo {
                spec: spec.clone(),
                version: 0,
                source: ModelSource::Trained,
                state: ModelState::Loading,
            });
        }
        {
            let ready = self.ready.read().unwrap_or_else(PoisonError::into_inner);
            for entry in ready.values() {
                out.push(ModelInfo {
                    spec: entry.spec.clone(),
                    version: entry.version,
                    source: entry.source,
                    state: *lock_recover(&entry.state),
                });
            }
        }
        out.extend(lock_recover(&self.retired).iter().cloned());
        for weak in lock_recover(&self.draining).iter() {
            let Some(entry) = weak.upgrade() else { continue };
            let info = ModelInfo {
                spec: entry.spec.clone(),
                version: entry.version,
                source: entry.source,
                state: *lock_recover(&entry.state),
            };
            if !out.iter().any(|m| m.spec.name == info.spec.name && m.version == info.version) {
                out.push(info);
            }
        }
        out.sort_by(|a, b| a.spec.name.cmp(&b.spec.name).then(a.version.cmp(&b.version)));
        out
    }

    /// Snapshots `(info, handle)` for every ready entry, for stats and
    /// metric scrapes.
    pub(crate) fn ready_models(&self) -> Vec<(ModelInfo, ModelHandle)> {
        let ready = self.ready.read().unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<(ModelInfo, ModelHandle)> = ready
            .values()
            .map(|entry| {
                (
                    ModelInfo {
                        spec: entry.spec.clone(),
                        version: entry.version,
                        source: entry.source,
                        state: *lock_recover(&entry.state),
                    },
                    ModelHandle { entry: Arc::clone(entry) },
                )
            })
            .collect();
        out.sort_by(|a, b| a.0.spec.name.cmp(&b.0.spec.name));
        out
    }

    /// Unloads everything and waits for every drain to finish. Idempotent;
    /// callers must have released their [`ModelHandle`]s or this blocks
    /// until they do.
    pub(crate) fn shutdown(&self) {
        let names: Vec<String> = {
            let ready = self.ready.read().unwrap_or_else(PoisonError::into_inner);
            ready.keys().cloned().collect()
        };
        for name in names {
            let _ = self.unload(&name);
        }
        let reapers: Vec<_> = lock_recover(&self.reapers).drain(..).collect();
        for r in reapers {
            let _ = r.join();
        }
    }
}

/// An in-progress load of one name. Commit it with the trained model's
/// running server, or drop it to abort (clearing the loading mark).
pub struct LoadTicket<'a> {
    registry: &'a Registry,
    spec: Option<ModelSpec>,
}

impl LoadTicket<'_> {
    /// Installs `server` as the new current version of the name: assigns
    /// the next version number, swaps it in atomically, and sends any
    /// previous version to drain in the background. `source` is the
    /// version's provenance tag (warm / trained / fallback), surfaced in
    /// listings, stats and metrics.
    pub(crate) fn commit_with_source(mut self, server: Server, source: ModelSource) -> ModelInfo {
        let spec = self.spec.take().expect("ticket not yet consumed");
        let registry = self.registry;
        let version = {
            let mut versions = lock_recover(&registry.versions);
            let v = versions.entry(spec.name.clone()).or_insert(0);
            *v += 1;
            *v
        };
        let entry = Arc::new(ModelEntry {
            spec: spec.clone(),
            version,
            source,
            state: Mutex::new(ModelState::Ready),
            handle: server.handle(),
            server: Mutex::new(Some(server)),
        });
        let old = registry
            .ready
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(spec.name.clone(), entry);
        lock_recover(&registry.loading).remove(&spec.name);
        if let Some(old) = old {
            registry.retire(old);
        }
        ModelInfo { spec, version, source, state: ModelState::Ready }
    }
}

impl Drop for LoadTicket<'_> {
    fn drop(&mut self) {
        if let Some(spec) = self.spec.take() {
            lock_recover(&self.registry.loading).remove(&spec.name);
        }
    }
}
