//! Daemon configuration: listener/robustness knobs plus the named model
//! profiles the daemon trains and serves.
//!
//! Config files are JSON (parsed with [`crate::json`]; the workspace has no
//! serialization crate); every field is optional and falls back to the
//! built-in default, so `{}` is a valid config.

use crate::json::Json;
use fab_chaos::ChaosSite;
use fab_fleet::{ClassWeights, FleetConfig, ModelSpec, OverloadConfig, TenantQuota};
use fab_lra::LraTask;
use fab_nn::{FrozenModel, ModelConfig, ModelKind};
use fab_serve::{InferenceSession, ServeConfig};
use fab_store::ModelArtifact;
use fabnet::pipeline::{quantize_for_serving, TrainingPipeline};
use std::fmt;

/// Which forward path a profile serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Bit-exact f32 tape-path kernels.
    Exact,
    /// Fast-math f32 frozen kernels (the serving default).
    FastMath,
    /// Post-training int8 quantization.
    Int8,
}

impl Precision {
    /// Parses `"f32"`/`"exact"`, `"fastmath"`, `"int8"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "exact" | "f32" => Some(Precision::Exact),
            "fastmath" | "fast_math" | "fast-math" => Some(Precision::FastMath),
            "int8" | "quantized" => Some(Precision::Int8),
            _ => None,
        }
    }

    /// Canonical name, matching [`fab_serve::SessionKind::name`].
    pub fn name(self) -> &'static str {
        match self {
            Precision::Exact => "exact",
            Precision::FastMath => "fastmath",
            Precision::Int8 => "int8",
        }
    }
}

fn parse_task(s: &str) -> Option<LraTask> {
    match s.to_ascii_lowercase().as_str() {
        "listops" => Some(LraTask::ListOps),
        "text" => Some(LraTask::Text),
        "retrieval" => Some(LraTask::Retrieval),
        "image" => Some(LraTask::Image),
        "pathfinder" => Some(LraTask::Pathfinder),
        _ => None,
    }
}

fn parse_arch(s: &str) -> Option<ModelKind> {
    match s.to_ascii_lowercase().as_str() {
        "transformer" => Some(ModelKind::Transformer),
        "fnet" => Some(ModelKind::FNet),
        "fabnet" | "fab-net" | "fab_net" => Some(ModelKind::FabNet),
        _ => None,
    }
}

fn arch_name(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::Transformer => "transformer",
        ModelKind::FNet => "fnet",
        ModelKind::FabNet => "fabnet",
    }
}

/// One named model profile: a tiny model trained at startup and served
/// behind `/v1/predict` under `"model": "<name>"`.
///
/// The fields fall in two parts. The *training recipe* — task, arch,
/// seq_len, hidden, layers, heads, epochs, train/test examples and seed —
/// is everything that reaches [`TrainingPipeline`]; profiles that agree on
/// it (the same training key) train bit-identical weights. The
/// *serving view* — precision and `calibration_samples` — only shapes
/// what is served from those weights, so the precision rungs of one model
/// share a single training run at boot.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Routing name (`"model"` field of predict requests).
    pub name: String,
    /// LRA-proxy task the profile trains on.
    pub task: LraTask,
    /// Encoder architecture the profile trains.
    pub arch: ModelKind,
    /// Forward path served after training.
    pub precision: Precision,
    /// Sequence length trained and served at.
    pub seq_len: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Encoder layers.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Training examples.
    pub train_examples: usize,
    /// Held-out examples.
    pub test_examples: usize,
    /// RNG seed for data and weights.
    pub seed: u64,
    /// Calibration sequences for int8 profiles.
    pub calibration_samples: usize,
}

#[cfg(test)]
thread_local! {
    /// Trainings [`ProfileConfig::train_exact`] ran on this thread, for the
    /// tests that count how often a boot trains.
    pub(crate) static TRAININGS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The training recipe of a [`ProfileConfig`]: equal keys train
/// bit-identical weights, whatever the profiles' names and serving views.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct TrainingKey {
    task: LraTask,
    arch: ModelKind,
    seq_len: usize,
    hidden: usize,
    layers: usize,
    heads: usize,
    epochs: usize,
    train_examples: usize,
    test_examples: usize,
    seed: u64,
}

impl ProfileConfig {
    /// A tiny Text-task profile named after its precision.
    pub fn tiny(name: &str, precision: Precision, seed: u64) -> Self {
        Self::tiny_task(name, LraTask::Text, precision, seed)
    }

    /// A tiny profile on any LRA-proxy task.
    pub fn tiny_task(name: &str, task: LraTask, precision: Precision, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            task,
            arch: ModelKind::FabNet,
            precision,
            seq_len: 32,
            hidden: 16,
            layers: 1,
            heads: 2,
            epochs: 1,
            train_examples: 16,
            test_examples: 8,
            seed,
            calibration_samples: 8,
        }
    }

    /// The model hyper-parameters this profile trains with.
    fn model_config(&self) -> ModelConfig {
        ModelConfig {
            hidden: self.hidden,
            ffn_ratio: 2,
            num_layers: self.layers,
            num_abfly: 0,
            num_heads: self.heads,
            vocab_size: self.task.vocab_size(),
            max_seq: self.seq_len,
            num_classes: self.task.num_classes(),
        }
    }

    /// This profile's training recipe: every field that reaches
    /// [`TrainingPipeline`], and nothing else.
    pub(crate) fn training_key(&self) -> TrainingKey {
        TrainingKey {
            task: self.task,
            arch: self.arch,
            seq_len: self.seq_len,
            hidden: self.hidden,
            layers: self.layers,
            heads: self.heads,
            epochs: self.epochs,
            train_examples: self.train_examples,
            test_examples: self.test_examples,
            seed: self.seed,
        }
    }

    /// A string capturing every knob that changes what this profile trains
    /// and serves: the training key plus the precision and calibration
    /// size of the serving view. Stored in snapshots; a mismatch at load
    /// time means the snapshot describes a *different* model (stale config)
    /// and must not be warm-started. (The `v1` layout puts the precision
    /// right after the arch; snapshots on disk pin that order.)
    pub fn fingerprint(&self) -> String {
        let key = self.training_key();
        format!(
            "v1/task={}/arch={}/precision={}/seq={}/hidden={}/layers={}/heads={}/epochs={}/\
             train={}/test={}/seed={}/calib={}",
            key.task.name(),
            arch_name(key.arch),
            self.precision.name(),
            key.seq_len,
            key.hidden,
            key.layers,
            key.heads,
            key.epochs,
            key.train_examples,
            key.test_examples,
            key.seed,
            self.calibration_samples,
        )
    }

    /// Trains this profile's recipe and freezes the weights exactly: the
    /// model every profile with the same training key serves from.
    pub(crate) fn train_exact(&self) -> FrozenModel {
        #[cfg(test)]
        TRAININGS.with(|n| n.set(n.get() + 1));
        let pipeline = TrainingPipeline::new(self.task, self.seq_len, self.seed)
            .with_examples(self.train_examples, self.test_examples)
            .with_epochs(self.epochs);
        pipeline.run(&self.model_config(), self.arch).model.freeze()
    }

    /// The artifact this profile serves, from the exact frozen model of its
    /// training key: `Exact` as it is, `FastMath` with the fast-math flag
    /// on, `Int8` through the one int8 serving recipe.
    pub(crate) fn artifact_from_exact(&self, exact: &FrozenModel) -> ModelArtifact {
        ModelArtifact(match self.precision {
            Precision::Exact => exact.clone(),
            Precision::FastMath => exact.clone().with_fast_math(true),
            Precision::Int8 => quantize_for_serving(
                exact.clone(),
                self.task,
                self.seq_len,
                self.seed,
                self.calibration_samples,
            ),
        })
    }

    /// Trains this profile and freezes it into a persistable
    /// [`ModelArtifact`] — exactly the model [`ProfileConfig::build_session`]
    /// would serve, in storable form.
    pub fn build_artifact(&self) -> ModelArtifact {
        self.artifact_from_exact(&self.train_exact())
    }

    /// Wraps an artifact (fresh-trained or snapshot-restored) into the
    /// [`InferenceSession`] this profile serves. `_fault_injection` is
    /// inert — injected faults are chaos sites, which the daemon attaches
    /// to its sessions itself — and stays for existing callers.
    pub fn session_from_artifact(
        &self,
        artifact: &ModelArtifact,
        _fault_injection: bool,
    ) -> InferenceSession {
        InferenceSession::from_frozen(artifact.0.clone())
    }

    /// Trains this profile and freezes it into an [`InferenceSession`].
    /// `_fault_injection` is inert, as in
    /// [`ProfileConfig::session_from_artifact`].
    pub fn build_session(&self, _fault_injection: bool) -> InferenceSession {
        self.session_from_artifact(&self.build_artifact(), false)
    }

    /// The fleet-registry identity of this profile.
    pub fn spec(&self) -> ModelSpec {
        ModelSpec {
            name: self.name.clone(),
            task: self.task.name().to_ascii_lowercase(),
            arch: arch_name(self.arch).to_string(),
            precision: self.precision.name().to_string(),
        }
    }

    pub(crate) fn from_json(v: &Json) -> Result<Self, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("profile missing string field 'name'")?
            .to_string();
        let mut profile = ProfileConfig::tiny(&name, Precision::FastMath, 7);
        if let Some(s) = v.get("task").and_then(Json::as_str) {
            profile.task = parse_task(s).ok_or_else(|| format!("unknown task '{s}'"))?;
        }
        if let Some(s) = v.get("arch").and_then(Json::as_str) {
            profile.arch = parse_arch(s).ok_or_else(|| format!("unknown arch '{s}'"))?;
        }
        if let Some(s) = v.get("precision").and_then(Json::as_str) {
            profile.precision =
                Precision::parse(s).ok_or_else(|| format!("unknown precision '{s}'"))?;
        }
        let fields: &mut [(&str, &mut usize)] = &mut [
            ("seq_len", &mut profile.seq_len),
            ("hidden", &mut profile.hidden),
            ("layers", &mut profile.layers),
            ("heads", &mut profile.heads),
            ("epochs", &mut profile.epochs),
            ("train_examples", &mut profile.train_examples),
            ("test_examples", &mut profile.test_examples),
            ("calibration_samples", &mut profile.calibration_samples),
        ];
        for (key, slot) in fields {
            if let Some(n) = v.get(key).and_then(Json::as_usize) {
                **slot = n;
            }
        }
        if let Some(n) = v.get("seed").and_then(Json::as_u64) {
            profile.seed = n;
        }
        Ok(profile)
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("task".to_string(), Json::Str(self.task.name().to_string())),
            ("arch".to_string(), Json::Str(arch_name(self.arch).to_string())),
            ("precision".to_string(), Json::Str(self.precision.name().to_string())),
            ("seq_len".to_string(), Json::Num(self.seq_len as f64)),
            ("hidden".to_string(), Json::Num(self.hidden as f64)),
            ("layers".to_string(), Json::Num(self.layers as f64)),
            ("heads".to_string(), Json::Num(self.heads as f64)),
            ("epochs".to_string(), Json::Num(self.epochs as f64)),
            ("train_examples".to_string(), Json::Num(self.train_examples as f64)),
            ("test_examples".to_string(), Json::Num(self.test_examples as f64)),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("calibration_samples".to_string(), Json::Num(self.calibration_samples as f64)),
        ])
    }
}

/// Top-level daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address (`host:port`; port 0 binds an ephemeral port).
    pub addr: String,
    /// Concurrent-connection cap; excess connections get `503` + close.
    pub max_connections: usize,
    /// Socket read timeout — bounds how long a slow-loris client can hold
    /// a connection thread.
    pub read_timeout_ms: u64,
    /// Socket write timeout against stalled readers.
    pub write_timeout_ms: u64,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Deadline applied to requests that carry none (0 disables).
    pub default_deadline_ms: u64,
    /// How long a graceful drain waits for open connections to finish
    /// before force-stopping the listener loop.
    pub drain_timeout_ms: u64,
    /// Enables chaos arming, by the `chaos` section or `/admin/chaos`.
    /// Off by default; only test/bench rigs turn it on.
    pub fault_injection: bool,
    /// Per-profile serving queue capacity.
    pub queue_capacity: usize,
    /// Worker threads per profile.
    pub num_workers: usize,
    /// Largest dynamic batch per profile.
    pub max_batch: usize,
    /// Batch-formation wait budget in microseconds.
    pub max_wait_us: u64,
    /// First supervisor restart backoff after a worker dies (doubles per
    /// crash up to the serving layer's cap). Test rigs raise it to freeze
    /// respawns and observe the daemon with dead workers.
    pub restart_backoff_ms: u64,
    /// Relative dequeue shares of the priority classes.
    pub class_weights: ClassWeights,
    /// Quota for tenants not named in `tenants` (including anonymous
    /// traffic). The daemon default is effectively unlimited so untagged
    /// clients behave as before tenancy existed; declare tenants (or
    /// lower this) to turn admission quotas on.
    pub default_quota: TenantQuota,
    /// Explicitly configured tenants.
    pub tenants: Vec<(String, TenantQuota)>,
    /// Bound on one tenant's queued requests per model (0 = none).
    pub per_tenant_queue_cap: usize,
    /// Snapshot store root. When set the daemon warm-starts from the last
    /// good snapshot of every profile and persists freshly trained models;
    /// when `None` every boot trains from scratch (pre-snapshot behavior).
    pub snapshot_dir: Option<String>,
    /// Snapshot versions kept per model by post-save garbage collection
    /// (floor of 1: the last-good snapshot is never collected).
    pub snapshot_keep: usize,
    /// Adaptive admission, precision degradation, and circuit breakers
    /// (all off by default; JSON section `"overload"`).
    pub overload: OverloadConfig,
    /// Seed of the deterministic chaos injector (JSON section `"chaos"`).
    pub chaos_seed: u64,
    /// Chaos sites armed at boot as `(site, every, param_ms)`. Requires
    /// `fault_injection`; a production daemon refuses to start with any.
    pub chaos_sites: Vec<(ChaosSite, u64, u64)>,
    /// The model profiles to train and serve.
    pub profiles: Vec<ProfileConfig>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:4270".to_string(),
            max_connections: 64,
            read_timeout_ms: 2_000,
            write_timeout_ms: 2_000,
            max_body_bytes: 1024 * 1024,
            default_deadline_ms: 0,
            drain_timeout_ms: 10_000,
            fault_injection: false,
            queue_capacity: 256,
            num_workers: 2,
            max_batch: 8,
            max_wait_us: 500,
            restart_backoff_ms: 10,
            class_weights: ClassWeights::default(),
            default_quota: TenantQuota { rate_per_s: 1_000_000.0, burst: 1_000_000.0, weight: 1.0 },
            tenants: Vec::new(),
            per_tenant_queue_cap: 0,
            snapshot_dir: None,
            snapshot_keep: 2,
            overload: OverloadConfig::default(),
            chaos_seed: 0,
            chaos_sites: Vec::new(),
            profiles: vec![
                ProfileConfig::tiny("text-f32", Precision::Exact, 11),
                ProfileConfig::tiny("text-fast", Precision::FastMath, 11),
                ProfileConfig::tiny("text-int8", Precision::Int8, 11),
            ],
        }
    }
}

impl DaemonConfig {
    /// The [`ServeConfig`] each profile's worker pool runs with.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            max_batch: self.max_batch,
            max_wait_us: self.max_wait_us,
            queue_capacity: self.queue_capacity,
            num_workers: self.num_workers,
            restart_backoff_ms: self.restart_backoff_ms,
        }
    }

    /// The [`FleetConfig`] the daemon's model fleet runs with.
    pub fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            serve: self.serve_config(),
            class_weights: self.class_weights.clone(),
            default_quota: self.default_quota.clone(),
            tenants: self.tenants.clone(),
            per_tenant_queue_cap: self.per_tenant_queue_cap,
            overload: self.overload.clone(),
        }
    }

    /// The full-coverage fleet: every LRA-proxy task at every precision —
    /// 15 profiles named `<task>-<f32|fast|int8>`, one process.
    pub fn full_fleet() -> Self {
        let precisions =
            [(Precision::Exact, "f32"), (Precision::FastMath, "fast"), (Precision::Int8, "int8")];
        let profiles = LraTask::ALL
            .iter()
            .enumerate()
            .flat_map(|(i, &task)| {
                precisions.iter().map(move |&(precision, suffix)| {
                    let name = format!("{}-{suffix}", task.name().to_ascii_lowercase());
                    ProfileConfig::tiny_task(&name, task, precision, 11 + i as u64)
                })
            })
            .collect();
        Self { profiles, ..Self::default() }
    }

    /// Parses a JSON config document. Unknown fields are ignored; missing
    /// fields keep their defaults.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed JSON, a non-object
    /// root, bad profile entries, or duplicate profile names.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| format!("config JSON: {e}"))?;
        if v.as_obj().is_none() {
            return Err("config root must be a JSON object".to_string());
        }
        let mut config = DaemonConfig::default();
        if let Some(s) = v.get("addr").and_then(Json::as_str) {
            config.addr = s.to_string();
        }
        let fields: &mut [(&str, &mut u64)] = &mut [
            ("read_timeout_ms", &mut config.read_timeout_ms),
            ("write_timeout_ms", &mut config.write_timeout_ms),
            ("default_deadline_ms", &mut config.default_deadline_ms),
            ("drain_timeout_ms", &mut config.drain_timeout_ms),
            ("max_wait_us", &mut config.max_wait_us),
            ("restart_backoff_ms", &mut config.restart_backoff_ms),
        ];
        for (key, slot) in fields {
            if let Some(n) = v.get(key).and_then(Json::as_u64) {
                **slot = n;
            }
        }
        let fields: &mut [(&str, &mut usize)] = &mut [
            ("max_connections", &mut config.max_connections),
            ("max_body_bytes", &mut config.max_body_bytes),
            ("queue_capacity", &mut config.queue_capacity),
            ("num_workers", &mut config.num_workers),
            ("max_batch", &mut config.max_batch),
        ];
        for (key, slot) in fields {
            if let Some(n) = v.get(key).and_then(Json::as_usize) {
                **slot = n;
            }
        }
        if let Some(b) = v.get("fault_injection").and_then(Json::as_bool) {
            config.fault_injection = b;
        }
        if let Some(w) = v.get("class_weights") {
            let class: &mut [(&str, &mut f64)] = &mut [
                ("interactive", &mut config.class_weights.interactive),
                ("batch", &mut config.class_weights.batch),
                ("background", &mut config.class_weights.background),
            ];
            for (key, slot) in class {
                if let Some(n) = w.get(key).and_then(Json::as_f64) {
                    **slot = n;
                }
            }
        }
        if let Some(q) = v.get("default_quota") {
            config.default_quota = quota_from_json(q, &config.default_quota);
        }
        if let Some(n) = v.get("per_tenant_queue_cap").and_then(Json::as_usize) {
            config.per_tenant_queue_cap = n;
        }
        if let Some(list) = v.get("tenants").and_then(Json::as_arr) {
            // Configured tenants start from the library default quota, not
            // the daemon's unlimited one: naming a tenant means limiting it.
            let base = TenantQuota::default();
            config.tenants = list
                .iter()
                .map(|t| {
                    let name = t
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("tenant missing string field 'name'")?
                        .to_string();
                    Ok((name, quota_from_json(t, &base)))
                })
                .collect::<Result<_, String>>()?;
        }
        if let Some(s) = v.get("snapshot_dir").and_then(Json::as_str) {
            config.snapshot_dir = Some(s.to_string());
        }
        if let Some(n) = v.get("snapshot_keep").and_then(Json::as_usize) {
            config.snapshot_keep = n;
        }
        if let Some(o) = v.get("overload") {
            config.overload = overload_from_json(o, &config.overload)?;
        }
        if let Some(c) = v.get("chaos") {
            if let Some(n) = c.get("seed").and_then(Json::as_u64) {
                config.chaos_seed = n;
            }
            if let Some(list) = c.get("sites").and_then(Json::as_arr) {
                config.chaos_sites = list
                    .iter()
                    .map(|s| {
                        let name = s
                            .get("site")
                            .and_then(Json::as_str)
                            .ok_or("chaos site missing string field 'site'")?;
                        let site = ChaosSite::parse(name)
                            .ok_or_else(|| format!("unknown chaos site '{name}'"))?;
                        let every = s.get("every").and_then(Json::as_u64).unwrap_or(0);
                        let param_ms = s.get("param_ms").and_then(Json::as_u64).unwrap_or(0);
                        Ok((site, every, param_ms))
                    })
                    .collect::<Result<_, String>>()?;
            }
        }
        if let Some(list) = v.get("profiles").and_then(Json::as_arr) {
            config.profiles =
                list.iter().map(ProfileConfig::from_json).collect::<Result<_, _>>()?;
        }
        config.validate_profiles()?;
        Ok(config)
    }

    /// Structural checks shared by the JSON parser and [`Self::validate`]:
    /// at least one profile, no duplicate names.
    fn validate_profiles(&self) -> Result<(), String> {
        if self.profiles.is_empty() {
            return Err("config must declare at least one profile".to_string());
        }
        let mut names: Vec<&str> = self.profiles.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        if let Some(pair) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate profile names in config: '{}'", pair[0]));
        }
        Ok(())
    }

    /// Full startup validation: profile structure plus a snapshot-store
    /// probe. Opening the store creates `snapshot_dir` if missing and
    /// write-probes it, so an unwritable root fails here — at boot, with a
    /// clear message — instead of after minutes of training.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_profiles()?;
        if let Some(dir) = &self.snapshot_dir {
            fab_store::Store::open(std::path::Path::new(dir))
                .map_err(|e| format!("snapshot_dir '{dir}' is unusable: {e}"))?;
        }
        if !self.chaos_sites.is_empty() && !self.fault_injection {
            return Err(
                "chaos sites are configured but fault_injection is off; a production daemon \
                 refuses to boot with fault injection armed"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Serializes the full effective configuration (for `--print-config`).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("addr".to_string(), Json::Str(self.addr.clone())),
            ("max_connections".to_string(), Json::Num(self.max_connections as f64)),
            ("read_timeout_ms".to_string(), Json::Num(self.read_timeout_ms as f64)),
            ("write_timeout_ms".to_string(), Json::Num(self.write_timeout_ms as f64)),
            ("max_body_bytes".to_string(), Json::Num(self.max_body_bytes as f64)),
            ("default_deadline_ms".to_string(), Json::Num(self.default_deadline_ms as f64)),
            ("drain_timeout_ms".to_string(), Json::Num(self.drain_timeout_ms as f64)),
            ("fault_injection".to_string(), Json::Bool(self.fault_injection)),
            ("queue_capacity".to_string(), Json::Num(self.queue_capacity as f64)),
            ("num_workers".to_string(), Json::Num(self.num_workers as f64)),
            ("max_batch".to_string(), Json::Num(self.max_batch as f64)),
            ("max_wait_us".to_string(), Json::Num(self.max_wait_us as f64)),
            ("restart_backoff_ms".to_string(), Json::Num(self.restart_backoff_ms as f64)),
            (
                "class_weights".to_string(),
                Json::Obj(vec![
                    ("interactive".to_string(), Json::Num(self.class_weights.interactive)),
                    ("batch".to_string(), Json::Num(self.class_weights.batch)),
                    ("background".to_string(), Json::Num(self.class_weights.background)),
                ]),
            ),
            ("default_quota".to_string(), Json::Obj(quota_to_json(&self.default_quota))),
            ("per_tenant_queue_cap".to_string(), Json::Num(self.per_tenant_queue_cap as f64)),
            ("snapshot_keep".to_string(), Json::Num(self.snapshot_keep as f64)),
            ("overload".to_string(), overload_to_json(&self.overload)),
            (
                "chaos".to_string(),
                Json::Obj(vec![
                    ("seed".to_string(), Json::Num(self.chaos_seed as f64)),
                    (
                        "sites".to_string(),
                        Json::Arr(
                            self.chaos_sites
                                .iter()
                                .map(|(site, every, param_ms)| {
                                    Json::Obj(vec![
                                        ("site".to_string(), Json::Str(site.name().to_string())),
                                        ("every".to_string(), Json::Num(*every as f64)),
                                        ("param_ms".to_string(), Json::Num(*param_ms as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "tenants".to_string(),
                Json::Arr(
                    self.tenants
                        .iter()
                        .map(|(name, q)| {
                            let mut obj = vec![("name".to_string(), Json::Str(name.clone()))];
                            obj.extend(quota_to_json(q));
                            Json::Obj(obj)
                        })
                        .collect(),
                ),
            ),
            (
                "profiles".to_string(),
                Json::Arr(self.profiles.iter().map(ProfileConfig::to_json).collect()),
            ),
        ];
        if let Some(dir) = &self.snapshot_dir {
            obj.push(("snapshot_dir".to_string(), Json::Str(dir.clone())));
        }
        Json::Obj(obj)
    }
}

fn overload_from_json(v: &Json, base: &OverloadConfig) -> Result<OverloadConfig, String> {
    let mut o = base.clone();
    if let Some(b) = v.get("adaptive").and_then(Json::as_bool) {
        o.adaptive = b;
    }
    if let Some(b) = v.get("degrade").and_then(Json::as_bool) {
        o.degrade = b;
    }
    // The admission SLO is configured in milliseconds (like every other
    // daemon latency knob) and stored in microseconds.
    if let Some(n) = v.get("slo_ms").and_then(Json::as_u64) {
        o.aimd.slo_us = n.saturating_mul(1_000);
    }
    let fields: &mut [(&str, &mut u64)] = &mut [
        ("initial_limit", &mut o.aimd.initial_limit),
        ("min_limit", &mut o.aimd.min_limit),
        ("max_limit", &mut o.aimd.max_limit),
        ("increase_every", &mut o.aimd.increase_every),
        ("decrease_pct", &mut o.aimd.decrease_pct),
        ("cooldown_ms", &mut o.aimd.cooldown_ms),
        ("degrade_dwell_ms", &mut o.degrade_dwell_ms),
        ("recover_after_ms", &mut o.recover_after_ms),
        ("breaker_open_ms", &mut o.breaker_open_ms),
    ];
    for (key, slot) in fields {
        if let Some(n) = v.get(key).and_then(Json::as_u64) {
            **slot = n;
        }
    }
    if let Some(n) = v.get("breaker_failures").and_then(Json::as_u64) {
        o.breaker_failures = u32::try_from(n).map_err(|_| "breaker_failures too large")?;
    }
    if let Some(n) = v.get("breaker_probes").and_then(Json::as_u64) {
        o.breaker_probes = u32::try_from(n).map_err(|_| "breaker_probes too large")?;
    }
    if o.aimd.decrease_pct == 0 || o.aimd.decrease_pct >= 100 {
        return Err(format!(
            "overload decrease_pct must be in [1, 99], got {}",
            o.aimd.decrease_pct
        ));
    }
    Ok(o)
}

fn overload_to_json(o: &OverloadConfig) -> Json {
    Json::Obj(vec![
        ("adaptive".to_string(), Json::Bool(o.adaptive)),
        ("initial_limit".to_string(), Json::Num(o.aimd.initial_limit as f64)),
        ("min_limit".to_string(), Json::Num(o.aimd.min_limit as f64)),
        ("max_limit".to_string(), Json::Num(o.aimd.max_limit as f64)),
        ("slo_ms".to_string(), Json::Num((o.aimd.slo_us / 1_000) as f64)),
        ("increase_every".to_string(), Json::Num(o.aimd.increase_every as f64)),
        ("decrease_pct".to_string(), Json::Num(o.aimd.decrease_pct as f64)),
        ("cooldown_ms".to_string(), Json::Num(o.aimd.cooldown_ms as f64)),
        ("degrade".to_string(), Json::Bool(o.degrade)),
        ("degrade_dwell_ms".to_string(), Json::Num(o.degrade_dwell_ms as f64)),
        ("recover_after_ms".to_string(), Json::Num(o.recover_after_ms as f64)),
        ("breaker_failures".to_string(), Json::Num(o.breaker_failures as f64)),
        ("breaker_open_ms".to_string(), Json::Num(o.breaker_open_ms as f64)),
        ("breaker_probes".to_string(), Json::Num(o.breaker_probes as f64)),
    ])
}

fn quota_from_json(v: &Json, base: &TenantQuota) -> TenantQuota {
    TenantQuota {
        rate_per_s: v.get("rate_per_s").and_then(Json::as_f64).unwrap_or(base.rate_per_s),
        burst: v.get("burst").and_then(Json::as_f64).unwrap_or(base.burst),
        weight: v.get("weight").and_then(Json::as_f64).unwrap_or(base.weight),
    }
}

fn quota_to_json(q: &TenantQuota) -> Vec<(String, Json)> {
    vec![
        ("rate_per_s".to_string(), Json::Num(q.rate_per_s)),
        ("burst".to_string(), Json::Num(q.burst)),
        ("weight".to_string(), Json::Num(q.weight)),
    ]
}

impl fmt::Display for DaemonConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_round_trips_through_json() {
        let config = DaemonConfig::default();
        let text = config.to_json().to_string();
        let parsed = DaemonConfig::from_json_str(&text).expect("round trip");
        assert_eq!(parsed.addr, config.addr);
        assert_eq!(parsed.max_connections, config.max_connections);
        assert_eq!(parsed.profiles.len(), 3);
        assert_eq!(parsed.profiles[2].precision, Precision::Int8);
    }

    #[test]
    fn empty_object_is_a_valid_config() {
        let config = DaemonConfig::from_json_str("{}").expect("defaults");
        assert_eq!(config.addr, "127.0.0.1:4270");
        assert_eq!(config.profiles.len(), 3);
    }

    #[test]
    fn bad_configs_are_rejected_with_messages() {
        for (text, needle) in [
            ("[1,2]", "object"),
            ("{\"profiles\": []}", "at least one"),
            ("{\"profiles\": [{\"task\": \"text\"}]}", "name"),
            ("{\"profiles\": [{\"name\": \"a\", \"task\": \"sudoku\"}]}", "task"),
            ("{\"profiles\": [{\"name\": \"a\", \"precision\": \"f64\"}]}", "precision"),
            ("{\"profiles\": [{\"name\": \"a\"}, {\"name\": \"a\"}]}", "duplicate"),
            ("{nope}", "JSON"),
        ] {
            let err = DaemonConfig::from_json_str(text).expect_err(text);
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn snapshot_knobs_round_trip_through_json() {
        let config =
            DaemonConfig::from_json_str(r#"{"snapshot_dir": "/tmp/snaps", "snapshot_keep": 5}"#)
                .expect("parses");
        assert_eq!(config.snapshot_dir.as_deref(), Some("/tmp/snaps"));
        assert_eq!(config.snapshot_keep, 5);
        let text = config.to_json().to_string();
        let reparsed = DaemonConfig::from_json_str(&text).expect("round trip");
        assert_eq!(reparsed.snapshot_dir.as_deref(), Some("/tmp/snaps"));
        assert_eq!(reparsed.snapshot_keep, 5);
        // Absent knobs keep the defaults: no persistence, keep 2.
        let config = DaemonConfig::from_json_str("{}").expect("defaults");
        assert_eq!(config.snapshot_dir, None);
        assert_eq!(config.snapshot_keep, 2);
    }

    #[test]
    fn fingerprint_tracks_every_training_knob() {
        let base = ProfileConfig::tiny("a", Precision::FastMath, 7);
        let mut seeded = base.clone();
        seeded.seed += 1;
        let mut deeper = base.clone();
        deeper.layers += 1;
        let mut requantized = base.clone();
        requantized.calibration_samples += 1;
        let prints: Vec<String> =
            [&base, &seeded, &deeper, &requantized].iter().map(|p| p.fingerprint()).collect();
        let mut unique = prints.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), prints.len(), "fingerprint collision: {prints:?}");
        // The name is identity, not training input: two names with the
        // same recipe may share snapshots' fingerprints.
        let mut renamed = base.clone();
        renamed.name = "b".to_string();
        assert_eq!(renamed.fingerprint(), base.fingerprint());

        // The training key moves with every field that reaches the
        // pipeline, and with nothing else.
        let training_edits: [fn(&mut ProfileConfig); 10] = [
            |p| p.task = LraTask::Retrieval,
            |p| p.arch = ModelKind::Transformer,
            |p| p.seq_len += 1,
            |p| p.hidden += 1,
            |p| p.layers += 1,
            |p| p.heads += 1,
            |p| p.epochs += 1,
            |p| p.train_examples += 1,
            |p| p.test_examples += 1,
            |p| p.seed += 1,
        ];
        for (i, edit) in training_edits.iter().enumerate() {
            let mut p = base.clone();
            edit(&mut p);
            assert_ne!(p.training_key(), base.training_key(), "training edit {i}");
            assert_ne!(p.fingerprint(), base.fingerprint(), "training edit {i}");
        }
        let serving_edits: [fn(&mut ProfileConfig); 3] = [
            |p| p.name = "b".to_string(),
            |p| p.precision = Precision::Int8,
            |p| p.calibration_samples += 1,
        ];
        for (i, edit) in serving_edits.iter().enumerate() {
            let mut p = base.clone();
            edit(&mut p);
            assert_eq!(p.training_key(), base.training_key(), "serving edit {i}");
        }
    }

    #[test]
    fn fingerprint_string_is_pinned() {
        // Snapshot directories written by earlier builds carry this string;
        // a changed layout would turn every warm boot into a retrain.
        assert_eq!(
            ProfileConfig::tiny("a", Precision::FastMath, 7).fingerprint(),
            "v1/task=Text/arch=fabnet/precision=fastmath/seq=32/hidden=16/layers=1/heads=2/\
             epochs=1/train=16/test=8/seed=7/calib=8"
        );
    }

    #[test]
    fn validate_rejects_unusable_snapshot_dir() {
        let file = std::env::temp_dir().join(format!("fabd-config-notadir-{}", std::process::id()));
        std::fs::write(&file, b"occupied").expect("create file");
        let config = DaemonConfig {
            snapshot_dir: Some(file.join("nested").to_string_lossy().into_owned()),
            ..DaemonConfig::default()
        };
        let err = config.validate().expect_err("path under a file");
        assert!(err.contains("snapshot_dir"), "{err}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn precision_names_round_trip() {
        for p in [Precision::Exact, Precision::FastMath, Precision::Int8] {
            assert_eq!(Precision::parse(p.name()), Some(p));
        }
        assert_eq!(Precision::parse("F32"), Some(Precision::Exact));
        assert!(Precision::parse("bf16").is_none());
    }

    #[test]
    fn full_fleet_covers_every_task_at_every_precision() {
        let config = DaemonConfig::full_fleet();
        assert_eq!(config.profiles.len(), 15);
        let mut names: Vec<&str> = config.profiles.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15, "profile names must be unique");
        for task in LraTask::ALL {
            for precision in [Precision::Exact, Precision::FastMath, Precision::Int8] {
                assert!(
                    config.profiles.iter().any(|p| p.task == task && p.precision == precision),
                    "missing {task:?} at {precision:?}"
                );
            }
        }
    }

    #[test]
    fn fleet_knobs_round_trip_through_json() {
        // "scheduler" named a knob older configs may still carry; like any
        // unknown key it is ignored.
        let text = r#"{
            "scheduler": "length-bucket",
            "class_weights": {"interactive": 8, "background": 2},
            "default_quota": {"rate_per_s": 50, "burst": 10},
            "per_tenant_queue_cap": 7,
            "tenants": [
                {"name": "alice", "rate_per_s": 20, "burst": 5, "weight": 3},
                {"name": "bg", "weight": 0.5}
            ],
            "profiles": [{"name": "px", "task": "pathfinder", "arch": "fnet"}]
        }"#;
        let config = DaemonConfig::from_json_str(text).expect("parses");
        assert_eq!(config.class_weights.interactive, 8.0);
        assert_eq!(config.class_weights.batch, ClassWeights::default().batch);
        assert_eq!(config.default_quota.rate_per_s, 50.0);
        assert_eq!(config.per_tenant_queue_cap, 7);
        assert_eq!(
            config.tenants[0],
            ("alice".to_string(), TenantQuota { rate_per_s: 20.0, burst: 5.0, weight: 3.0 },)
        );
        // An omitted tenant field falls back to the library default quota.
        assert_eq!(config.tenants[1].1.rate_per_s, TenantQuota::default().rate_per_s);
        assert_eq!(config.profiles[0].task, LraTask::Pathfinder);
        assert_eq!(config.profiles[0].arch, ModelKind::FNet);
        let spec = config.profiles[0].spec();
        assert_eq!((spec.task.as_str(), spec.arch.as_str()), ("pathfinder", "fnet"));

        let reparsed =
            DaemonConfig::from_json_str(&config.to_json().to_string()).expect("round trip");
        assert_eq!(reparsed.tenants, config.tenants);
        assert_eq!(reparsed.profiles[0].arch, config.profiles[0].arch);
        assert!(!config.to_json().to_string().contains("scheduler"));
    }

    #[test]
    fn overload_and_chaos_knobs_round_trip_through_json() {
        let text = r#"{
            "fault_injection": true,
            "overload": {
                "adaptive": true, "initial_limit": 16, "min_limit": 2, "max_limit": 128,
                "slo_ms": 80, "increase_every": 4, "decrease_pct": 60, "cooldown_ms": 50,
                "degrade": true, "degrade_dwell_ms": 120, "recover_after_ms": 900,
                "breaker_failures": 3, "breaker_open_ms": 700, "breaker_probes": 2
            },
            "chaos": {
                "seed": 42,
                "sites": [
                    {"site": "slow_forward", "every": 3, "param_ms": 40},
                    {"site": "panic_forward", "every": 10}
                ]
            }
        }"#;
        let config = DaemonConfig::from_json_str(text).expect("parses");
        assert!(config.overload.adaptive);
        assert!(config.overload.degrade);
        assert_eq!(config.overload.aimd.initial_limit, 16);
        assert_eq!(config.overload.aimd.slo_us, 80_000);
        assert_eq!(config.overload.aimd.decrease_pct, 60);
        assert_eq!(config.overload.degrade_dwell_ms, 120);
        assert_eq!(config.overload.breaker_failures, 3);
        assert_eq!(config.chaos_seed, 42);
        assert_eq!(
            config.chaos_sites,
            vec![(ChaosSite::SlowForward, 3, 40), (ChaosSite::PanicForward, 10, 0)]
        );
        config.validate().expect("chaos allowed under fault_injection");

        let reparsed =
            DaemonConfig::from_json_str(&config.to_json().to_string()).expect("round trip");
        assert_eq!(reparsed.overload, config.overload);
        assert_eq!(reparsed.chaos_seed, config.chaos_seed);
        assert_eq!(reparsed.chaos_sites, config.chaos_sites);

        // Defaults: everything off.
        let config = DaemonConfig::from_json_str("{}").expect("defaults");
        assert!(!config.overload.adaptive);
        assert!(!config.overload.degrade);
        assert_eq!(config.overload.breaker_failures, 0);
        assert!(config.chaos_sites.is_empty());

        // Bad knobs are rejected with messages.
        for (text, needle) in [
            (r#"{"overload": {"decrease_pct": 0}}"#, "decrease_pct"),
            (r#"{"overload": {"decrease_pct": 100}}"#, "decrease_pct"),
            (r#"{"chaos": {"sites": [{"site": "meteor"}]}}"#, "chaos site"),
            (r#"{"chaos": {"sites": [{"every": 3}]}}"#, "site"),
        ] {
            let err = DaemonConfig::from_json_str(text).expect_err(text);
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn chaos_sites_require_fault_injection_to_boot() {
        let text = r#"{"chaos": {"sites": [{"site": "slow_forward", "every": 2}]}}"#;
        let config = DaemonConfig::from_json_str(text).expect("parses");
        let err = config.validate().expect_err("chaos without fault_injection");
        assert!(err.contains("fault_injection"), "{err}");
    }

    #[test]
    fn poison_token_site_is_gated_on_fault_injection() {
        let text = r#"{"chaos": {"sites": [{"site": "poison_token", "every": 1, "param_ms": 7}]}}"#;
        let mut config = DaemonConfig::from_json_str(text).expect("parses");
        assert_eq!(config.chaos_sites, vec![(ChaosSite::PoisonToken, 1, 7)]);
        config.validate().expect_err("poison_token without fault_injection");
        config.fault_injection = true;
        config.validate().expect("poison_token allowed under fault_injection");
    }
}
