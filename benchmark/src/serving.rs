//! What the two serving workloads and the ladder share: daemon configs,
//! independently built reference sessions, expected answers, and the
//! transports that carry a request into the stack at each rung.

use crate::loadgen::Transport;
use crate::mix::{request_mix, MixHash, MixSpec, Request};
use crate::spec;
use fab_fleet::Fleet;
use fab_lra::LraTask;
use fab_nn::ModelKind;
use fab_serve::{InferenceSession, Priority, ServerHandle, SessionScratch};
use fabd::{Daemon, DaemonConfig, FabClient, Json, Precision, ProfileConfig, RetryPolicy};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A daemon on an ephemeral loopback port with generous socket timeouts
/// (a benchmark stall must show as latency, not as a 408).
fn loopback(profiles: Vec<ProfileConfig>) -> DaemonConfig {
    DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        read_timeout_ms: 60_000,
        write_timeout_ms: 60_000,
        drain_timeout_ms: 60_000,
        profiles,
        ..DaemonConfig::default()
    }
}

/// `small-closed`: the daemon's default profiles and knobs.
pub fn small_config() -> DaemonConfig {
    loopback(DaemonConfig::default().profiles)
}

/// `batch-open`: `{fab,tfm}-{f32,fast,int8}` on LRA-Text.
pub fn batch_config() -> DaemonConfig {
    let archs = [(ModelKind::FabNet, "fab"), (ModelKind::Transformer, "tfm")];
    let precisions =
        [(Precision::Exact, "f32"), (Precision::FastMath, "fast"), (Precision::Int8, "int8")];
    let profiles = archs
        .iter()
        .flat_map(|&(arch, a)| {
            precisions.iter().map(move |&(precision, p)| ProfileConfig {
                arch,
                hidden: spec::BATCH_HIDDEN,
                layers: spec::BATCH_LAYERS,
                heads: spec::BATCH_HEADS,
                seq_len: spec::BATCH_SEQ_LEN,
                ..ProfileConfig::tiny(&format!("{a}-{p}"), precision, 11)
            })
        })
        .collect();
    loopback(profiles)
}

pub fn small_mix_spec(config: &DaemonConfig) -> MixSpec {
    MixSpec {
        models: config.profiles.len(),
        sequences_per_request: 1,
        min_len: spec::SMALL_MIN_LEN,
        max_len: spec::SMALL_MAX_LEN,
        vocab: LraTask::Text.vocab_size(),
        alternate_priority: false,
    }
}

pub fn batch_mix_spec(config: &DaemonConfig) -> MixSpec {
    MixSpec {
        models: config.profiles.len(),
        sequences_per_request: spec::BATCH_SEQS_PER_REQUEST,
        min_len: spec::BATCH_MIN_LEN,
        max_len: spec::BATCH_MAX_LEN,
        vocab: LraTask::Text.vocab_size(),
        alternate_priority: true,
    }
}

/// Sessions the benchmark trains itself from the same `ProfileConfig`s,
/// never handed to the daemon: the reference every served answer is
/// compared with.
pub fn reference_sessions(config: &DaemonConfig) -> Vec<InferenceSession> {
    config.profiles.iter().map(|p| p.build_session(false)).collect()
}

/// The answer a correct stack gives for one sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub class: usize,
    pub logits: Vec<f32>,
}

/// Expected answers for a whole pool, indexed `[request][sequence]`,
/// computed on both cores.
pub fn expectations(sessions: &[InferenceSession], pool: &[Request]) -> Vec<Vec<Expected>> {
    let one = |r: &Request| -> Vec<Expected> {
        r.sequences
            .iter()
            .map(|tokens| {
                let logits = sessions[r.model].logits(tokens);
                Expected { class: fab_nn::argmax(&logits), logits }
            })
            .collect()
    };
    let half = pool.len() / 2;
    std::thread::scope(|scope| {
        let back = scope.spawn(|| pool[half..].iter().map(one).collect::<Vec<_>>());
        let mut all: Vec<Vec<Expected>> = pool[..half].iter().map(one).collect();
        all.extend(back.join().expect("expectation thread"));
        all
    })
}

/// Whether a served prediction object equals the expected answer: same
/// class, and logits bit-equal after casting the JSON numbers back to f32.
pub fn prediction_matches(v: &Json, expected: &Expected) -> bool {
    let class_ok = v.get("class").and_then(Json::as_usize) == Some(expected.class);
    let logits_ok = v.get("logits").and_then(Json::as_arr).is_some_and(|arr| {
        arr.len() == expected.logits.len()
            && arr
                .iter()
                .zip(&expected.logits)
                .all(|(j, &e)| j.as_f64().is_some_and(|x| (x as f32).to_bits() == e.to_bits()))
    });
    class_ok && logits_ok
}

/// Server-side accounting carried by predict responses: one queue wait
/// and one service time per request, a batch size per sequence.
#[derive(Debug, Clone, Default)]
pub struct ServerFields {
    pub queue_wait_us: Vec<f64>,
    pub service_us: Vec<f64>,
    pub batch_size: Vec<f64>,
}

impl ServerFields {
    /// Takes the fields of one request's predictions. The sequences of a
    /// `predict_batch` are served side by side, so the request spent inside
    /// `fab-serve` what its slowest sequence did: that one's wait and service
    /// are the request's.
    fn take(&mut self, predictions: &[Json]) {
        let num = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let inside = |v: &Json| num(v, "queue_wait_us") + num(v, "service_us");
        let slowest = predictions.iter().max_by(|a, b| inside(a).total_cmp(&inside(b)));
        if let Some(v) = slowest {
            self.queue_wait_us.push(num(v, "queue_wait_us"));
            self.service_us.push(num(v, "service_us"));
        }
        self.batch_size.extend(predictions.iter().map(|v| num(v, "batch_size")));
    }

    pub fn absorb(&mut self, other: ServerFields) {
        self.queue_wait_us.extend(other.queue_wait_us);
        self.service_us.extend(other.service_us);
        self.batch_size.extend(other.batch_size);
    }
}

pub fn no_retry_client(addr: &str) -> FabClient {
    let policy = RetryPolicy { max_retries: 0, base_ms: 1, max_ms: 1 };
    FabClient::with_policy(addr, policy, 1).with_timeout(Duration::from_secs(60))
}

/// `POST /v1/predict_batch` body of one request.
pub fn batch_body(model: &str, request: &Request) -> String {
    let sequences = request
        .sequences
        .iter()
        .map(|s| Json::Arr(s.iter().map(|&t| Json::Num(t as f64)).collect()))
        .collect();
    Json::Obj(vec![
        ("model".to_string(), Json::Str(model.to_string())),
        (
            "priority".to_string(),
            Json::Str(if request.interactive { "interactive" } else { "batch" }.to_string()),
        ),
        ("sequences".to_string(), Json::Arr(sequences)),
    ])
    .to_string()
}

/// What every transport needs to judge an answer.
#[derive(Clone)]
pub struct Judge {
    pub names: Arc<Vec<String>>,
    pub expected: Arc<Vec<Vec<Expected>>>,
}

/// Rung 3: a keep-alive [`FabClient`]. Single-sequence requests go through
/// `FabClient::predict`, multi-sequence ones to `/v1/predict_batch` with a
/// body rendered before the run.
pub struct HttpTransport {
    pub client: FabClient,
    pub judge: Judge,
    /// Pre-rendered `predict_batch` bodies by pool index (empty for
    /// single-sequence pools).
    pub bodies: Arc<Vec<String>>,
    /// Collect `queue_wait_us` / `service_us` / `batch_size` (traced runs).
    pub fields: Option<ServerFields>,
    /// Connect anew for every request (the connection-cost probe).
    pub reconnect: Option<String>,
}

impl HttpTransport {
    pub fn new(addr: &str, judge: Judge, bodies: Arc<Vec<String>>, collect_fields: bool) -> Self {
        Self {
            client: no_retry_client(addr),
            judge,
            bodies,
            fields: collect_fields.then(ServerFields::default),
            reconnect: None,
        }
    }
}

impl Transport for HttpTransport {
    fn send(&mut self, index: usize, request: &Request) -> bool {
        if let Some(addr) = &self.reconnect {
            self.client = no_retry_client(addr);
        }
        let expected = &self.judge.expected[index];
        if self.bodies.is_empty() {
            let model = &self.judge.names[request.model];
            match self.client.predict(Some(model), &request.sequences[0], None) {
                Ok(v) => {
                    if let Some(f) = &mut self.fields {
                        f.take(std::slice::from_ref(&v));
                    }
                    prediction_matches(&v, &expected[0])
                }
                Err(_) => false,
            }
        } else {
            let body = self.bodies[index].as_bytes();
            match self.client.request_json("POST", "/v1/predict_batch", body) {
                Ok(v) => {
                    let results = v.get("results").and_then(Json::as_arr).unwrap_or(&[]);
                    if let Some(f) = &mut self.fields {
                        f.take(results);
                    }
                    results.len() == expected.len()
                        && results.iter().zip(expected).all(|(r, e)| prediction_matches(r, e))
                }
                Err(_) => false,
            }
        }
    }
}

fn logits_match(logits: &[f32], expected: &Expected) -> bool {
    logits.len() == expected.logits.len()
        && logits.iter().zip(&expected.logits).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Rung 0: `InferenceSession::logits_batch`, batch 1, on the caller's
/// thread.
pub struct SessionTransport {
    pub sessions: Arc<Vec<InferenceSession>>,
    pub scratch: SessionScratch,
    pub judge: Judge,
}

impl Transport for SessionTransport {
    fn send(&mut self, index: usize, request: &Request) -> bool {
        let tokens = request.sequences[0].as_slice();
        let out =
            self.sessions[request.model].logits_batch(&[tokens], tokens.len(), &mut self.scratch);
        logits_match(&out[0], &self.judge.expected[index][0])
    }
}

/// Rung 1: `ServerHandle::submit` then `wait`.
pub struct ServerTransport {
    pub handles: Vec<ServerHandle>,
    pub judge: Judge,
}

impl Transport for ServerTransport {
    fn send(&mut self, index: usize, request: &Request) -> bool {
        let pending = self.handles[request.model].submit(request.sequences[0].clone());
        match pending.and_then(|p| p.wait()) {
            Ok(p) => {
                let e = &self.judge.expected[index][0];
                p.class == e.class && logits_match(&p.logits, e)
            }
            Err(_) => false,
        }
    }
}

/// Rung 2: `Fleet::submit` then `wait`. Records the time of the `submit`
/// call alone beside the whole exchange.
pub struct FleetTransport {
    pub fleet: Arc<Fleet>,
    pub judge: Judge,
    pub submit_us: Vec<f64>,
}

impl Transport for FleetTransport {
    fn send(&mut self, index: usize, request: &Request) -> bool {
        let model = &self.judge.names[request.model];
        let priority = if request.interactive { Priority::Interactive } else { Priority::Batch };
        let t = std::time::Instant::now();
        let pending = self.fleet.submit(model, None, priority, request.sequences[0].clone(), None);
        self.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        match pending.map(|p| p.wait()) {
            Ok(Ok(p)) => {
                let e = &self.judge.expected[index][0];
                p.class == e.class && logits_match(&p.logits, e)
            }
            _ => false,
        }
    }
}

/// Cold boot: `Daemon::start` (train, freeze, calibrate/quantize, spawn)
/// until every model has answered one request. Returns the daemon and the
/// seconds it took.
pub fn boot(config: &DaemonConfig) -> (Daemon, f64) {
    let t = Instant::now();
    let daemon = Daemon::start(config.clone()).expect("daemon starts");
    let mut client = no_retry_client(&daemon.addr().to_string());
    for p in &config.profiles {
        client.predict(Some(&p.name), &[1, 2, 3, 4], None).expect("first predict");
    }
    (daemon, t.elapsed().as_secs_f64())
}

/// Boots `n` times (shutting all but the last daemon down again) and
/// returns the last daemon with every boot's seconds.
pub fn boot_repeated(config: &DaemonConfig, n: usize) -> (Daemon, Vec<f64>) {
    let mut times = Vec::new();
    loop {
        let (daemon, s) = boot(config);
        times.push(s);
        if times.len() >= n.max(1) {
            return (daemon, times);
        }
        daemon.shutdown();
    }
}

/// A booted daemon with the pool, expected answers and bodies a serving
/// workload sends at it.
pub struct Rig {
    pub daemon: Daemon,
    pub addr: String,
    pub pool: Vec<Request>,
    pub judge: Judge,
    pub bodies: Arc<Vec<String>>,
    pub setup_s: Vec<f64>,
    pub mix_hash: MixHash,
}

impl Rig {
    /// Boots `config` `setups` times, generates `pool_size` requests from
    /// `seed`, and computes their expected answers on reference sessions
    /// built independently of the daemon.
    pub fn new(
        config: &DaemonConfig,
        mix: &MixSpec,
        seed: u64,
        pool_size: usize,
        setups: usize,
    ) -> Self {
        let (daemon, setup_s) = boot_repeated(config, setups);
        let pool = request_mix(mix, seed, pool_size);
        let mut mix_hash = MixHash::default();
        mix_hash.add_requests(&pool);
        let names: Vec<String> = config.profiles.iter().map(|p| p.name.clone()).collect();
        let expected = expectations(&reference_sessions(config), &pool);
        let bodies = if mix.sequences_per_request > 1 {
            pool.iter().map(|r| batch_body(&names[r.model], r)).collect()
        } else {
            Vec::new()
        };
        Self {
            addr: daemon.addr().to_string(),
            daemon,
            pool,
            judge: Judge { names: Arc::new(names), expected: Arc::new(expected) },
            bodies: Arc::new(bodies),
            setup_s,
            mix_hash,
        }
    }

    /// One keep-alive HTTP transport per sender.
    pub fn http(&self, collect_fields: bool) -> Vec<HttpTransport> {
        (0..spec::SENDERS)
            .map(|_| {
                HttpTransport::new(
                    &self.addr,
                    self.judge.clone(),
                    Arc::clone(&self.bodies),
                    collect_fields,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_prediction_matches_only_its_exact_answer() {
        let expected = Expected { class: 1, logits: vec![0.1f32, 0.7f32] };
        let answer = |class: f64, l0: f32, l1: f32| {
            Json::Obj(vec![
                ("class".to_string(), Json::Num(class)),
                (
                    "logits".to_string(),
                    Json::Arr(vec![Json::Num(f64::from(l0)), Json::Num(f64::from(l1))]),
                ),
            ])
        };
        assert!(prediction_matches(&answer(1.0, 0.1, 0.7), &expected));
        assert!(!prediction_matches(&answer(0.0, 0.1, 0.7), &expected), "wrong class");
        let nudged = f32::from_bits(0.7f32.to_bits() + 1);
        assert!(!prediction_matches(&answer(1.0, 0.1, nudged), &expected), "one ulp off");
        assert!(!prediction_matches(&Json::Obj(vec![]), &expected), "error object");
        // The JSON text round trip the daemon performs keeps f32 bits.
        let text = answer(1.0, 0.1, 0.7).to_string();
        assert!(prediction_matches(&Json::parse(&text).unwrap(), &expected));
    }

    #[test]
    fn batch_body_carries_model_priority_and_sequences() {
        let r = Request { model: 0, interactive: false, sequences: vec![vec![1, 2], vec![3]] };
        let v = Json::parse(&batch_body("tfm-int8", &r)).unwrap();
        assert_eq!(v.get("model").and_then(Json::as_str), Some("tfm-int8"));
        assert_eq!(v.get("priority").and_then(Json::as_str), Some("batch"));
        let seqs = v.get("sequences").and_then(Json::as_arr).unwrap();
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[0].as_arr().unwrap().len(), 2);
    }
}
