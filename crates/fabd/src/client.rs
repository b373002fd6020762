//! A loopback HTTP client for the daemon, shared by `fabctl`, the e2e
//! tests and the `benchmark` crate.
//!
//! The client keeps one persistent keep-alive connection and retries
//! transient failures — connection refused/reset and `429 Too Many
//! Requests` — with jittered exponential backoff, honouring the server's
//! `Retry-After` hint when one is present. Anything else (4xx validation
//! errors, 5xx model failures, 504 deadline misses) is surfaced to the
//! caller immediately: retrying a deterministic failure only adds load.

use crate::http::{read_response, write_request, ClientResponse, HttpError};
use crate::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::io::{self, BufReader};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

/// Retry/backoff policy for transient failures.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts beyond the first (0 disables retries).
    pub max_retries: u32,
    /// First backoff delay; doubles each attempt.
    pub base_ms: u64,
    /// Backoff ceiling.
    pub max_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 5, base_ms: 20, max_ms: 2_000 }
    }
}

impl RetryPolicy {
    /// The jittered delay before retry number `attempt` (0-based), taking
    /// the server's `retry_after_ms` hint as a floor when present.
    ///
    /// Full jitter over the exponential window: `uniform(delay/2, delay)`.
    /// Without jitter, every client that got a 429 from the same overload
    /// burst would retry at the same instant and recreate the burst.
    fn delay(&self, attempt: u32, hint_ms: Option<u64>, rng: &mut StdRng) -> Duration {
        let exp = self.base_ms.saturating_mul(1u64 << attempt.min(20)).min(self.max_ms);
        let target = hint_ms.map_or(exp, |hint| exp.max(hint)).min(self.max_ms).max(1);
        let jitter: f64 = rng.gen_range(0.5..=1.0);
        let jittered = (target as f64 * jitter).round() as u64;
        Duration::from_millis(jittered.max(1))
    }
}

/// Why a client call failed after exhausting its retries.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect or the socket failed mid-request.
    Io(io::Error),
    /// The response was not valid HTTP.
    Protocol(HttpError),
    /// The server answered with an error status (after retries for 429).
    Status {
        /// HTTP status code.
        status: u16,
        /// The error body (usually `{"error": ...}` JSON).
        body: String,
    },
    /// A 2xx body failed to parse as the expected JSON.
    BadBody(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Status { status, body } => {
                write!(f, "server answered {status}: {body}")
            }
            ClientError::BadBody(msg) => write!(f, "unexpected response body: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A persistent-connection client for one daemon address.
pub struct FabClient {
    addr: String,
    timeout: Duration,
    max_body: usize,
    retry: RetryPolicy,
    rng: StdRng,
    /// The open connection, read through one buffer for its whole life and
    /// written through `get_mut`.
    conn: Option<BufReader<TcpStream>>,
}

impl FabClient {
    /// Creates a client for `addr` (`host:port`) with default retries.
    pub fn new(addr: &str) -> Self {
        Self::with_policy(addr, RetryPolicy::default(), 0x5eed)
    }

    /// Creates a client with an explicit retry policy and jitter seed.
    pub fn with_policy(addr: &str, retry: RetryPolicy, seed: u64) -> Self {
        Self {
            addr: addr.to_string(),
            timeout: Duration::from_secs(10),
            max_body: 16 * 1024 * 1024,
            retry,
            rng: StdRng::seed_from_u64(seed),
            conn: None,
        }
    }

    /// Sets the per-socket read/write timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    fn connect(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().expect("connection just set"))
    }

    /// One request/response exchange on the persistent connection, no
    /// retries. Drops the connection on any failure so the next attempt
    /// reconnects from scratch.
    fn exchange(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        let max_body = self.max_body;
        let result = (|| {
            let conn = self.connect().map_err(ClientError::Io)?;
            write_request(conn.get_mut(), method, target, &[], body).map_err(ClientError::Io)?;
            read_response(conn, max_body).map_err(|e| match e {
                HttpError::Io(io) => ClientError::Io(io),
                other => ClientError::Protocol(other),
            })
        })();
        match &result {
            Err(_) => self.conn = None,
            Ok(resp) if !resp.keep_alive() => self.conn = None,
            Ok(_) => {}
        }
        result
    }

    /// Issues a request, retrying transient failures (connect errors and
    /// 429) with jittered exponential backoff.
    ///
    /// # Errors
    ///
    /// [`ClientError`] once retries are exhausted or on a non-transient
    /// failure.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        let mut attempt = 0u32;
        loop {
            let (retryable, hint_ms, result) = match self.exchange(method, target, body) {
                Ok(resp) if resp.status == 429 => {
                    let hint = retry_hint_ms(&resp);
                    (true, hint, Ok(resp))
                }
                // A 503 carrying a retry hint is an explicit "come back
                // later" (connection cap, open circuit, model loading). A
                // bare 503 is a statement about this endpoint, not a
                // promise it clears — surface it immediately.
                Ok(resp) if resp.status == 503 => {
                    let hint = retry_hint_ms(&resp);
                    (hint.is_some(), hint, Ok(resp))
                }
                Ok(resp) => (false, None, Ok(resp)),
                Err(ClientError::Io(e)) => (true, None, Err(ClientError::Io(e))),
                Err(e) => (false, None, Err(e)),
            };
            if !retryable || attempt >= self.retry.max_retries {
                return match result {
                    Ok(resp) if retryable => {
                        Err(ClientError::Status { status: resp.status, body: resp.body_text() })
                    }
                    other => other,
                };
            }
            let delay = self.retry.delay(attempt, hint_ms, &mut self.rng);
            thread::sleep(delay);
            attempt += 1;
        }
    }

    /// Issues a request and parses a 2xx body as JSON.
    ///
    /// # Errors
    ///
    /// [`ClientError::Status`] for non-2xx answers, otherwise as
    /// [`FabClient::request`].
    pub fn request_json(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<Json, ClientError> {
        let resp = self.request(method, target, body)?;
        if !(200..300).contains(&resp.status) {
            return Err(ClientError::Status { status: resp.status, body: resp.body_text() });
        }
        Json::parse(&resp.body_text()).map_err(|e| ClientError::BadBody(e.to_string()))
    }

    /// `POST /v1/predict` for `tokens` against `model` (server default when
    /// `None`), with an optional deadline.
    ///
    /// # Errors
    ///
    /// See [`FabClient::request_json`]; deadline misses surface as
    /// [`ClientError::Status`] with status 504.
    pub fn predict(
        &mut self,
        model: Option<&str>,
        tokens: &[usize],
        deadline_ms: Option<u64>,
    ) -> Result<Json, ClientError> {
        self.predict_qos(model, tokens, deadline_ms, None, None)
    }

    /// [`FabClient::predict`] with QoS labels: `tenant` fills the body's
    /// `tenant` field (token-bucket admission), `priority` its `priority`
    /// class (`interactive` / `batch` / `background`). A `429` — whether
    /// from the tenant's bucket or the model's queue — is retried with the
    /// server's own per-source `retry_after_ms` hint flooring the backoff.
    ///
    /// # Errors
    ///
    /// See [`FabClient::predict`].
    pub fn predict_qos(
        &mut self,
        model: Option<&str>,
        tokens: &[usize],
        deadline_ms: Option<u64>,
        tenant: Option<&str>,
        priority: Option<&str>,
    ) -> Result<Json, ClientError> {
        let mut obj = Vec::new();
        if let Some(model) = model {
            obj.push(("model".to_string(), Json::Str(model.to_string())));
        }
        obj.push((
            "tokens".to_string(),
            Json::Arr(tokens.iter().map(|&t| Json::Num(t as f64)).collect()),
        ));
        if let Some(ms) = deadline_ms {
            obj.push(("deadline_ms".to_string(), Json::Num(ms as f64)));
        }
        if let Some(tenant) = tenant {
            obj.push(("tenant".to_string(), Json::Str(tenant.to_string())));
        }
        if let Some(priority) = priority {
            obj.push(("priority".to_string(), Json::Str(priority.to_string())));
        }
        let body = Json::Obj(obj).to_string();
        self.request_json("POST", "/v1/predict", body.as_bytes())
    }

    /// `GET /v1/models`: the model registry (names, versions, states).
    ///
    /// # Errors
    ///
    /// See [`FabClient::request_json`].
    pub fn models_list(&mut self) -> Result<Json, ClientError> {
        self.request_json("GET", "/v1/models", b"")
    }

    /// `POST /admin/models {"action": "load"}`: train and hot-swap the
    /// given profile definition (new name or new version of an old name).
    ///
    /// # Errors
    ///
    /// See [`FabClient::request_json`].
    pub fn models_load(&mut self, profile: &Json) -> Result<Json, ClientError> {
        let body = Json::Obj(vec![
            ("action".to_string(), Json::Str("load".to_string())),
            ("profile".to_string(), profile.clone()),
        ])
        .to_string();
        self.request_json("POST", "/admin/models", body.as_bytes())
    }

    /// `POST /admin/models {"action": "reload"}`: re-train the stored
    /// profile for `name` and hot-swap it in (version bump).
    ///
    /// # Errors
    ///
    /// See [`FabClient::request_json`].
    pub fn models_reload(&mut self, name: &str) -> Result<Json, ClientError> {
        self.model_action("reload", name)
    }

    /// `POST /admin/models {"action": "unload"}`: remove `name`; its
    /// current version drains in the background.
    ///
    /// # Errors
    ///
    /// See [`FabClient::request_json`].
    pub fn models_unload(&mut self, name: &str) -> Result<Json, ClientError> {
        self.model_action("unload", name)
    }

    fn model_action(&mut self, action: &str, name: &str) -> Result<Json, ClientError> {
        let body = Json::Obj(vec![
            ("action".to_string(), Json::Str(action.to_string())),
            ("model".to_string(), Json::Str(name.to_string())),
        ])
        .to_string();
        self.request_json("POST", "/admin/models", body.as_bytes())
    }

    /// `GET /v1/stats` as JSON.
    ///
    /// # Errors
    ///
    /// See [`FabClient::request_json`].
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.request_json("GET", "/v1/stats", b"")
    }

    /// `GET /metrics` as Prometheus text.
    ///
    /// # Errors
    ///
    /// See [`FabClient::request`].
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let resp = self.request("GET", "/metrics", b"")?;
        if resp.status != 200 {
            return Err(ClientError::Status { status: resp.status, body: resp.body_text() });
        }
        Ok(resp.body_text())
    }

    /// `POST /admin/shutdown`: asks the daemon to drain.
    ///
    /// # Errors
    ///
    /// See [`FabClient::request_json`].
    pub fn drain(&mut self) -> Result<Json, ClientError> {
        self.request_json("POST", "/admin/shutdown", b"")
    }

    /// `GET /readyz`; `Ok(true)` when the daemon is accepting traffic.
    ///
    /// # Errors
    ///
    /// See [`FabClient::request`].
    pub fn ready(&mut self) -> Result<bool, ClientError> {
        Ok(self.request("GET", "/readyz", b"")?.status == 200)
    }

    /// `POST /admin/snapshot`: persist every loaded model to the snapshot
    /// store now (no retraining).
    ///
    /// # Errors
    ///
    /// See [`FabClient::request_json`]; a daemon running without a
    /// `snapshot_dir` answers `503`.
    pub fn snapshot_trigger(&mut self) -> Result<Json, ClientError> {
        self.request_json("POST", "/admin/snapshot", b"")
    }

    /// `GET /admin/snapshot`: every snapshot version on disk.
    ///
    /// # Errors
    ///
    /// See [`FabClient::request_json`].
    pub fn snapshot_list(&mut self) -> Result<Json, ClientError> {
        self.request_json("GET", "/admin/snapshot", b"")
    }

    /// `GET /v1/circuits`: per-model breaker state, admission limiter and
    /// degrade ladder.
    ///
    /// # Errors
    ///
    /// See [`FabClient::request_json`].
    pub fn circuits(&mut self) -> Result<Json, ClientError> {
        self.request_json("GET", "/v1/circuits", b"")
    }

    /// `POST /admin/degrade`: pin `model` to degrade rung `level`, or
    /// return it to adaptive control with `None`.
    ///
    /// # Errors
    ///
    /// See [`FabClient::request_json`].
    pub fn degrade(&mut self, model: &str, level: Option<usize>) -> Result<Json, ClientError> {
        let body = Json::Obj(vec![
            ("model".to_string(), Json::Str(model.to_string())),
            (
                "level".to_string(),
                match level {
                    Some(l) => Json::Num(l as f64),
                    None => Json::Null,
                },
            ),
        ])
        .to_string();
        self.request_json("POST", "/admin/degrade", body.as_bytes())
    }

    /// `GET /admin/chaos`: per-site injection rates and fire counts.
    ///
    /// # Errors
    ///
    /// See [`FabClient::request_json`].
    pub fn chaos_status(&mut self) -> Result<Json, ClientError> {
        self.request_json("GET", "/admin/chaos", b"")
    }

    /// `POST /admin/chaos`: arm one chaos site (`every` = 0 disables it).
    /// Needs the daemon booted with `fault_injection`.
    ///
    /// # Errors
    ///
    /// See [`FabClient::request_json`]; `403` without `fault_injection`.
    pub fn chaos_configure(
        &mut self,
        site: &str,
        every: u64,
        param_ms: u64,
    ) -> Result<Json, ClientError> {
        let body = Json::Obj(vec![(
            "sites".to_string(),
            Json::Arr(vec![Json::Obj(vec![
                ("site".to_string(), Json::Str(site.to_string())),
                ("every".to_string(), Json::Num(every as f64)),
                ("param_ms".to_string(), Json::Num(param_ms as f64)),
            ])]),
        )])
        .to_string();
        self.request_json("POST", "/admin/chaos", body.as_bytes())
    }

    /// `POST /admin/chaos {"reset": true}`: disarm every chaos site.
    ///
    /// # Errors
    ///
    /// See [`FabClient::request_json`]; `403` without `fault_injection`.
    pub fn chaos_reset(&mut self) -> Result<Json, ClientError> {
        let body = Json::Obj(vec![("reset".to_string(), Json::Bool(true))]).to_string();
        self.request_json("POST", "/admin/chaos", body.as_bytes())
    }

    /// Polls `/readyz` until the daemon answers `200` or `timeout`
    /// elapses, reusing the client's jittered backoff between polls (a
    /// warm-starting or still-training daemon answers `503 loading`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Status`] with the last `/readyz` status on timeout;
    /// connection errors keep being polled until the deadline.
    pub fn wait_ready(&mut self, timeout: Duration) -> Result<(), ClientError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut attempt = 0u32;
        let mut last_status;
        loop {
            match self.exchange("GET", "/readyz", b"") {
                Ok(resp) if resp.status == 200 => return Ok(()),
                Ok(resp) => last_status = resp.status,
                Err(_) => last_status = 0,
            }
            if std::time::Instant::now() >= deadline {
                return Err(ClientError::Status {
                    status: last_status,
                    body: "daemon not ready before timeout".to_string(),
                });
            }
            let delay = self.retry.delay(attempt, None, &mut self.rng);
            thread::sleep(delay);
            attempt = attempt.saturating_add(1);
        }
    }
}

/// Extracts the server's retry hint from a 429: the JSON body's
/// `retry_after_ms` (millisecond precision) or the `Retry-After` header
/// (whole seconds).
fn retry_hint_ms(resp: &ClientResponse) -> Option<u64> {
    if let Ok(body) = Json::parse(&resp.body_text()) {
        if let Some(ms) = body.get("retry_after_ms").and_then(Json::as_u64) {
            return Some(ms);
        }
    }
    resp.header("retry-after").and_then(|v| v.trim().parse::<u64>().ok()).map(|s| s * 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_jittered_and_capped() {
        let policy = RetryPolicy { max_retries: 8, base_ms: 20, max_ms: 1_000 };
        let mut rng = StdRng::seed_from_u64(1);
        for attempt in 0..8 {
            let exp = (20u64 << attempt).min(1_000);
            let d = policy.delay(attempt, None, &mut rng).as_millis() as u64;
            assert!(
                d >= exp / 2 && d <= exp,
                "attempt {attempt}: {d}ms not in [{}, {exp}]",
                exp / 2
            );
        }
    }

    #[test]
    fn server_hint_floors_the_backoff() {
        let policy = RetryPolicy { max_retries: 3, base_ms: 10, max_ms: 5_000 };
        let mut rng = StdRng::seed_from_u64(2);
        let d = policy.delay(0, Some(800), &mut rng).as_millis() as u64;
        assert!((400..=800).contains(&d), "hinted delay {d}ms outside [400, 800]");
    }

    #[test]
    fn jitter_varies_across_attempts() {
        let policy = RetryPolicy { max_retries: 8, base_ms: 1_000, max_ms: 1_000 };
        let mut rng = StdRng::seed_from_u64(3);
        let delays: Vec<u64> =
            (0..6).map(|_| policy.delay(0, None, &mut rng).as_millis() as u64).collect();
        let distinct: std::collections::HashSet<_> = delays.iter().collect();
        assert!(distinct.len() > 1, "no jitter: {delays:?}");
    }

    #[test]
    fn connect_refused_is_retried_then_surfaced() {
        // Nothing listens on this port (bound and dropped immediately).
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let policy = RetryPolicy { max_retries: 2, base_ms: 1, max_ms: 2 };
        let mut client = FabClient::with_policy(&format!("127.0.0.1:{port}"), policy, 9);
        let err = client.request("GET", "/healthz", b"").expect_err("no server");
        assert!(matches!(err, ClientError::Io(_)), "{err}");
    }
}
