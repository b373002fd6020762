//! Loopback end-to-end tests: a real daemon on an ephemeral port, driven
//! over real sockets through [`fabd::FabClient`] and raw `TcpStream`s.
//!
//! Every test owns its own daemon (profiles are tiny and train in
//! milliseconds), so tests run in parallel without port or state sharing.

use fabd::{
    ClientError, Daemon, DaemonConfig, FabClient, Json, OverloadConfig, Precision, ProfileConfig,
    RetryPolicy,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A fast-training single-profile config on an ephemeral port.
fn test_config() -> DaemonConfig {
    DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        drain_timeout_ms: 500,
        profiles: vec![ProfileConfig::tiny("fast", Precision::FastMath, 7)],
        ..DaemonConfig::default()
    }
}

fn client_for(daemon: &Daemon) -> FabClient {
    FabClient::new(&daemon.addr().to_string()).with_timeout(Duration::from_secs(10))
}

/// A client that surfaces failures immediately (no retries, no backoff).
fn raw_client_for(daemon: &Daemon) -> FabClient {
    let policy = RetryPolicy { max_retries: 0, base_ms: 1, max_ms: 1 };
    FabClient::with_policy(&daemon.addr().to_string(), policy, 1)
        .with_timeout(Duration::from_secs(10))
}

#[test]
fn predicts_through_all_three_precision_profiles() {
    let config = DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        drain_timeout_ms: 500,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config).expect("daemon starts");
    let mut client = client_for(&daemon);

    let models = client.request_json("GET", "/v1/models", b"").expect("models");
    let listed = models.get("models").and_then(Json::as_arr).expect("models array");
    let kinds: Vec<&str> =
        listed.iter().filter_map(|m| m.get("kind").and_then(Json::as_str)).collect();
    assert_eq!(kinds, ["exact", "fastmath", "int8"]);
    // The exact and fastmath rungs serve from one f32 weight set, int8 from
    // its own: the resident gauge counts the shared set once.
    let weights: Vec<u64> =
        listed.iter().filter_map(|m| m.get("weight_bytes").and_then(Json::as_u64)).collect();
    assert_eq!(weights.len(), 3, "{models}");
    assert_eq!(weights[0], weights[1], "{models}");
    assert!(weights[2] < weights[0], "{models}");

    for model in ["text-f32", "text-fast", "text-int8"] {
        let result = client.predict(Some(model), &[1, 2, 3, 4, 5], None).expect(model);
        let logits = result.get("logits").and_then(Json::as_arr).expect("logits");
        assert!(!logits.is_empty(), "{model}: no logits");
        let class = result.get("class").and_then(Json::as_usize).expect("class");
        assert!(class < logits.len(), "{model}: class {class} out of range");
    }

    // Unknown model → 404 with a JSON error.
    let err = client.predict(Some("nope"), &[1, 2, 3], None).expect_err("unknown model");
    assert!(matches!(err, ClientError::Status { status: 404, .. }), "{err}");

    let metrics = client.metrics().expect("metrics");
    assert!(metrics.contains("fabd_requests_completed_total{model=\"text-int8\"} 1"), "{metrics}");
    assert!(metrics.contains("fabd_ready 1"), "{metrics}");
    let resident = format!("fabd_resident_weight_bytes {}\n", weights[0] + weights[2]);
    assert!(metrics.contains(&resident), "{metrics}");
    // The batcher's wait and the forward's time, per model, from the
    // running daemon; one request has been served, so the forward took time.
    let p99 = |family: &str| {
        let series = format!("{family}{{model=\"text-int8\",quantile=\"0.99\"}} ");
        let value = metrics.lines().find_map(|l| l.strip_prefix(&series));
        value.and_then(|v| v.parse::<u64>().ok()).unwrap_or_else(|| panic!("{series}: {metrics}"))
    };
    p99("fabd_queue_wait_us");
    assert!(p99("fabd_service_us") > 0, "{metrics}");
    daemon.shutdown();
}

#[test]
fn malformed_and_oversized_requests_get_4xx_not_a_crash() {
    let daemon = Daemon::start(test_config()).expect("daemon starts");
    let addr = daemon.addr();

    let exchange = |raw: &[u8]| -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(raw).expect("write");
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        out
    };

    assert!(exchange(b"garbage\r\n\r\n").starts_with("HTTP/1.1 400"));
    assert!(exchange(b"POST /v1/predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        .starts_with("HTTP/1.1 501"));
    assert!(exchange(b"POST /v1/predict HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n")
        .starts_with("HTTP/1.1 431"));
    assert!(exchange(b"POST /v1/predict HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!")
        .starts_with("HTTP/1.1 400"));
    assert!(exchange(b"DELETE /v1/predict HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));
    assert!(
        exchange(b"GET /made/up HTTP/1.1\r\nConnection: close\r\n\r\n").starts_with("HTTP/1.1 404")
    );

    // The daemon took none of that personally.
    let mut client = client_for(&daemon);
    client.predict(None, &[1, 2, 3], None).expect("still serving");
    daemon.shutdown();
}

#[test]
fn slow_loris_connections_are_cut_off_by_the_read_timeout() {
    let config = DaemonConfig { read_timeout_ms: 150, ..test_config() };
    let daemon = Daemon::start(config).expect("daemon starts");

    // Send half a request, then stall.
    let mut stream = TcpStream::connect(daemon.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(b"POST /v1/predict HTTP/1.1\r\nContent-Le").expect("write");
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out); // server cuts us off
    assert!(out.is_empty() || out.starts_with("HTTP/1.1 408"), "expected 408 or close, got: {out}");

    // The connection slot was reclaimed; normal clients are unaffected.
    let mut client = client_for(&daemon);
    client.predict(None, &[1, 2, 3], None).expect("still serving");
    let stats = client.request_json("GET", "/v1/stats", b"").expect("stats");
    assert_eq!(stats.get("open_connections").and_then(Json::as_u64), Some(1));
    daemon.shutdown();
}

/// A keep-alive connection left idle past the read timeout is closed with
/// no answer: the client's next request meets a closed socket (a retryable
/// I/O error), never an unsolicited `408` read as its answer, and the close
/// counts as neither a read error nor a 4xx.
#[test]
fn idle_keep_alive_close_is_silent_and_the_next_request_reconnects() {
    let config = DaemonConfig { read_timeout_ms: 150, ..test_config() };
    let daemon = Daemon::start(config).expect("daemon starts");
    let idle = Duration::from_millis(400);

    let mut client = client_for(&daemon);
    client.predict(None, &[1, 2, 3], None).expect("first predict");
    std::thread::sleep(idle);
    client.predict(None, &[1, 2, 3], None).expect("default policy reconnects");

    let mut raw = raw_client_for(&daemon);
    raw.predict(None, &[1, 2, 3], None).expect("first predict");
    std::thread::sleep(idle);
    let err = raw.predict(None, &[1, 2, 3], None).expect_err("the idle connection was closed");
    assert!(matches!(err, ClientError::Io(_)), "{err}");

    let stats = client.stats().expect("stats");
    for key in ["http_read_errors", "http_responses_4xx"] {
        assert_eq!(stats.get(key).and_then(Json::as_u64), Some(0), "{key}: {stats}");
    }
    daemon.shutdown();
}

/// One client makes dozens of mixed exchanges on one connection — single
/// and batch predictions, the metrics page, a 404 — and every answer is the
/// one to its own request: the client's one reader per connection never
/// loses its place in the byte stream.
#[test]
fn one_keep_alive_connection_carries_mixed_exchanges_in_step() {
    let daemon = Daemon::start(test_config()).expect("daemon starts");
    let mut client = raw_client_for(&daemon);
    let batch: Vec<String> = (0..8).map(|i| format!("[{}, {}, 3]", i + 1, i + 2)).collect();
    let batch_body = format!("{{\"sequences\": [{}]}}", batch.join(", "));
    for i in 0..52 {
        match i % 4 {
            0 => {
                let result = client.predict(None, &[1 + i % 7, 2, 3, 4], None).expect("predict");
                let logits = result.get("logits").and_then(Json::as_arr).expect("logits");
                let class = result.get("class").and_then(Json::as_usize).expect("class");
                assert!(class < logits.len(), "exchange {i}: {result}");
            }
            1 => {
                let result = client
                    .request_json("POST", "/v1/predict_batch", batch_body.as_bytes())
                    .expect("predict_batch");
                let results = result.get("results").and_then(Json::as_arr).expect("results");
                assert_eq!(results.len(), 8, "exchange {i}: {result}");
                assert!(results.iter().all(|r| r.get("logits").is_some()), "{result}");
            }
            2 => {
                // The page counts every request parsed so far, this one too.
                let metrics = client.metrics().expect("metrics");
                let parsed = format!("fabd_http_requests_total {}\n", i + 1);
                assert!(metrics.contains(&parsed), "exchange {i}: {metrics}");
            }
            _ => {
                let resp = client.request("GET", "/made/up", b"").expect("404 answer");
                assert_eq!(resp.status, 404, "exchange {i}");
                let body = Json::parse(&resp.body_text()).expect("JSON error body");
                assert!(body.get("error").is_some(), "exchange {i}: {body}");
            }
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("connections_total").and_then(Json::as_u64), Some(1), "{stats}");
    assert_eq!(stats.get("http_requests").and_then(Json::as_u64), Some(53), "{stats}");
    daemon.shutdown();
}

#[test]
fn explicit_zero_deadline_is_shed_with_504() {
    let daemon = Daemon::start(test_config()).expect("daemon starts");
    let mut client = client_for(&daemon);

    let err = client.predict(None, &[1, 2, 3], Some(0)).expect_err("expired deadline");
    match err {
        ClientError::Status { status, body } => {
            assert_eq!(status, 504, "{body}");
            assert!(body.contains("deadline"), "{body}");
        }
        other => panic!("expected 504, got {other}"),
    }
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.contains("fabd_shed_expired_total{model=\"fast\"} 1"), "{metrics}");

    // The header form wins over the body and is shed the same way.
    let resp =
        client.request("POST", "/v1/predict", b"{\"tokens\": [1, 2, 3]}").expect("no header yet");
    assert_eq!(resp.status, 200);
    daemon.shutdown();
}

/// Deterministic overload: chaos `worker_exit` kills the only worker while
/// the supervisor's backoff keeps it down, so one in-flight request plus a full
/// queue pins admission control shut. New requests get `429` with a
/// `Retry-After` hint; the stranded request is still answered by the
/// zero-drop drain at shutdown.
#[test]
fn overload_answers_429_with_retry_after_and_drain_answers_the_stranded_request() {
    let config = DaemonConfig {
        fault_injection: true,
        num_workers: 1,
        queue_capacity: 1,
        restart_backoff_ms: 60_000,
        ..test_config()
    };
    let daemon = Daemon::start(config).expect("daemon starts");
    let mut client = raw_client_for(&daemon);

    client.predict(None, &[1, 2, 3], None).expect("serves while healthy");
    client.chaos_configure("worker_exit", 1, 0).expect("fault injection enabled");

    // This request wakes the worker, which draws the armed site and dies
    // before taking it: the request stays queued (depth 1 of 1) until the
    // drain.
    let addr = daemon.addr().to_string();
    let stranded = std::thread::spawn(move || {
        let policy = RetryPolicy { max_retries: 0, base_ms: 1, max_ms: 1 };
        let mut client =
            FabClient::with_policy(&addr, policy, 2).with_timeout(Duration::from_secs(30));
        client.predict(None, &[4, 5, 6], None)
    });
    std::thread::sleep(Duration::from_millis(300));

    // Queue full + no workers: admission control answers 429 immediately.
    // Raw socket, so the Retry-After header is visible (FabClient folds a
    // final 429 into an error).
    let mut stream = TcpStream::connect(daemon.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream
        .write_all(
            b"POST /v1/predict HTTP/1.1\r\nConnection: close\r\nContent-Length: 21\r\n\r\n\
              {\"tokens\": [7, 8, 9]}",
        )
        .expect("write");
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    assert!(raw.starts_with("HTTP/1.1 429"), "expected 429, got: {raw}");
    let retry_after: u64 = raw
        .lines()
        .find_map(|l| l.strip_prefix("Retry-After: "))
        .expect("Retry-After header")
        .trim()
        .parse()
        .expect("whole seconds");
    assert!(retry_after >= 1);
    let json_body = raw.split("\r\n\r\n").nth(1).expect("body");
    let body = Json::parse(json_body).expect("JSON error body");
    let hint = body.get("retry_after_ms").and_then(Json::as_u64).expect("retry_after_ms");
    assert!((10..=5_000).contains(&hint), "hint {hint}ms outside the clamp");

    // FabClient with retries treats the 429 as transient, backs off, and
    // ultimately surfaces it as a status error (the worker stays dead).
    let policy = RetryPolicy { max_retries: 2, base_ms: 1, max_ms: 5 };
    let mut retrying = FabClient::with_policy(&daemon.addr().to_string(), policy, 3);
    let err = retrying.predict(None, &[7, 8, 9], None).expect_err("still overloaded");
    assert!(matches!(err, ClientError::Status { status: 429, .. }), "{err}");

    let metrics = client.metrics().expect("metrics");
    assert!(metrics.contains("fabd_requests_rejected_total{model=\"fast\"}"), "{metrics}");

    // Drain: the stranded request must be answered, not dropped.
    daemon.shutdown();
    let answer = stranded.join().expect("no panic").expect("stranded request answered");
    assert!(answer.get("logits").and_then(Json::as_arr).is_some());
}

#[test]
fn predict_batch_answers_every_sequence_with_result_or_inline_error() {
    let daemon = Daemon::start(test_config()).expect("daemon starts");
    let mut client = client_for(&daemon);

    // One invalid sequence (huge token id) among valid ones.
    let body = "{\"sequences\": [[1,2,3], [999999999], [4,5,6,7]]}";
    let result =
        client.request_json("POST", "/v1/predict_batch", body.as_bytes()).expect("batch answered");
    let results = result.get("results").and_then(Json::as_arr).expect("results");
    assert_eq!(results.len(), 3);
    assert!(results[0].get("logits").is_some(), "{}", results[0]);
    let inline_error = results[1].get("error").and_then(Json::as_str).expect("inline error");
    assert!(inline_error.contains("token"), "{inline_error}");
    assert!(results[2].get("logits").is_some(), "{}", results[2]);
    daemon.shutdown();

    // A sequence that panics the forward pass (chaos `poison_token` on
    // token 9) is answered with the error a lone predict maps to 500; its
    // batchmates are retried in isolation and answered normally.
    let config = DaemonConfig { fault_injection: true, ..test_config() };
    let daemon = Daemon::start(config).expect("daemon starts");
    let mut client = raw_client_for(&daemon);
    client.chaos_configure("poison_token", 1, 9).expect("arm chaos");
    let body = "{\"sequences\": [[1,2,3], [4,9,5], [6,7,8]]}";
    let result =
        client.request_json("POST", "/v1/predict_batch", body.as_bytes()).expect("batch answered");
    let results = result.get("results").and_then(Json::as_arr).expect("results");
    assert!(results[0].get("logits").is_some(), "{}", results[0]);
    let inline_error = results[1].get("error").and_then(Json::as_str).expect("inline error");
    assert!(inline_error.contains("panicked"), "{inline_error}");
    assert!(results[2].get("logits").is_some(), "{}", results[2]);
    let stats = client.stats().expect("stats");
    let panics = stats.get("models").and_then(Json::as_arr).expect("models")[0]
        .get("batch_panics")
        .and_then(Json::as_u64);
    assert!(panics >= Some(1), "batch_panics never moved: {stats}");
    let err = client.predict(None, &[4, 9, 5], None).expect_err("poisoned predict");
    assert!(matches!(err, ClientError::Status { status: 500, .. }), "{err}");
    // Two fires per poisoned request (its batch, then its isolated retry),
    // two requests: the clean sequences never drew.
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.contains("fabd_chaos_injected_total{site=\"poison_token\"} 4"), "{metrics}");
    daemon.shutdown();
}

#[test]
fn drain_flips_readyz_stops_accepting_and_join_completes() {
    let daemon = Daemon::start(test_config()).expect("daemon starts");
    let mut client = raw_client_for(&daemon);
    assert!(client.ready().expect("readyz"));

    let ack = client.drain().expect("drain acknowledged");
    assert_eq!(ack.get("draining").and_then(Json::as_bool), Some(true));
    assert!(daemon.is_draining());

    // The drain ack closed our keep-alive connection; a fresh readyz either
    // reports 503 (raced the accept loop), cannot connect at all, or (the
    // close still in flight) is sent and never answered.
    match client.ready() {
        Ok(ready) => assert!(!ready, "readyz stayed 200 during drain"),
        Err(ClientError::Io(_) | ClientError::Unanswered { .. }) => {}
        Err(other) => panic!("unexpected failure: {other}"),
    }
    daemon.join();
}

/// The accept thread parks in a blocking `accept`; a drain has to wake it
/// itself, because no client may ever connect to do so.
#[test]
fn join_returns_when_no_connection_ever_arrived() {
    let daemon = Daemon::start(test_config()).expect("daemon starts");
    let (done, joined) = std::sync::mpsc::channel();
    let joiner = std::thread::spawn(move || {
        daemon.join();
        let _ = done.send(());
    });
    joined
        .recv_timeout(Duration::from_secs(10))
        .expect("join() hung: nothing woke the accept thread");
    joiner.join().expect("joiner thread");
}

#[test]
fn hot_reload_bumps_the_version_and_keeps_serving() {
    let daemon = Daemon::start(test_config()).expect("daemon starts");
    let mut client = client_for(&daemon);
    let v1 = client.predict(Some("fast"), &[1, 2, 3], None).expect("v1 serves");

    let ack = client.models_reload("fast").expect("reload");
    assert_eq!(ack.get("version").and_then(Json::as_u64), Some(2), "{ack}");
    assert_eq!(ack.get("state").and_then(Json::as_str), Some("ready"), "{ack}");
    // The retrain reuses the profile's seed, so v2 is v1 bit for bit.
    let v2 = client.predict(Some("fast"), &[1, 2, 3], None).expect("v2 serves");
    assert_eq!(v2.get("logits"), v1.get("logits"), "same-seed reload changed the logits");

    // The registry lists v2 ready; v1 shows up as draining or retired.
    let models = client.models_list().expect("models");
    let listed = models.get("models").and_then(Json::as_arr).expect("array");
    let state_of = |version: u64| {
        listed
            .iter()
            .find(|m| {
                m.get("name").and_then(Json::as_str) == Some("fast")
                    && m.get("version").and_then(Json::as_u64) == Some(version)
            })
            .and_then(|m| m.get("state").and_then(Json::as_str).map(str::to_string))
    };
    assert_eq!(state_of(2).as_deref(), Some("ready"), "{models}");
    let v1 = state_of(1).expect("v1 still listed");
    assert!(v1 == "draining" || v1 == "retired", "v1 state {v1}");

    // Reloading an unknown profile is a 404, not a train-from-nothing.
    let err = client.models_reload("nope").expect_err("unknown profile");
    assert!(matches!(err, ClientError::Status { status: 404, .. }), "{err}");
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.contains("fabd_model_version{model=\"fast\"} 2"), "{metrics}");
    daemon.shutdown();
}

#[test]
fn admin_models_load_unload_covers_new_tasks_end_to_end() {
    let daemon = Daemon::start(test_config()).expect("daemon starts");
    let mut client = client_for(&daemon);

    // Hot-load an int8 Pathfinder profile into the running daemon.
    let profile = Json::parse(
        r#"{"name": "path-int8", "task": "pathfinder", "precision": "int8",
            "seq_len": 16, "hidden": 16, "train_examples": 8, "test_examples": 4}"#,
    )
    .expect("profile JSON");
    let ack = client.models_load(&profile).expect("load");
    assert_eq!(ack.get("version").and_then(Json::as_u64), Some(1), "{ack}");
    assert_eq!(ack.get("task").and_then(Json::as_str), Some("pathfinder"), "{ack}");

    let result = client.predict(Some("path-int8"), &[1, 2, 3], None).expect("pathfinder serves");
    // Pathfinder is binary classification.
    assert_eq!(result.get("logits").and_then(Json::as_arr).map(<[Json]>::len), Some(2));

    // Unload: the name 404s afterwards; reload from the stored profile
    // revives it at the next version.
    let ack = client.models_unload("path-int8").expect("unload");
    assert_eq!(ack.get("state").and_then(Json::as_str), Some("draining"), "{ack}");
    let err = client.predict(Some("path-int8"), &[1], None).expect_err("unloaded");
    assert!(matches!(err, ClientError::Status { status: 404, .. }), "{err}");
    let ack = client.models_reload("path-int8").expect("revive");
    assert_eq!(ack.get("version").and_then(Json::as_u64), Some(2), "{ack}");
    client.predict(Some("path-int8"), &[3, 2, 1], None).expect("revived");
    daemon.shutdown();
}

#[test]
fn tenant_quota_answers_429_with_the_tenant_own_refill_hint() {
    use fab_fleet::TenantQuota;
    let config = DaemonConfig {
        tenants: vec![(
            "capped".to_string(),
            TenantQuota { rate_per_s: 0.5, burst: 3.0, weight: 1.0 },
        )],
        ..test_config()
    };
    let daemon = Daemon::start(config).expect("daemon starts");
    let mut client = raw_client_for(&daemon);

    for i in 0..3 {
        client
            .predict_qos(None, &[1, 2, 3], None, Some("capped"), None)
            .unwrap_or_else(|e| panic!("burst request {i}: {e}"));
    }
    let err =
        client.predict_qos(None, &[1, 2, 3], None, Some("capped"), None).expect_err("bucket empty");
    match err {
        ClientError::Status { status, body } => {
            assert_eq!(status, 429, "{body}");
            let parsed = Json::parse(&body).expect("JSON error body");
            let hint = parsed.get("retry_after_ms").and_then(Json::as_u64).expect("hint");
            // 0.5 req/s refills one token in ~2 s — the hint is the
            // tenant's own refill time, not a queue-depth guess.
            assert!((1_000..=5_000).contains(&hint), "hint {hint}ms");
            assert!(body.contains("capped"), "{body}");
        }
        other => panic!("expected 429, got {other}"),
    }

    // Other tenants (and anonymous traffic) are unaffected.
    client.predict_qos(None, &[1, 2, 3], None, Some("other"), None).expect("other tenant");
    client.predict(None, &[1, 2, 3], None).expect("anonymous");

    let metrics = client.metrics().expect("metrics");
    assert!(
        metrics
            .contains("fabd_tenant_requests_total{tenant=\"capped\",outcome=\"quota_rejected\"} 1"),
        "{metrics}"
    );
    let stats = client.stats().expect("stats");
    let tenants = stats.get("tenants").and_then(Json::as_arr).expect("tenants");
    let capped = tenants
        .iter()
        .find(|t| t.get("tenant").and_then(Json::as_str) == Some("capped"))
        .expect("capped listed");
    assert_eq!(capped.get("completed").and_then(Json::as_u64), Some(3), "{capped}");
    assert_eq!(capped.get("quota_rejected").and_then(Json::as_u64), Some(1), "{capped}");
    daemon.shutdown();
}

#[test]
fn priority_labels_are_validated_and_tracked_per_class() {
    let daemon = Daemon::start(test_config()).expect("daemon starts");
    let mut client = client_for(&daemon);

    client
        .predict_qos(None, &[1, 2, 3], None, Some("batcher"), Some("background"))
        .expect("background request");
    let err = client
        .predict_qos(None, &[1, 2, 3], None, None, Some("urgent"))
        .expect_err("unknown class");
    assert!(matches!(err, ClientError::Status { status: 400, .. }), "{err}");

    let stats = client.stats().expect("stats");
    let classes = stats.get("classes").and_then(Json::as_arr).expect("classes");
    let completed = |class: &str| {
        classes
            .iter()
            .find(|c| c.get("class").and_then(Json::as_str) == Some(class))
            .and_then(|c| c.get("completed").and_then(Json::as_u64))
    };
    assert_eq!(completed("background"), Some(1), "{stats}");
    assert_eq!(completed("interactive"), Some(0), "{stats}");
    daemon.shutdown();
}

/// Cold boot trains and persists; a restart on the same `snapshot_dir`
/// warm-starts every profile with bit-identical logits; corrupting the
/// newest snapshot falls back to the previous good version, and a profile
/// with no snapshot left retrains — readiness is never lost.
#[test]
fn warm_start_restores_identical_logits_and_corruption_falls_back() {
    let dir = std::env::temp_dir().join(format!("fabd-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        drain_timeout_ms: 500,
        snapshot_dir: Some(dir.to_string_lossy().into_owned()),
        ..DaemonConfig::default()
    };
    let models = ["text-f32", "text-fast", "text-int8"];
    let logits_of = |client: &mut FabClient, model: &str| -> Vec<f64> {
        let result = client.predict(Some(model), &[5, 4, 3, 2, 1], None).expect("predict");
        result
            .get("logits")
            .and_then(Json::as_arr)
            .expect("logits")
            .iter()
            .map(|l| l.as_f64().expect("number"))
            .collect()
    };
    let sources_of = |client: &mut FabClient| -> Vec<(String, String)> {
        let listed = client.models_list().expect("models");
        let mut out: Vec<(String, String)> = listed
            .get("models")
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .filter(|m| m.get("state").and_then(Json::as_str) == Some("ready"))
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).expect("name").to_string(),
                    m.get("source").and_then(Json::as_str).expect("source").to_string(),
                )
            })
            .collect();
        out.sort();
        out
    };

    // Cold boot: everything trains, persists, and reports `trained`.
    let daemon = Daemon::start(config()).expect("cold boot");
    let mut client = client_for(&daemon);
    assert!(sources_of(&mut client).iter().all(|(_, s)| s == "trained"));
    let listed = client.snapshot_list().expect("snapshot list");
    let snaps = listed.get("snapshots").and_then(Json::as_arr).expect("snapshots");
    assert_eq!(snaps.len(), 3, "{listed}");
    // A second version per model, so the fallback leg below has somewhere
    // to fall back to.
    let ack = client.snapshot_trigger().expect("snapshot trigger");
    assert_eq!(ack.get("saved").and_then(Json::as_arr).map(<[Json]>::len), Some(3), "{ack}");
    assert_eq!(ack.get("failed").and_then(Json::as_arr).map(<[Json]>::len), Some(0), "{ack}");
    let cold: Vec<Vec<f64>> = models.iter().map(|m| logits_of(&mut client, m)).collect();
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.contains("fabd_model_source{model=\"text-int8\",source=\"trained\"} 1"));
    assert!(metrics.contains("fabd_warm_start_seconds"), "{metrics}");
    daemon.shutdown();

    // Warm boot: every profile restores from its snapshot, logits
    // bit-identical to the cold-trained daemon's.
    let daemon = Daemon::start(config()).expect("warm boot");
    let mut client = client_for(&daemon);
    assert!(
        sources_of(&mut client).iter().all(|(_, s)| s == "warm"),
        "{:?}",
        sources_of(&mut client)
    );
    for (model, cold_logits) in models.iter().zip(&cold) {
        assert_eq!(&logits_of(&mut client, model), cold_logits, "{model} drifted");
    }
    daemon.shutdown();

    // Corrupt the newest snapshot of one model: the daemon must come up
    // anyway, serving that model from the previous good version.
    let newest = std::fs::read_dir(dir.join("text-fast"))
        .expect("model dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "fsnap"))
        .max()
        .expect("a snapshot");
    let mut bytes = std::fs::read(&newest).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).expect("corrupt snapshot");
    // And lose every snapshot of another — what a SIGKILL before that
    // profile's first save leaves behind: it retrains, the rest stay warm.
    std::fs::remove_dir_all(dir.join("text-int8")).expect("delete snapshots");
    let daemon = Daemon::start(config()).expect("boot despite corruption");
    let mut client = client_for(&daemon);
    let sources = sources_of(&mut client);
    let of = |name: &str| sources.iter().find(|(n, _)| n == name).map(|(_, s)| s.as_str());
    assert_eq!(of("text-fast"), Some("fallback"), "{sources:?}");
    assert_eq!(of("text-f32"), Some("warm"), "{sources:?}");
    assert_eq!(of("text-int8"), Some("trained"), "{sources:?}");
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.contains("fabd_model_source{model=\"text-fast\",source=\"fallback\"} 1"));
    let fast_idx = models.iter().position(|&m| m == "text-fast").unwrap();
    assert_eq!(&logits_of(&mut client, "text-fast"), &cold[fast_idx], "fallback drifted");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_configs_are_rejected_at_startup_with_clear_errors() {
    let start_err = |config: DaemonConfig, what: &str| match Daemon::start(config) {
        Err(e) => e,
        Ok(d) => {
            d.shutdown();
            panic!("{what}: daemon started despite invalid config")
        }
    };
    let mut config = test_config();
    config.profiles.push(ProfileConfig::tiny("fast", Precision::FastMath, 8));
    let err = start_err(config, "duplicate profile names");
    assert!(err.contains("duplicate") && err.contains("fast"), "{err}");

    let config = DaemonConfig { profiles: vec![], ..test_config() };
    let err = start_err(config, "no profiles");
    assert!(err.contains("at least one profile"), "{err}");

    let file = std::env::temp_dir().join(format!("fabd-e2e-notadir-{}", std::process::id()));
    std::fs::write(&file, b"occupied").expect("create file");
    let config = DaemonConfig {
        snapshot_dir: Some(file.join("nested").to_string_lossy().into_owned()),
        ..test_config()
    };
    let err = start_err(config, "unwritable snapshot_dir");
    assert!(err.contains("snapshot_dir"), "{err}");
    let _ = std::fs::remove_file(&file);
}

#[test]
fn connection_limit_sheds_excess_connections_with_503() {
    let config = DaemonConfig { max_connections: 1, ..test_config() };
    let daemon = Daemon::start(config).expect("daemon starts");

    // Hold the single slot open with an idle keep-alive connection.
    let mut held = client_for(&daemon);
    held.predict(None, &[1, 2, 3], None).expect("holds the slot");

    // The next connection is shed at accept time — with a Retry-After, so
    // a well-behaved client backs off instead of hammering the listener.
    let mut stream = TcpStream::connect(daemon.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 503"), "expected connection shed, got: {out}");
    let retry_after: u64 = out
        .lines()
        .find_map(|l| l.strip_prefix("Retry-After: "))
        .expect("Retry-After header on the connection-cap 503")
        .trim()
        .parse()
        .expect("whole seconds");
    assert!(retry_after >= 1);
    let body = Json::parse(out.split("\r\n\r\n").nth(1).expect("body")).expect("JSON body");
    assert!(body.get("retry_after_ms").and_then(Json::as_u64).is_some(), "{out}");

    // The held connection keeps working.
    held.predict(None, &[1, 2, 3], None).expect("slot holder unaffected");
    daemon.shutdown();
}

/// Repeated hard failures (chaos `panic_forward`) trip the requested
/// model's circuit breaker: requests fast-fail `503` with a retry hint
/// instead of queueing onto a failing model, `/v1/circuits` and the
/// metrics report the open state, and once the fault clears a half-open
/// probe closes the circuit again.
#[test]
fn circuit_opens_on_repeated_panics_fast_fails_then_recovers() {
    let config = DaemonConfig {
        fault_injection: true,
        overload: OverloadConfig {
            breaker_failures: 3,
            breaker_open_ms: 300,
            breaker_probes: 2,
            ..OverloadConfig::default()
        },
        ..test_config()
    };
    let daemon = Daemon::start(config).expect("daemon starts");
    let mut client = raw_client_for(&daemon);
    client.predict(None, &[1, 2, 3], None).expect("healthy before chaos");

    // Every forward pass — batched and isolated retry — now panics.
    client.chaos_configure("panic_forward", 1, 0).expect("arm chaos");
    for i in 0..3 {
        let err = client.predict(None, &[1, 2, 3], None).expect_err("panicking forward");
        assert!(matches!(err, ClientError::Status { status: 500, .. }), "request {i}: {err}");
    }

    // Threshold reached: the next request is rejected before the fleet
    // spends anything on it, with both hint forms present.
    let err = client.predict(None, &[1, 2, 3], None).expect_err("circuit open");
    match err {
        ClientError::Status { status, body } => {
            assert_eq!(status, 503, "{body}");
            assert!(body.contains("circuit"), "{body}");
            let parsed = Json::parse(&body).expect("JSON error body");
            let hint = parsed.get("retry_after_ms").and_then(Json::as_u64).expect("hint");
            assert!(hint > 0 && hint <= 300, "hint {hint}ms outside the open window");
        }
        other => panic!("expected 503, got {other}"),
    }
    let circuits = client.circuits().expect("circuits");
    let fast = circuits
        .get("circuits")
        .and_then(Json::as_arr)
        .expect("array")
        .iter()
        .find(|c| c.get("model").and_then(Json::as_str) == Some("fast"))
        .cloned()
        .expect("fast listed");
    assert_eq!(fast.get("circuit").and_then(Json::as_str), Some("open"), "{fast}");
    assert_eq!(fast.get("breaker_enabled").and_then(Json::as_bool), Some(true), "{fast}");
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.contains("fabd_circuit_state{model=\"fast\"} 2"), "{metrics}");
    assert!(metrics.contains("fabd_breaker_rejected_total{model=\"fast\"} 1"), "{metrics}");
    assert!(metrics.contains("fabd_chaos_injected_total{site=\"panic_forward\"}"), "{metrics}");

    // Clear the fault, wait out the open window: the next request runs as
    // a half-open probe, succeeds, and closes the circuit.
    client.chaos_reset().expect("disarm chaos");
    std::thread::sleep(Duration::from_millis(350));
    client.predict(None, &[1, 2, 3], None).expect("probe succeeds");
    let circuits = client.circuits().expect("circuits after recovery");
    let fast = circuits
        .get("circuits")
        .and_then(Json::as_arr)
        .expect("array")
        .iter()
        .find(|c| c.get("model").and_then(Json::as_str) == Some("fast"))
        .cloned()
        .expect("fast listed");
    assert_eq!(fast.get("circuit").and_then(Json::as_str), Some("closed"), "{fast}");
    client.predict(None, &[1, 2, 3], None).expect("serving normally again");
    daemon.shutdown();
}

/// `POST /admin/degrade` pins a model to a rung of its precision ladder:
/// requests for the primary are served by the rung's model (bit-identical
/// to asking for it directly), the response says so via `served_by` /
/// `degraded`, and releasing the pin restores primary serving.
#[test]
fn forced_degrade_reroutes_down_the_ladder_and_releases() {
    let config = DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        drain_timeout_ms: 500,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config).expect("daemon starts");
    let mut client = client_for(&daemon);
    let tokens = [5, 4, 3, 2, 1];
    let logits_of = |result: &Json| -> Vec<f64> {
        result
            .get("logits")
            .and_then(Json::as_arr)
            .expect("logits")
            .iter()
            .map(|l| l.as_f64().expect("number"))
            .collect()
    };
    let direct: Vec<Vec<f64>> = ["text-f32", "text-fast", "text-int8"]
        .iter()
        .map(|m| logits_of(&client.predict(Some(m), &tokens, None).expect(m)))
        .collect();

    for (level, rung) in [(1usize, "text-fast"), (2usize, "text-int8")] {
        let ack = client.degrade("text-f32", Some(level)).expect("pin rung");
        assert_eq!(ack.get("level").and_then(Json::as_usize), Some(level), "{ack}");
        assert_eq!(ack.get("forced").and_then(Json::as_bool), Some(true), "{ack}");
        let result = client.predict(Some("text-f32"), &tokens, None).expect("degraded predict");
        assert_eq!(result.get("served_by").and_then(Json::as_str), Some(rung), "{result}");
        assert_eq!(result.get("degraded").and_then(Json::as_bool), Some(true), "{result}");
        assert_eq!(logits_of(&result), direct[level], "level {level} logits drifted from {rung}");
    }

    // The overload surfaces report the pinned rung and the ladder.
    let circuits = client.circuits().expect("circuits");
    let f32_row = circuits
        .get("circuits")
        .and_then(Json::as_arr)
        .expect("array")
        .iter()
        .find(|c| c.get("model").and_then(Json::as_str) == Some("text-f32"))
        .cloned()
        .expect("text-f32 listed");
    assert_eq!(f32_row.get("degrade_level").and_then(Json::as_usize), Some(2), "{f32_row}");
    assert_eq!(f32_row.get("forced_level").and_then(Json::as_usize), Some(2), "{f32_row}");
    let ladder: Vec<&str> = f32_row
        .get("ladder")
        .and_then(Json::as_arr)
        .expect("ladder")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(ladder, ["text-fast", "text-int8"], "{f32_row}");
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.contains("fabd_degraded_requests_total{model=\"text-f32\"} 2"), "{metrics}");
    assert!(metrics.contains("fabd_degrade_level{model=\"text-f32\"} 2"), "{metrics}");

    // Releasing the pin restores primary serving, bit-identical again.
    let ack = client.degrade("text-f32", None).expect("release");
    assert_eq!(ack.get("forced").and_then(Json::as_bool), Some(false), "{ack}");
    let result = client.predict(Some("text-f32"), &tokens, None).expect("primary again");
    assert_eq!(result.get("served_by").and_then(Json::as_str), Some("text-f32"), "{result}");
    assert_eq!(result.get("degraded").and_then(Json::as_bool), Some(false), "{result}");
    assert_eq!(logits_of(&result), direct[0], "primary logits drifted after release");

    // Pinning an unknown model is a 404, not a silent no-op.
    let err = client.degrade("nope", Some(1)).expect_err("unknown model");
    assert!(matches!(err, ClientError::Status { status: 404, .. }), "{err}");
    daemon.shutdown();
}

/// Adaptive overload control in composition — AIMD admission, the degrade
/// ladder and chaos slow forwards at once, under a burst well past what the
/// admission limit lets through: every request gets an HTTP answer, what
/// is admitted is served, the ladder is used without flapping, and the
/// level returns to 0 once the load stops.
#[test]
fn adaptive_overload_answers_every_admitted_request_degrades_and_recovers() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;
    const PRIMARY: &str = "f32";
    let ladder =
        [(PRIMARY, Precision::Exact), ("fast", Precision::FastMath), ("int8", Precision::Int8)];
    let config = DaemonConfig {
        fault_injection: true,
        // Tight AIMD limits so the burst reaches the ladder; short dwell and
        // recovery windows so one run sees the whole degrade-and-recover arc.
        overload: OverloadConfig {
            adaptive: true,
            degrade: true,
            aimd: fab_serve::AimdConfig {
                initial_limit: 2,
                min_limit: 1,
                max_limit: 64,
                slo_us: 20_000,
                increase_every: 8,
                decrease_pct: 70,
                cooldown_ms: 50,
            },
            degrade_dwell_ms: 100,
            recover_after_ms: 400,
            breaker_failures: 5,
            breaker_open_ms: 500,
            breaker_probes: 2,
        },
        profiles: ladder
            .iter()
            .map(|&(name, p)| ProfileConfig { hidden: 32, ..ProfileConfig::tiny(name, p, 42) })
            .collect(),
        ..test_config()
    };
    let daemon = Daemon::start(config).expect("daemon starts");
    let level_of = |client: &mut FabClient| -> usize {
        let circuits = client.circuits().expect("circuits");
        let rows = circuits.get("circuits").and_then(Json::as_arr).expect("array");
        rows.iter()
            .find(|c| c.get("model").and_then(Json::as_str) == Some(PRIMARY))
            .and_then(|c| c.get("degrade_level").and_then(Json::as_usize))
            .expect("primary listed")
    };
    let mut admin = raw_client_for(&daemon);
    admin.chaos_configure("slow_forward", 4, 10).expect("arm slow_forward");

    // 8 senders x 15 requests, one per sender every 2 ms whatever the
    // answers do (open loop), all released at once; the level is sampled
    // through the burst and the recovery after it.
    let (sampling, start) = (&AtomicBool::new(true), &std::sync::Barrier::new(8));
    let served = &daemon;
    let (outcomes, levels, recovered) = std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            let mut client = raw_client_for(served);
            let mut levels = Vec::new();
            // Bounded, so a panic on the main thread cannot strand the scope.
            while sampling.load(Ordering::Acquire) && levels.len() < 600 {
                levels.push(level_of(&mut client));
                std::thread::sleep(Duration::from_millis(25));
            }
            levels
        });
        let senders: Vec<_> = (0..8usize)
            .map(|t| {
                s.spawn(move || {
                    let mut client = raw_client_for(served);
                    start.wait();
                    let t0 = Instant::now();
                    let send = |i: usize| {
                        let at = Duration::from_millis(2 * i as u64);
                        std::thread::sleep(at.saturating_sub(t0.elapsed()));
                        let tokens: Vec<usize> =
                            (0..4 + (t * 5 + i) % 28).map(|j| 1 + (t + i * 3 + j) % 30).collect();
                        match client.predict(Some(PRIMARY), &tokens, None) {
                            Ok(body) => (200, body.get("degraded") == Some(&Json::Bool(true))),
                            Err(ClientError::Status { status, .. }) => (status, false),
                            Err(_) => (0, false),
                        }
                    };
                    (0..15).map(send).collect::<Vec<(u16, bool)>>()
                })
            })
            .collect();
        let outcomes: Vec<(u16, bool)> =
            senders.into_iter().flat_map(|h| h.join().expect("sender thread")).collect();
        admin.chaos_reset().expect("disarm chaos");
        // Calm traffic: on-SLO completions are what walk the level back.
        let r0 = Instant::now();
        let mut recovered = false;
        while !recovered && r0.elapsed() < Duration::from_secs(10) {
            let _ = admin.predict(Some(PRIMARY), &[1, 2, 3], None);
            recovered = level_of(&mut admin) == 0;
            std::thread::sleep(Duration::from_millis(50));
        }
        sampling.store(false, Ordering::Release);
        (outcomes, sampler.join().expect("sampler thread"), recovered)
    });

    let count = |f: fn(&(u16, bool)) -> bool| outcomes.iter().filter(|o| f(o)).count();
    let ok = count(|o| o.0 == 200);
    let admitted = outcomes.len() - count(|o| matches!(o.0, 429 | 503 | 504));
    assert_eq!(count(|o| o.0 == 0), 0, "requests without an HTTP answer: {outcomes:?}");
    assert!(ok * 100 >= admitted * 99, "{ok} of {admitted} admitted answered 200: {outcomes:?}");
    assert!(count(|o| o.1) >= 1, "no request was served by a ladder rung: {outcomes:?}");
    // One overload episode escalates, plateaus and recovers: few reversals.
    let steps: Vec<bool> =
        levels.windows(2).filter(|w| w[0] != w[1]).map(|w| w[1] > w[0]).collect();
    let flips = steps.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(flips <= 6, "degrade level flapped: {flips} direction changes in {levels:?}");
    assert!(recovered, "level {:?} 10 s after the load stopped, not 0", levels.last());
    daemon.shutdown();
}

/// A `predict` the daemon admitted but did not answer within the client's
/// read timeout is not sent again, whatever the retry budget: the daemon
/// runs it once (one `slow_forward` draw per forward), and the error names
/// the timeout.
#[test]
fn an_unanswered_predict_is_not_sent_again() {
    let config = DaemonConfig { fault_injection: true, ..test_config() };
    let daemon = Daemon::start(config).expect("daemon starts");
    let mut admin = client_for(&daemon);
    admin.chaos_configure("slow_forward", 1, 400).expect("arm slow_forward");
    let injected = |admin: &mut FabClient| -> String {
        let metrics = admin.metrics().expect("metrics");
        let site = "fabd_chaos_injected_total{site=\"slow_forward\"} ";
        let line = metrics.lines().find(|l| l.starts_with(site)).expect("slow_forward series");
        line[site.len()..].to_string()
    };
    for (max_retries, forwards) in [(0, "1"), (2, "2")] {
        let policy = RetryPolicy { max_retries, base_ms: 1, max_ms: 1 };
        let mut client = FabClient::with_policy(&daemon.addr().to_string(), policy, 3)
            .with_timeout(Duration::from_millis(150));
        let err = client.predict(None, &[1, 2, 3], None).expect_err("the answer is late");
        assert!(matches!(err, ClientError::Unanswered { .. }), "{err}");
        assert!(err.to_string().contains("150ms read timeout"), "{err}");
        // Every forward a retry would have caused has started by now.
        std::thread::sleep(Duration::from_millis(1500));
        assert_eq!(injected(&mut admin), forwards, "max_retries {max_retries}");
    }
    admin.chaos_reset().expect("disarm chaos");
    daemon.shutdown();
}

/// Chaos arming over HTTP needs `fault_injection`; the read-only status
/// stays available either way, and the retired worker-kill route is gone.
#[test]
fn chaos_admin_is_gated_on_fault_injection() {
    let daemon = Daemon::start(test_config()).expect("daemon starts");
    let mut client = client_for(&daemon);

    let err = client.chaos_configure("slow_forward", 1, 10).expect_err("gated");
    assert!(matches!(err, ClientError::Status { status: 403, .. }), "{err}");
    let status = client.chaos_status().expect("status readable without fault_injection");
    let sites = status.get("sites").and_then(Json::as_arr).expect("sites");
    assert_eq!(sites.len(), 6, "{status}");
    assert!(
        sites.iter().all(|s| s.get("every").and_then(Json::as_u64) == Some(0)),
        "armed without fault_injection: {status}"
    );
    let resp = client.request("POST", "/admin/inject_worker_exit", b"").expect("answered");
    assert_eq!(resp.status, 404, "{}", resp.body_text());
    assert!(resp.body_text().contains("no such route"), "{}", resp.body_text());
    daemon.shutdown();
}

/// Chaos `snapshot_save` makes persistence fail exactly like a dead disk:
/// `POST /admin/snapshot` reports the failure per model, serving is
/// unaffected, and disarming restores saves.
#[test]
fn snapshot_save_chaos_fails_saves_like_a_dead_disk() {
    let dir = std::env::temp_dir().join(format!("fabd-chaos-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DaemonConfig {
        fault_injection: true,
        snapshot_dir: Some(dir.to_string_lossy().into_owned()),
        ..test_config()
    };
    let daemon = Daemon::start(config).expect("daemon starts");
    let mut client = client_for(&daemon);

    client.chaos_configure("snapshot_save", 1, 0).expect("arm chaos");
    let ack = client.snapshot_trigger().expect("trigger answers");
    assert_eq!(ack.get("saved").and_then(Json::as_arr).map(<[Json]>::len), Some(0), "{ack}");
    assert_eq!(ack.get("failed").and_then(Json::as_arr).map(<[Json]>::len), Some(1), "{ack}");
    client.predict(None, &[1, 2, 3], None).expect("serving unaffected");
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.contains("fabd_chaos_injected_total{site=\"snapshot_save\"} 1"), "{metrics}");

    client.chaos_reset().expect("disarm");
    let ack = client.snapshot_trigger().expect("trigger after disarm");
    assert_eq!(ack.get("saved").and_then(Json::as_arr).map(<[Json]>::len), Some(1), "{ack}");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
