//! Every stat fabd exports, declared once as a [`Series`] row of a
//! [`Family`]: its JSON key, its Prometheus family (name, kind, help), the
//! label that sets it apart within the family, and a getter over one
//! snapshot struct. The table a family sits in is its label scope: the
//! daemon, a model (registry entry, server, guard), a tenant, a priority
//! class or a chaos site. `/metrics` ([`prometheus`]) and `/v1/stats`
//! ([`json`]) are pure functions of one [`Snapshot`]; `/v1/models`,
//! `/v1/circuits` and `/admin/chaos` build their objects from the same rows.

use crate::json::Json;
use fab_chaos::SiteStatus;
use fab_fleet::{GuardStats, ModelInfo, TenantStats};
use fab_serve::{HistogramSummary, ServerStats};
use std::fmt::Write;

type Obj = Vec<(String, Json)>;

/// One Prometheus family (`kind` is `counter` or `gauge`) and its stats.
/// A family with no name holds rows only the JSON views show: names,
/// states, config flags.
pub(crate) struct Family<T: 'static> {
    name: &'static str,
    kind: &'static str,
    help: &'static str,
    series: &'static [Series<T>],
}

/// One stat. `label` tells the series of one family apart
/// (`quantile="0.5"`). A string value renders as a `1` sample labelled
/// `<json key>="<value>"`, a flag as `0` / `1`, `null` as no sample.
struct Series<T> {
    json: &'static str,
    label: &'static str,
    get: fn(&T) -> Json,
}

/// `family!(kind "name" "help"; "json_key" [label = "value"]: |x| getter; ...)`.
macro_rules! family {
    ($kind:ident $name:literal $help:literal
     $(; $json:literal $([$lk:ident = $lv:literal])?: |$p:ident| $get:expr)+) => {
        Family { name: $name, kind: stringify!($kind), help: $help, series: &[$(Series {
            json: $json,
            label: concat!($(stringify!($lk), "=\"", $lv, "\"")?),
            get: |$p| Json::from($get),
        }),+] }
    };
}

/// Everything the stats views render, read once per scrape: the daemon's
/// own gauges and HTTP counters (the [`DAEMON`] rows), then its lists.
pub(crate) struct Snapshot {
    pub(crate) ready: bool,
    pub(crate) draining: bool,
    pub(crate) uptime_s: f64,
    pub(crate) warm_start_s: f64,
    pub(crate) open_connections: usize,
    pub(crate) active_requests: usize,
    pub(crate) connections_total: u64,
    pub(crate) connections_rejected: u64,
    pub(crate) http_requests: u64,
    pub(crate) read_errors: u64,
    /// Responses by status class: 2xx, 4xx, everything else.
    pub(crate) responses: [u64; 3],
    /// Bytes of the distinct weight sets the loaded models serve from.
    pub(crate) resident_weight_bytes: usize,
    /// Every registry entry; the ready ones carry their server stats.
    pub(crate) models: Vec<ModelRow>,
    pub(crate) tenants: Vec<TenantStats>,
    pub(crate) classes: [(&'static str, HistogramSummary); 3],
    pub(crate) chaos: Vec<SiteStatus>,
}

/// One registry entry with the stats it has: a server while it is ready,
/// the guard of its name.
pub(crate) struct ModelRow {
    pub(crate) info: ModelInfo,
    pub(crate) snapshot_version: Option<u64>,
    /// Bytes of the weights a ready model serves from.
    pub(crate) weight_bytes: Option<usize>,
    pub(crate) server: Option<ServerStats>,
    pub(crate) guard: Option<GuardStats>,
}

const DAEMON: &[Family<Snapshot>] = &[
    family!(gauge "fabd_ready" "1 while accepting traffic, 0 while loading or draining";
        "ready": |d| d.ready),
    family!(gauge "fabd_draining" "1 once a graceful drain has begun"; "draining": |d| d.draining),
    family!(gauge "fabd_up_seconds" "Seconds since the daemon started"; "uptime_s": |d| d.uptime_s),
    family!(gauge "fabd_warm_start_seconds" "Wall-clock seconds from boot to every profile ready";
        "warm_start_s": |d| d.warm_start_s),
    family!(gauge "fabd_connections_open" "Currently open connections";
        "open_connections": |d| d.open_connections),
    family!(gauge "fabd_requests_in_flight" "Requests read and not yet answered";
        "active_requests": |d| d.active_requests),
    family!(counter "fabd_connections_total" "Connections accepted";
        "connections_total": |d| d.connections_total),
    family!(counter "fabd_connections_rejected_total" "Connections shed at the connection limit";
        "connections_rejected": |d| d.connections_rejected),
    family!(counter "fabd_http_requests_total" "HTTP requests parsed";
        "http_requests": |d| d.http_requests),
    family!(counter "fabd_http_read_errors_total"
        "Connections dropped for a malformed or oversized request \
        or one cut off mid-way by the read timeout";
        "http_read_errors": |d| d.read_errors),
    family!(counter "fabd_http_responses_total" "HTTP responses written, by status class";
        "http_responses_2xx" [class = "2xx"]: |d| d.responses[0];
        "http_responses_4xx" [class = "4xx"]: |d| d.responses[1];
        "http_responses_5xx" [class = "5xx"]: |d| d.responses[2]),
    family!(gauge "fabd_resident_weight_bytes"
        "Bytes of the distinct weight sets the loaded models serve from, a shared set counted once";
        "resident_weight_bytes": |d| d.resident_weight_bytes),
];

/// A registry entry's identity; `/metrics` lists the ready entries only.
const MODEL: &[Family<ModelRow>] = &[
    family!(json "" ""; "state": |m| m.info.state.name(); "task": |m| m.info.spec.task.as_str();
        "arch": |m| m.info.spec.arch.as_str(); "precision": |m| m.info.spec.precision.as_str()),
    family!(gauge "fabd_model_version" "Current registry version of each ready model";
        "version": |m| m.info.version),
    family!(gauge "fabd_model_source" "How each ready model was obtained \
        (warm = snapshot, trained = fresh training, fallback = older snapshot)";
        "source": |m| m.info.source.name()),
    family!(gauge "fabd_snapshot_version" "Last persisted snapshot version of each ready model";
        "snapshot_version": |m| m.snapshot_version),
    family!(gauge "fabd_model_weight_bytes"
        "Bytes of the weights each ready model serves from, in full even where rungs share them";
        "weight_bytes": |m| m.weight_bytes),
];

const SERVER: &[Family<ServerStats>] = &[
    family!(json "" ""; "kind": |s| s.session_kind),
    family!(gauge "fabd_workers" "Inference worker threads per model"; "workers": |s| s.workers),
    family!(counter "fabd_requests_submitted_total" "Requests accepted into the queue";
        "submitted": |s| s.submitted),
    family!(counter "fabd_requests_completed_total" "Requests answered with a prediction";
        "completed": |s| s.completed),
    family!(counter "fabd_requests_rejected_total" "Requests shed by admission control";
        "rejected": |s| s.rejected),
    family!(counter "fabd_requests_failed_total" "Requests answered with an explicit model error";
        "failed": |s| s.failed),
    family!(counter "fabd_shed_expired_total" "Requests shed because their deadline expired";
        "shed_expired": |s| s.shed_expired),
    family!(counter "fabd_batch_panics_total" "Batched forward passes that panicked";
        "batch_panics": |s| s.batch_panics),
    family!(counter "fabd_worker_restarts_total" "Worker threads respawned by the supervisor";
        "worker_restarts": |s| s.worker_restarts),
    family!(gauge "fabd_queue_depth" "Requests waiting in the queue";
        "queue_depth": |s| s.queue_depth),
    family!(gauge "fabd_throughput_rps" "Completed requests per second since the server started";
        "throughput_rps": |s| s.throughput_rps),
    family!(gauge "fabd_batch_occupancy" "Mean requests per dispatched batch";
        "mean_batch_occupancy": |s| s.mean_batch_occupancy),
    family!(gauge "fabd_latency_us" "End-to-end request latency quantiles";
        "latency_p50_us" [quantile = "0.5"]: |s| s.latency.p50_us;
        "latency_p95_us" [quantile = "0.95"]: |s| s.latency.p95_us;
        "latency_p99_us" [quantile = "0.99"]: |s| s.latency.p99_us),
    family!(gauge "fabd_latency_max_us" "Largest end-to-end request latency";
        "latency_max_us": |s| s.latency.max_us),
    family!(gauge "fabd_queue_wait_us" "Queue-wait quantiles: submit to batch dispatch";
        "queue_wait_p50_us" [quantile = "0.5"]: |s| s.queue_wait.p50_us;
        "queue_wait_p99_us" [quantile = "0.99"]: |s| s.queue_wait.p99_us),
    family!(gauge "fabd_service_us" "Per-batch model service time quantiles";
        "service_p50_us" [quantile = "0.5"]: |s| s.service.p50_us;
        "service_p99_us" [quantile = "0.99"]: |s| s.service.p99_us),
];

pub(crate) const GUARD: &[Family<GuardStats>] = &[
    family!(json "" ""; "circuit": |g| g.circuit.name(); "breaker_enabled": |g| g.breaker_enabled;
        "adaptive": |g| g.adaptive),
    family!(gauge "fabd_circuit_state"
        "Per-model breaker state (0 = closed, 1 = half-open, 2 = open)";
        "circuit_state": |g| g.circuit.gauge()),
    family!(gauge "fabd_breaker_consecutive_failures" "Hard failures in a row while closed";
        "consecutive_failures": |g| g.consecutive_failures),
    family!(counter "fabd_breaker_rejected_total" "Requests fast-failed by an open circuit";
        "breaker_rejected": |g| g.breaker_rejected),
    family!(gauge "fabd_admission_limit" "Current AIMD concurrency limit per model";
        "admission_limit": |g| g.limit),
    family!(gauge "fabd_admission_inflight" "Requests holding an AIMD limiter slot";
        "inflight": |g| g.inflight),
    family!(counter "fabd_limiter_rejected_total" "Admissions rejected by the AIMD limiter";
        "limiter_rejected": |g| g.limiter_rejected),
    family!(gauge "fabd_degrade_level" "Current precision-degrade rung per model (0 = primary)";
        "degrade_level": |g| g.degrade_level),
    family!(gauge "fabd_degrade_forced_level" "Operator-pinned degrade rung (no sample unpinned)";
        "forced_level": |g| g.forced_level),
    family!(counter "fabd_degraded_requests_total" "Requests answered by a lower-precision rung";
        "degraded_total": |g| g.degraded_total),
];

const TENANT: &[Family<TenantStats>] = &[
    family!(gauge "fabd_tenant_rate_per_s" "Configured sustained admission rate per tenant";
        "rate_per_s": |t| t.rate_per_s),
    family!(gauge "fabd_tenant_weight" "Configured weighted-fair share per tenant";
        "weight": |t| t.weight),
    family!(counter "fabd_tenant_requests_total" "Per-tenant request outcomes";
        "submitted" [outcome = "submitted"]: |t| t.submitted;
        "completed" [outcome = "completed"]: |t| t.completed;
        "failed" [outcome = "failed"]: |t| t.failed;
        "quota_rejected" [outcome = "quota_rejected"]: |t| t.quota_rejected),
    family!(gauge "fabd_tenant_latency_us" "Per-tenant end-to-end latency quantiles";
        "latency_p50_us" [quantile = "0.5"]: |t| t.latency.p50_us;
        "latency_p99_us" [quantile = "0.99"]: |t| t.latency.p99_us),
];

const CLASS: &[Family<HistogramSummary>] = &[
    family!(counter "fabd_class_completed_total" "Requests completed per priority class";
        "completed": |l| l.count),
    family!(gauge "fabd_class_latency_us" "Fleet-wide latency quantiles per priority class";
        "latency_p50_us" [quantile = "0.5"]: |l| l.p50_us;
        "latency_p99_us" [quantile = "0.99"]: |l| l.p99_us),
];

const CHAOS: &[Family<SiteStatus>] = &[
    family!(gauge "fabd_chaos_every" "Chaos site rate (0 = off, N = about one draw in N)";
        "every": |s| s.every),
    family!(gauge "fabd_chaos_param_ms" "Chaos site delay parameter in milliseconds";
        "param_ms": |s| s.param_ms),
    family!(counter "fabd_chaos_injected_total" "Faults fired per chaos site since boot";
        "injected": |s| s.injected),
];

/// The Prometheus text exposition of `snap`: every named family, its
/// `# HELP` and `# TYPE` before its samples, label values escaped.
pub(crate) fn prometheus(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(8192);
    let ready = || {
        snap.models.iter().filter(|m| m.server.is_some()).map(|m| (m.info.spec.name.as_str(), m))
    };
    families(&mut out, DAEMON, "", [("", snap)].into_iter());
    families(&mut out, MODEL, "model", ready());
    families(&mut out, SERVER, "model", ready().filter_map(|(n, m)| Some((n, m.server.as_ref()?))));
    families(&mut out, GUARD, "model", ready().filter_map(|(n, m)| Some((n, m.guard.as_ref()?))));
    families(&mut out, TENANT, "tenant", snap.tenants.iter().map(|t| (t.tenant.as_str(), t)));
    families(&mut out, CLASS, "class", snap.classes.iter().map(|(c, l)| (*c, l)));
    families(&mut out, CHAOS, "site", snap.chaos.iter().map(|s| (s.site.name(), s)));
    out
}

/// Renders `table` over `items`, each labelled `scope="<its name>"`.
fn families<'a, T: 'a>(
    out: &mut String,
    table: &[Family<T>],
    scope: &str,
    items: impl Iterator<Item = (&'a str, &'a T)> + Clone,
) {
    for family in table.iter().filter(|f| !f.name.is_empty()) {
        let _ =
            writeln!(out, "# HELP {0} {1}\n# TYPE {0} {2}", family.name, family.help, family.kind);
        for ((name, item), series) in
            items.clone().flat_map(|i| family.series.iter().map(move |s| (i, s)))
        {
            let (value, info) = match (series.get)(item) {
                Json::Num(n) => (n, None),
                Json::Bool(b) => (f64::from(u8::from(b)), None),
                Json::Str(s) => (1.0, Some(format!("{}=\"{}\"", series.json, escape(&s)))),
                _ => continue,
            };
            let scope = (!scope.is_empty()).then(|| format!("{scope}=\"{}\"", escape(name)));
            let label = (!series.label.is_empty()).then(|| series.label.to_string());
            let labels: Vec<String> = scope.into_iter().chain(label).chain(info).collect();
            let _ = if labels.is_empty() {
                writeln!(out, "{} {value}", family.name)
            } else {
                writeln!(out, "{}{{{}}} {value}", family.name, labels.join(","))
            };
        }
    }
}

/// A label value as the text format requires: `\`, `"` and newline escaped.
fn escape(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// The `/v1/stats` view of `snap`: the daemon's rows, then the ready
/// models, tenants, priority classes and chaos sites.
pub(crate) fn json(snap: &Snapshot) -> Json {
    let mut obj = Vec::new();
    fields(&mut obj, DAEMON, snap);
    let tenants = snap.tenants.iter().map(|t| object("tenant", &t.tenant, TENANT, t));
    let classes = snap.classes.iter().map(|(c, l)| object("class", c, CLASS, l));
    let lists = [
        ("models", snap.models.iter().filter(|m| m.server.is_some()).map(model_json).collect()),
        ("tenants", tenants.map(Json::Obj).collect()),
        ("classes", classes.map(Json::Obj).collect()),
        ("chaos", snap.chaos.iter().map(site_json).collect()),
    ];
    obj.extend(lists.map(|(key, list)| (key.to_string(), Json::Arr(list))));
    Json::Obj(obj)
}

/// One model as `/v1/models` and `/v1/stats` list it: its registry rows,
/// then its server and guard rows where it has them.
pub(crate) fn model_json(m: &ModelRow) -> Json {
    let mut obj = object("name", &m.info.spec.name, MODEL, m);
    if let Some(s) = &m.server {
        fields(&mut obj, SERVER, s);
    }
    if let Some(g) = &m.guard {
        fields(&mut obj, GUARD, g);
    }
    Json::Obj(obj)
}

/// One chaos site as `/admin/chaos` and `/v1/stats` list it.
pub(crate) fn site_json(s: &SiteStatus) -> Json {
    Json::Obj(object("site", s.site.name(), CHAOS, s))
}

/// `{key: name}` followed by every row of `table` for `item`.
pub(crate) fn object<T>(key: &str, name: &str, table: &[Family<T>], item: &T) -> Obj {
    let mut obj = vec![(key.to_string(), Json::from(name))];
    fields(&mut obj, table, item);
    obj
}

fn fields<T>(obj: &mut Obj, table: &[Family<T>], item: &T) {
    obj.extend(table.iter().flat_map(|f| f.series).map(|s| (s.json.to_string(), (s.get)(item))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_chaos::ChaosSite;
    use fab_fleet::{CircuitState, ModelSource, ModelSpec, ModelState};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeSet, HashMap, HashSet};

    /// A tenant name that, unescaped, closes its label set and forges a
    /// `fabd_ready 0` sample on a line of its own.
    const FORGER: &str = "x\"} 1\nfabd_ready 0\n# ";

    fn count(rng: &mut StdRng) -> u64 {
        rng.gen_range(0..1 << 40)
    }

    fn summary(rng: &mut StdRng) -> HistogramSummary {
        let mut q: [u64; 4] = std::array::from_fn(|_| rng.gen_range(0..1 << 20));
        q.sort_unstable();
        let (count, mean_us) = (rng.gen_range(0..1000), rng.gen_range(0.0..1e6));
        HistogramSummary { count, mean_us, p50_us: q[0], p95_us: q[1], p99_us: q[2], max_us: q[3] }
    }

    /// A label value drawn from the characters the text format must escape
    /// and the ones that would end a label set or a line if left raw.
    fn hostile(rng: &mut StdRng) -> String {
        const CHARS: &[char] = &['a', '7', '"', '\\', '\n', '{', '}', ',', '=', ' ', '#', 'é'];
        (0..rng.gen_range(0..8)).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect()
    }

    fn model(rng: &mut StdRng, name: String, ready: bool) -> ModelRow {
        let spec =
            ModelSpec { name, task: hostile(rng), arch: "fabnet".into(), precision: "f32".into() };
        let source = [ModelSource::Warm, ModelSource::Trained, ModelSource::Fallback]
            [rng.gen_range(0..3usize)];
        let state = if ready { ModelState::Ready } else { ModelState::Draining };
        let server = ServerStats {
            session_kind: "exact",
            submitted: count(rng),
            completed: count(rng),
            rejected: count(rng),
            failed: count(rng),
            shed_expired: count(rng),
            batch_panics: count(rng),
            worker_restarts: count(rng),
            queue_depth: rng.gen_range(0..64),
            peak_queue_depth: count(rng),
            batches: count(rng),
            mean_batch_occupancy: rng.gen_range(1.0..8.0),
            max_batch_observed: count(rng),
            throughput_rps: rng.gen_range(0.0..1e5),
            elapsed_s: rng.gen_range(0.0..1e5),
            workers: rng.gen_range(1..8),
            latency: summary(rng),
            queue_wait: summary(rng),
            service: summary(rng),
        };
        let guard = GuardStats {
            adaptive: rng.gen_bool(0.5),
            limit: count(rng),
            inflight: count(rng),
            limiter_rejected: count(rng),
            degrade_level: rng.gen_range(0..3),
            forced_level: rng.gen_bool(0.5).then(|| rng.gen_range(0..3)),
            degraded_total: count(rng),
            circuit: [CircuitState::Closed, CircuitState::HalfOpen, CircuitState::Open]
                [rng.gen_range(0..3usize)],
            breaker_enabled: rng.gen_bool(0.5),
            consecutive_failures: rng.gen_range(0..100),
            breaker_rejected: count(rng),
        };
        ModelRow {
            info: ModelInfo { spec, version: rng.gen_range(1..9), source, state },
            snapshot_version: rng.gen_bool(0.5).then(|| count(rng)),
            weight_bytes: ready.then(|| rng.gen_range(0..1 << 30)),
            server: ready.then_some(server),
            guard: Some(guard),
        }
    }

    fn tenant(rng: &mut StdRng, tenant: String) -> TenantStats {
        TenantStats {
            tenant,
            rate_per_s: rng.gen_range(0.0..1e6),
            weight: rng.gen_range(0.0..10.0),
            submitted: count(rng),
            completed: count(rng),
            failed: count(rng),
            quota_rejected: count(rng),
            latency: summary(rng),
        }
    }

    /// A snapshot of up to four models (each name suffixed with its index,
    /// so names stay distinct as in the registry) and tenants.
    fn snapshot(rng: &mut StdRng) -> Snapshot {
        let (mut models, mut tenants) = (Vec::new(), Vec::new());
        for i in 0..rng.gen_range(0..4) {
            let (name, ready) = (format!("{}{i}", hostile(rng)), rng.gen_bool(0.5));
            models.push(model(rng, name, ready));
            let name = format!("{}{i}", hostile(rng));
            tenants.push(tenant(rng, name));
        }
        let site = |site, rng: &mut StdRng| SiteStatus {
            site,
            every: rng.gen_range(0..10),
            param_ms: rng.gen_range(0..100),
            injected: count(rng),
        };
        Snapshot {
            ready: rng.gen_bool(0.5),
            draining: rng.gen_bool(0.5),
            uptime_s: rng.gen_range(0.0..1e6),
            warm_start_s: rng.gen_range(0.0..100.0),
            open_connections: rng.gen_range(0..1000),
            active_requests: rng.gen_range(0..1000),
            connections_total: count(rng),
            connections_rejected: count(rng),
            http_requests: count(rng),
            read_errors: count(rng),
            responses: [count(rng), count(rng), count(rng)],
            resident_weight_bytes: rng.gen_range(0..1 << 30),
            models,
            tenants,
            classes: ["interactive", "batch", "background"].map(|c| (c, summary(rng))),
            chaos: ChaosSite::ALL.into_iter().map(|s| site(s, rng)).collect(),
        }
    }

    type Labels = Vec<(String, String)>;

    /// Splits a sample line into family, labels and value, or says where it
    /// breaks `name{k="v",…} value`.
    fn parse_sample(line: &str) -> Result<(&str, Labels, f64), String> {
        let name_ok = |s: &str| {
            s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        };
        let end = line.find(['{', ' ']).ok_or(format!("no value: {line:?}"))?;
        let (name, mut rest) = line.split_at(end);
        if !name_ok(name) {
            return Err(format!("bad family name: {line:?}"));
        }
        let mut labels = Vec::new();
        if let Some(mut set) = rest.strip_prefix('{') {
            loop {
                let (key, tail) = set.split_once("=\"").ok_or(format!("bad label: {line:?}"))?;
                if !name_ok(key) {
                    return Err(format!("bad label name: {line:?}"));
                }
                let (mut value, mut chars) = (String::new(), tail.char_indices());
                let close = loop {
                    match chars.next() {
                        Some((i, '"')) => break i,
                        Some((_, '\\')) => match chars.next() {
                            Some((_, '\\')) => value.push('\\'),
                            Some((_, '"')) => value.push('"'),
                            Some((_, 'n')) => value.push('\n'),
                            _ => return Err(format!("bad escape: {line:?}")),
                        },
                        Some((_, c)) => value.push(c),
                        None => return Err(format!("unterminated label value: {line:?}")),
                    }
                };
                labels.push((key.to_string(), value));
                let after = &tail[close + 1..];
                if let Some(more) = after.strip_prefix(',') {
                    set = more;
                } else {
                    rest = after.strip_prefix('}').ok_or(format!("bad label set: {line:?}"))?;
                    break;
                }
            }
        }
        let value = rest.strip_prefix(' ').ok_or(format!("no value: {line:?}"))?;
        Ok((name, labels, value.parse().map_err(|e| format!("value of {line:?}: {e}"))?))
    }

    /// Every sample of `text` by family and label set, after checking that
    /// each line parses and that each family has one `# HELP` and one
    /// `# TYPE`, both before its samples, which are contiguous.
    fn samples(text: &str) -> Result<HashMap<(String, Labels), f64>, String> {
        let (mut out, mut headed, mut current) = (HashMap::new(), HashSet::new(), "");
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            if let Some(help) = line.strip_prefix("# HELP ") {
                let name = help.split(' ').next().unwrap_or_default();
                if !headed.insert(name) {
                    return Err(format!("second # HELP for {name}"));
                }
                let kind = lines.next().and_then(|t| t.strip_prefix(&format!("# TYPE {name} ")));
                if !matches!(kind, Some("counter" | "gauge")) {
                    return Err(format!("{name}: no # TYPE right after its # HELP"));
                }
                current = name;
                continue;
            }
            let (name, labels, value) = parse_sample(line)?;
            if name != current {
                return Err(format!("{line:?} outside its family's block (under {current})"));
            }
            if out.insert((name.to_string(), labels), value).is_some() {
                return Err(format!("duplicate series: {line:?}"));
            }
        }
        Ok(out)
    }

    /// The family and series label of the row with JSON key `key`.
    fn row<T>(table: &[Family<T>], key: &str) -> Option<(&'static str, &'static str)> {
        table
            .iter()
            .find_map(|f| f.series.iter().find(|s| s.json == key).map(|s| (f.name, s.label)))
    }

    /// Checks that every number `obj` shows has its series, labelled
    /// `scope="<obj[key]>"`, with the same value.
    fn numbers_have_series(
        samples: &HashMap<(String, Labels), f64>,
        obj: &Json,
        scope: Option<(&str, &str)>,
        row: impl Fn(&str) -> Option<(&'static str, &'static str)>,
    ) -> Result<(), String> {
        let members = obj.as_obj().ok_or("not an object")?;
        let keys: HashSet<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        if keys.len() != members.len() {
            return Err(format!("duplicate key in {obj}"));
        }
        let scope = scope.map(|(label, key)| (label, obj.get(key).and_then(Json::as_str)));
        for (key, value) in members {
            let Json::Num(n) = value else { continue };
            let (family, label) = row(key).ok_or(format!("{key}: no row"))?;
            let mut labels: Labels = Vec::new();
            if let Some((label, Some(name))) = scope {
                labels.push((label.to_string(), name.to_string()));
            }
            if let Some((k, v)) = label.split_once("=\"") {
                labels.push((k.to_string(), v.trim_end_matches('"').to_string()));
            }
            match samples.get(&(family.to_string(), labels)) {
                Some(v) if v == n => {}
                other => return Err(format!("{key} = {n}: series {family} reads {other:?}")),
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_exposition_parses_and_covers_every_number_of_the_json_view(seed in 0..u64::MAX) {
            let snap = snapshot(&mut StdRng::seed_from_u64(seed));
            let text = prometheus(&snap);
            let samples = samples(&text).map_err(TestCaseError::Fail)?;
            let view = json(&snap);
            let check = |obj: &Json, scope, row: &dyn Fn(&str) -> _| {
                numbers_have_series(&samples, obj, scope, row).map_err(TestCaseError::Fail)
            };
            check(&view, None, &|k| row(DAEMON, k))?;
            let list = |key| view.get(key).and_then(Json::as_arr).unwrap_or_default();
            let model = |k: &str| row(MODEL, k).or(row(SERVER, k)).or(row(GUARD, k));
            for m in list("models") {
                check(m, Some(("model", "name")), &model)?;
            }
            for t in list("tenants") {
                check(t, Some(("tenant", "tenant")), &|k| row(TENANT, k))?;
            }
            for c in list("classes") {
                check(c, Some(("class", "class")), &|k| row(CLASS, k))?;
            }
            for s in list("chaos") {
                check(s, Some(("site", "site")), &|k| row(CHAOS, k))?;
            }
            prop_assert_eq!(list("models").len(), snap.models.iter().filter(|m| m.server.is_some()).count());
        }
    }

    #[test]
    fn hostile_label_values_are_escaped() {
        let rng = &mut StdRng::seed_from_u64(7);
        let mut snap = snapshot(rng);
        snap.models = vec![model(rng, "m\\\"} 1\nfabd_ready 0\n# ".to_string(), true)];
        snap.tenants = vec![TenantStats { submitted: 2, ..tenant(rng, FORGER.to_string()) }];
        let text = prometheus(&snap);
        assert_eq!(text.lines().filter(|l| l.starts_with("fabd_ready ")).count(), 1, "{text}");
        let tenant = r#"fabd_tenant_requests_total{tenant="x\"} 1\nfabd_ready 0\n# ",outcome="submitted"} 2"#;
        assert!(text.lines().any(|l| l == tenant), "{text}");
        let submitted = snap.models[0].server.as_ref().map(|s| s.submitted);
        let model = format!(
            r#"fabd_requests_submitted_total{{model="m\\\"}} 1\nfabd_ready 0\n# "}} {}"#,
            submitted.expect("a ready model")
        );
        assert!(text.lines().any(|l| l == model), "{text}");
        samples(&text).expect("the exposition parses");
    }

    #[test]
    fn the_runbook_inventory_names_every_family() {
        let runbook = include_str!("../../../docs/RUNBOOK.md");
        let inventory =
            runbook.split("\n## /metrics inventory\n").nth(1).expect("inventory section");
        let inventory = inventory.split("\n## ").next().unwrap_or_default();
        let documented: BTreeSet<&str> = inventory
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .filter(|w| w.starts_with("fabd_"))
            .collect();
        let declared: BTreeSet<&str> = (DAEMON.iter().map(|f| f.name))
            .chain(MODEL.iter().map(|f| f.name))
            .chain(SERVER.iter().map(|f| f.name))
            .chain(GUARD.iter().map(|f| f.name))
            .chain(TENANT.iter().map(|f| f.name))
            .chain(CLASS.iter().map(|f| f.name))
            .chain(CHAOS.iter().map(|f| f.name))
            .filter(|n| !n.is_empty())
            .collect();
        assert_eq!(documented, declared);
    }
}
