//! # fabd
//!
//! A fault-tolerant networked serving daemon in front of a
//! [`fab_fleet::Fleet`] of [`fab_serve`] servers: hand-rolled HTTP/1.1
//! over `std::net::TcpListener` (the workspace vendors no network or
//! serialization crates), named model profiles across every LRA-proxy
//! task and precision (`exact` f32, `fastmath` f32, `int8`), tenant-aware
//! admission (token-bucket quotas) and weighted-fair priority scheduling,
//! hot model reload, and the PR-6 robustness stack — per-request
//! deadlines, layered load-shedding, supervised workers and graceful
//! zero-drop drain. With a `snapshot_dir` configured the daemon persists
//! every trained model to a [`fab_store`] snapshot store and warm-starts
//! from the last good snapshot at boot, retraining only on a miss, stale
//! fingerprint, or corruption. The PR-9 overload stack layers on top:
//! per-model AIMD admission limits, graceful precision degradation down a
//! same-task ladder (`exact → fastmath → int8`), per-model circuit
//! breakers, and a deterministic chaos harness ([`fab_chaos`]) gated on
//! `fault_injection`.
//!
//! Modules, wire-inward:
//!
//! - [`http`] — defensive HTTP/1.1 framing: size limits, timeouts,
//!   `Content-Length`-only bodies, keep-alive.
//! - [`json`] — a depth-limited JSON parser/serializer (the workspace has
//!   no serialization crate).
//! - [`config`] — daemon + model-profile configuration, JSON round-trip.
//! - [`daemon`] — the accept loop, routing and drain logic; every stat it
//!   exports is one row of a private table (`stats.rs`) that `/metrics`,
//!   `/v1/stats`, `/v1/models`, `/v1/circuits` and `/admin/chaos` render.
//! - [`client`] — a retrying loopback client shared by `fabctl`, the e2e
//!   tests and the `benchmark` crate.
//!
//! ## Endpoints
//!
//! | Route | Semantics |
//! |---|---|
//! | `POST /v1/predict` | One sequence → logits/class; takes `X-Tenant` / `X-Priority` (or body fields); `429` + `Retry-After` when over quota or overloaded, `504` past deadline |
//! | `POST /v1/predict_batch` | Many sequences, per-sequence results/errors |
//! | `GET /v1/models`, `GET /v1/stats` | Model registry with each ready model's stats / every stat as JSON (daemon, models, tenants, classes, chaos sites) |
//! | `GET /v1/circuits` | Per-model breaker state, AIMD admission limit, degrade ladder and rung |
//! | `GET /metrics` | Prometheus text exposition of the same stats, label values escaped |
//! | `GET /healthz`, `GET /readyz` | Liveness / readiness (`503` while loading or draining) |
//! | `POST /admin/models` | Hot load / reload / unload a model (zero-drop swap) |
//! | `POST /admin/snapshot` | Re-persist every loaded model to the snapshot store; `GET` lists snapshots on disk |
//! | `POST /admin/shutdown` | Start a graceful drain |
//! | `POST /admin/degrade` | Pin a model to a degrade rung (`level`) or release it (`null`) |
//! | `POST /admin/chaos` | Arm/clear chaos sites — the only fault injection, daemon-wide (fault-injection builds only); `GET` reports per-site fire counts |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod config;
pub mod daemon;
pub mod http;
pub mod json;
mod stats;

pub use client::{ClientError, FabClient, RetryPolicy};
pub use config::{DaemonConfig, Precision, ProfileConfig};
pub use daemon::Daemon;
pub use json::Json;
// Fleet knobs a `DaemonConfig` embeds, so configuring callers (tests,
// benches) need not depend on `fab-fleet` directly.
pub use fab_chaos::ChaosSite;
pub use fab_fleet::{ClassWeights, OverloadConfig, TenantQuota};
