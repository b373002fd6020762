//! # fab-serve
//!
//! The serving subsystem of the FABNet reproduction: a dynamic-batching
//! inference runtime that turns the PR-1 parallel kernels into sustained
//! request throughput.
//!
//! Three pieces compose the runtime:
//!
//! - [`InferenceSession`] — a trained model frozen into a tape-free,
//!   `Send + Sync` forward path ([`fab_nn::FrozenModel`]) shared by all
//!   workers; a batch is one forward per sequence, fanned out over the
//!   worker pool (`rayon::fork_chunks_mut`).
//! - [`Server`] — a bounded MPSC request queue with admission control,
//!   drained into micro-batches by a pool of std-thread workers; knobs live
//!   in [`ServeConfig`] (`max_batch`, `max_wait_us`, `queue_capacity`,
//!   `num_workers`). A batch leaves the queue when it is full or its
//!   oldest request has waited `max_wait_us` — one rule, in the server.
//!   The order requests leave in is a pluggable [`BatchPolicy`]:
//!   [`Server::start`] installs the arrival-order [`FifoPolicy`]
//!   (sequences of any length share a batch; nothing is padded), and
//!   [`Server::start_with_policy`] accepts any other discipline — e.g.
//!   fab-fleet's tenant-aware weighted-fair policy over [`RequestQos`]
//!   labels ([`ServerHandle::submit_with_qos`]).
//! - [`ServerStats`] — aggregate metrics (throughput, p50/p95/p99 latency
//!   histograms, queue depth, batch occupancy) plus per-request metrics on
//!   every [`Prediction`].
//!
//! Batching never changes results: whatever batch a request rides in, its
//! logits are bit-identical to the same session answering it alone (see
//! [`fab_nn::frozen`] for why). Relative to the tape path,
//! [`InferenceSession::exact`] is bit-identical to `Model::predict`, while
//! the default [`InferenceSession::new`] enables the serving-grade
//! fast-math kernels and stays within ~1e-6 of it.
//!
//! The runtime is built for partial failure (PR 6): per-request deadlines
//! shed expired work before any forward pass
//! ([`ServerHandle::submit_with_deadline`], [`ServeError::DeadlineExceeded`]),
//! admission control rejects with a drain-rate-derived
//! [`retry_after_ms`](ServeError::Overloaded) hint, a panicking batched
//! forward is retried per-request so one poisonous input cannot fail its
//! batchmates, queue locks recover from poisoning, a supervisor respawns
//! dead worker threads with exponential backoff, and graceful shutdown
//! answers every admitted request — inline on the shutting-down thread if
//! every worker died. One fault-injection hook,
//! [`InferenceSession::with_chaos`], lets tests and benches prove all of
//! it: its seeded [`fab_chaos`] sites slow or panic a forward pass, poison
//! one sequence by token id, and kill serving workers.
//!
//! Sessions come in three kinds ([`SessionKind`], reported by
//! [`ServerStats::session_kind`]): `exact` and `fastmath` run the f32
//! frozen model, `int8` is the same [`InferenceSession::from_frozen`] over
//! a post-training-quantized model ([`fab_quant::quantize_frozen`]) whose
//! dense GEMMs use the int8 SIMD kernels — same batcher, same invariance
//! guarantee.
//!
//! # Example
//!
//! ```rust
//! use fab_nn::{Model, ModelConfig, ModelKind};
//! use fab_serve::{InferenceSession, ServeConfig, Server};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let model = Model::new(&ModelConfig::tiny_for_tests(), ModelKind::FabNet, &mut rng);
//! // `InferenceSession::exact` is bit-identical to `model.predict`;
//! // `InferenceSession::new` enables the ~1e-6 fast-math serving kernels.
//! let server = Server::start(InferenceSession::exact(&model), ServeConfig::default());
//! let handle = server.handle();
//! let prediction = handle.infer(vec![1, 2, 3, 4]).unwrap();
//! assert_eq!(prediction.logits, model.predict(&[1, 2, 3, 4]));
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod limiter;
mod metrics;
pub mod policy;
mod server;
mod session;

pub use limiter::{AimdConfig, AimdLimiter};
pub use metrics::{HistogramSummary, LatencyHistogram, ServerStats};
pub use policy::{BatchPolicy, FifoPolicy, Priority, QueuedRequest, RequestQos};
pub use server::{PendingPrediction, Prediction, ServeConfig, ServeError, Server, ServerHandle};
pub use session::{InferenceSession, SessionKind, SessionScratch};
