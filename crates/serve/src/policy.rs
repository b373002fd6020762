//! Pluggable batch-formation policies.
//!
//! PR 2 hard-wired the length-bucket batcher into the server's queue; this
//! module factors the "which requests ride the next batch" decision out
//! into the [`BatchPolicy`] trait so alternative schedulers compose with
//! the same worker pool, supervision, shedding, and drain machinery:
//!
//! - [`LengthBucketPolicy`] — the original policy (per-bucket FIFO, full
//!   bucket dispatches first, otherwise global-FIFO head after
//!   `max_wait`), used by [`Server::start`](crate::Server::start).
//! - `fab-fleet`'s tenant-aware weighted-fair scheduler — plugged in via
//!   [`Server::start_with_policy`](crate::Server::start_with_policy).
//!
//! The contract: the server validates and constructs a [`QueuedRequest`],
//! the policy queues it ([`BatchPolicy::admit`]) and later hands back a
//! batch ([`BatchPolicy::next_batch`]). Everything around that decision —
//! admission capacity, deadline shedding, panic isolation, metrics,
//! zero-drop drain — stays in the server, so every policy
//! inherits the PR-6 robustness guarantees unchanged.

use crate::server::{Prediction, ServeError};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Priority class of a request, ordered from most to least
/// latency-sensitive.
///
/// Classes are *weighted*, not strict: a scheduler serving them (e.g.
/// fab-fleet's) drains higher classes proportionally more often, but a
/// lower class with a nonzero weight always keeps a bounded share — a
/// saturating interactive tenant cannot starve background work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive foreground traffic (the default).
    #[default]
    Interactive,
    /// Throughput-oriented bulk traffic.
    Batch,
    /// Best-effort traffic that only needs to not starve.
    Background,
}

impl Priority {
    /// All classes, ordered from most to least latency-sensitive.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::Background];

    /// Stable dense index (`0..3`) for per-class tables.
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::Background => 2,
        }
    }

    /// Canonical lowercase name (`interactive` / `batch` / `background`).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::Background => "background",
        }
    }

    /// Parses a canonical name back into a class.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "interactive" => Some(Priority::Interactive),
            "batch" => Some(Priority::Batch),
            "background" => Some(Priority::Background),
            _ => None,
        }
    }
}

/// Quality-of-service labels a request carries through the queue.
///
/// The default ([`RequestQos::default`]) is an anonymous interactive
/// request — exactly what [`ServerHandle::submit`](crate::ServerHandle::submit)
/// produces — so QoS-unaware callers and QoS-unaware policies compose
/// without special cases.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestQos {
    /// Tenant the request is billed to (`None` = anonymous, which
    /// tenant-aware schedulers treat as one shared default tenant).
    pub tenant: Option<String>,
    /// Priority class.
    pub priority: Priority,
}

/// One validated, admitted request travelling from the queue to a worker.
///
/// Only the server constructs these on the submit path (after vocabulary,
/// length, and deadline validation); policies merely hold and reorder
/// them. Tests and benchmarks driving a policy directly can mint one with
/// [`QueuedRequest::detached`].
#[derive(Debug)]
pub struct QueuedRequest {
    pub(crate) tokens: Vec<usize>,
    pub(crate) enqueued: Instant,
    /// Absolute shed deadline; the server answers the request
    /// [`ServeError::DeadlineExceeded`] instead of running it once this
    /// instant passes.
    pub(crate) deadline: Option<Instant>,
    pub(crate) qos: RequestQos,
    pub(crate) resp: mpsc::Sender<Result<Prediction, ServeError>>,
}

impl QueuedRequest {
    /// Sequence length in tokens.
    pub fn seq_len(&self) -> usize {
        self.tokens.len()
    }

    /// When the request entered the queue.
    pub fn enqueued_at(&self) -> Instant {
        self.enqueued
    }

    /// The request's QoS labels.
    pub fn qos(&self) -> &RequestQos {
        &self.qos
    }

    /// Whether the request's deadline has passed at `now`.
    pub fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    /// Builds a request with no server behind it, for driving a
    /// [`BatchPolicy`] directly in tests and benchmarks. The returned
    /// receiver observes whatever response the driver eventually sends.
    pub fn detached(
        tokens: Vec<usize>,
        deadline: Option<Duration>,
        qos: RequestQos,
    ) -> (Self, mpsc::Receiver<Result<Prediction, ServeError>>) {
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        (Self { tokens, enqueued: now, deadline: deadline.map(|d| now + d), qos, resp: tx }, rx)
    }
}

/// What a policy wants the calling worker to do next.
pub enum BatchDecision {
    /// Run these requests as one batch. Expired requests may be included —
    /// the server sheds them after the policy hands the batch over.
    Dispatch {
        /// The requests riding this batch, oldest first.
        requests: Vec<QueuedRequest>,
    },
    /// Work is queued but still coalescing; sleep until this instant (or
    /// the next submission) and ask again.
    WaitUntil(Instant),
    /// The queue is empty.
    Idle,
}

/// A batch-formation policy: owns the queued requests between admission
/// and dispatch, and decides their grouping and order.
///
/// Implementations must uphold two invariants the server's guarantees
/// build on:
///
/// - **No request is dropped.** Every admitted request is eventually
///   returned by `next_batch` — `rush == true` (shutdown drain) must
///   dispatch pending work immediately without further waiting.
/// - **Work conservation under rush.** While the queue is non-empty,
///   `next_batch(.., rush: true)` never returns `WaitUntil`/`Idle`.
pub trait BatchPolicy: Send {
    /// Accepts one validated request into the queue, or returns it to the
    /// server to reject with [`ServeError::Overloaded`] (policy-internal
    /// bounds, e.g. a per-tenant queue cap; the global capacity bound is
    /// enforced by the server before calling this).
    fn admit(&mut self, req: QueuedRequest) -> Result<(), QueuedRequest>;

    /// Decides the next batch of at most `max_batch` requests. `rush` is
    /// set during shutdown: dispatch immediately instead of waiting for
    /// batches to fill.
    fn next_batch(&mut self, max_batch: usize, now: Instant, rush: bool) -> BatchDecision;

    /// Requests currently queued.
    fn depth(&self) -> usize;

    /// Longest sequence this policy accepts (drives the server's
    /// [`ServeError::SequenceTooLong`] validation and scratch sizing).
    fn max_seq_len(&self) -> usize;
}

/// The PR-2 length-bucket policy: per-bucket FIFO queues over ascending
/// length boundaries.
///
/// A worker first dispatches any bucket already holding a full
/// `max_batch` (oldest head first among those); otherwise it picks the
/// bucket whose head request is oldest (global FIFO across buckets) and
/// dispatches it once that head has waited `max_wait` or the server is
/// shutting down. An idle server therefore adds at most `max_wait` of
/// batching delay, a saturated one runs full batches back to back, and a
/// full batch never waits behind a stale request in another bucket.
pub struct LengthBucketPolicy {
    /// Ascending bucket boundaries; a request joins the first bucket whose
    /// boundary covers its length.
    buckets: Vec<usize>,
    /// Per-bucket FIFO queues, aligned with `buckets`.
    queues: Vec<VecDeque<QueuedRequest>>,
    depth: usize,
    max_wait: Duration,
}

impl LengthBucketPolicy {
    /// Creates the policy over ascending, deduplicated bucket boundaries.
    ///
    /// # Panics
    ///
    /// Panics when `buckets` is empty.
    pub fn new(buckets: Vec<usize>, max_wait: Duration) -> Self {
        assert!(!buckets.is_empty(), "at least one bucket boundary");
        let queues = (0..buckets.len()).map(|_| VecDeque::new()).collect();
        Self { buckets, queues, depth: 0, max_wait }
    }
}

impl BatchPolicy for LengthBucketPolicy {
    fn admit(&mut self, req: QueuedRequest) -> Result<(), QueuedRequest> {
        let bucket = self
            .buckets
            .iter()
            .position(|&b| req.seq_len() <= b)
            .expect("server validated the length against max_seq_len");
        self.queues[bucket].push_back(req);
        self.depth += 1;
        Ok(())
    }

    fn next_batch(&mut self, max_batch: usize, now: Instant, rush: bool) -> BatchDecision {
        if self.depth == 0 {
            return BatchDecision::Idle;
        }
        // Prefer a bucket that can already dispatch a full batch (oldest
        // head first among those) — a full batch must never wait behind a
        // lone stale request in another bucket. With no full bucket, fall
        // back to the bucket whose head has waited longest (global FIFO)
        // and dispatch it once its wait deadline expires.
        let heads = || {
            self.queues.iter().enumerate().filter_map(|(b, q)| q.front().map(|r| (b, r.enqueued)))
        };
        let full_bucket =
            heads().filter(|&(b, _)| self.queues[b].len() >= max_batch).min_by_key(|&(_, e)| e);
        let (bucket, enqueued, is_full) = match full_bucket {
            Some((b, e)) => (b, e, true),
            None => {
                let (b, e) =
                    heads().min_by_key(|&(_, e)| e).expect("depth > 0 implies a non-empty bucket");
                (b, e, false)
            }
        };
        let ready = rush || is_full || now.duration_since(enqueued) >= self.max_wait;
        if !ready {
            return BatchDecision::WaitUntil(enqueued + self.max_wait);
        }
        let take = self.queues[bucket].len().min(max_batch);
        self.depth -= take;
        let requests: Vec<QueuedRequest> = self.queues[bucket].drain(..take).collect();
        BatchDecision::Dispatch { requests }
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn max_seq_len(&self) -> usize {
        *self.buckets.last().expect("at least one bucket")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(len: usize) -> QueuedRequest {
        QueuedRequest::detached(vec![1; len], None, RequestQos::default()).0
    }

    #[test]
    fn priority_round_trips_through_parse() {
        for p in Priority::ALL {
            assert_eq!(Priority::parse(p.name()), Some(p));
        }
        assert_eq!(Priority::parse("urgent"), None);
        assert_eq!(Priority::default(), Priority::Interactive);
    }

    #[test]
    fn full_bucket_dispatches_before_max_wait() {
        let mut p = LengthBucketPolicy::new(vec![8, 16], Duration::from_secs(10));
        for _ in 0..4 {
            p.admit(req(5)).unwrap();
        }
        match p.next_batch(4, Instant::now(), false) {
            BatchDecision::Dispatch { requests } => assert_eq!(requests.len(), 4),
            _ => panic!("full bucket must dispatch immediately"),
        }
        assert_eq!(p.depth(), 0);
    }

    #[test]
    fn partial_bucket_waits_until_its_head_deadline() {
        let mut p = LengthBucketPolicy::new(vec![8], Duration::from_secs(10));
        p.admit(req(3)).unwrap();
        match p.next_batch(4, Instant::now(), false) {
            BatchDecision::WaitUntil(at) => assert!(at > Instant::now()),
            _ => panic!("partial bucket must wait for max_wait"),
        }
        // Rush (shutdown drain) overrides the wait.
        match p.next_batch(4, Instant::now(), true) {
            BatchDecision::Dispatch { requests, .. } => assert_eq!(requests.len(), 1),
            _ => panic!("rush must dispatch pending work"),
        }
    }

    #[test]
    fn empty_policy_is_idle() {
        let mut p = LengthBucketPolicy::new(vec![8], Duration::ZERO);
        assert!(matches!(p.next_batch(4, Instant::now(), true), BatchDecision::Idle));
        assert_eq!(p.max_seq_len(), 8);
    }
}
