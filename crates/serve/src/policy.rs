//! Pluggable queue disciplines, and the one rule for when a batch leaves.
//!
//! A [`BatchPolicy`] owns the queued requests between admission and
//! dispatch and decides their *order*:
//!
//! - `FifoPolicy` — one arrival-order queue, used by
//!   [`Server::start`](crate::Server::start). Sequences of any length share
//!   a batch: the session evaluates each on its own, so nothing is padded
//!   and there is nothing to gain from keeping lengths apart.
//! - `fab-fleet`'s tenant-aware weighted-fair scheduler — plugged in via
//!   [`Server::start_with_policy`](crate::Server::start_with_policy).
//!
//! *When* a batch leaves the queue is not a policy's business: the server
//! applies one timing rule to whatever discipline is installed (see
//! [`Server`](crate::Server)). The contract: the server validates and constructs a
//! [`QueuedRequest`], the policy queues it ([`BatchPolicy::admit`]) and
//! hands requests back one at a time ([`BatchPolicy::pop`]). Everything
//! around that — admission capacity, batch timing, deadline shedding, panic
//! isolation, metrics, zero-drop drain — stays in the server, so every
//! policy inherits the robustness guarantees unchanged.

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
    /// When the request entered the queue.
    pub fn enqueued_at(&self) -> Instant {
        self.enqueued
    }

    /// The request's QoS labels.
    pub fn qos(&self) -> &RequestQos {
        &self.qos
    }

    /// Whether the request's deadline has passed at `now`.
    pub(crate) fn expired(&self, now: Instant) -> bool {
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

/// A queue discipline: owns the queued requests between admission and
/// dispatch, and decides the order they leave in.
///
/// The server's no-drop guarantee builds on one invariant: every admitted
/// request is eventually returned by [`BatchPolicy::pop`], and `pop`
/// returns `Some` whenever [`BatchPolicy::depth`] is nonzero.
pub trait BatchPolicy: Send {
    /// Accepts one validated request into the queue, or returns it to the
    /// server to reject with [`ServeError::Overloaded`] (policy-internal
    /// bounds, e.g. a per-tenant queue cap; the global capacity bound is
    /// enforced by the server before calling this).
    fn admit(&mut self, req: QueuedRequest) -> Result<(), QueuedRequest>;

    /// Removes and returns the request that should be served next. Expired
    /// requests may be returned — the server sheds them.
    fn pop(&mut self) -> Option<QueuedRequest>;

    /// Requests currently queued.
    fn depth(&self) -> usize;

    /// When the longest-waiting queued request was enqueued.
    fn oldest(&self) -> Option<Instant>;
}

/// Arrival-order queueing: the discipline [`Server::start`] installs.
///
/// [`Server::start`]: crate::Server::start
#[derive(Default)]
pub(crate) struct FifoPolicy {
    queue: VecDeque<QueuedRequest>,
}

impl BatchPolicy for FifoPolicy {
    fn admit(&mut self, req: QueuedRequest) -> Result<(), QueuedRequest> {
        self.queue.push_back(req);
        Ok(())
    }

    fn pop(&mut self) -> Option<QueuedRequest> {
        self.queue.pop_front()
    }

    fn depth(&self) -> usize {
        self.queue.len()
    }

    fn oldest(&self) -> Option<Instant> {
        self.queue.front().map(|r| r.enqueued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::dispatch_delay;

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
        let mut p = FifoPolicy::default();
        for len in [5, 5, 12, 3] {
            p.admit(req(len)).unwrap();
        }
        let wait = Duration::from_secs(10);
        assert_eq!(dispatch_delay(&p, 4, wait, Instant::now(), false), Some(Duration::ZERO));
        assert!(dispatch_delay(&p, 5, wait, Instant::now(), false) > Some(Duration::ZERO));
        let lens: Vec<usize> = std::iter::from_fn(|| p.pop()).map(|r| r.tokens.len()).collect();
        assert_eq!(lens, [5, 5, 12, 3], "arrival order, whatever the lengths");
        assert_eq!(p.depth(), 0);
    }

    #[test]
    fn partial_bucket_waits_until_its_head_deadline() {
        let mut p = FifoPolicy::default();
        p.admit(req(3)).unwrap();
        let (enqueued, wait) = (p.oldest().expect("one queued"), Duration::from_secs(10));
        let early = enqueued + Duration::from_secs(4);
        assert_eq!(dispatch_delay(&p, 4, wait, early, false), Some(Duration::from_secs(6)));
        assert_eq!(dispatch_delay(&p, 4, wait, enqueued + wait, false), Some(Duration::ZERO));
        // Rush (shutdown drain) overrides the wait.
        assert_eq!(dispatch_delay(&p, 4, wait, early, true), Some(Duration::ZERO));
    }

    #[test]
    fn empty_policy_is_idle() {
        let mut p = FifoPolicy::default();
        assert_eq!(dispatch_delay(&p, 4, Duration::ZERO, Instant::now(), true), None);
        assert!(p.pop().is_none() && p.oldest().is_none());
    }
}
