//! The fleet's tenant-aware queue discipline: two-level weighted
//! (stride) fair queueing plugged into fab-serve's [`BatchPolicy`] trait.
//!
//! Requests are keyed by `(priority class, tenant)`. Dequeue picks the
//! class with the smallest virtual *pass*, then the tenant with the
//! smallest pass inside that class; each dequeue advances the chosen
//! class's pass by `1 / class_weight` and the chosen tenant's by
//! `1 / tenant_weight`. Classes are therefore *weighted*, not strict: an
//! interactive flood gets `interactive : background = 16 : 1` of the
//! dequeues (by default), never 100% — a background tenant with a nonzero
//! weight has a bounded wait under any load (the property fleet's tests
//! check). A lane rejoining the queue clamps its pass up to the current
//! virtual clock, so an idle tenant cannot hoard credit and burst past
//! active ones.
//!
//! The policy only orders the queue; when a batch leaves it is the
//! server's one timing rule. Batches mix sequence lengths freely: the
//! session evaluates every sequence of a batch on its own, at its own
//! length, so logits are bit-identical to serving each request alone —
//! scheduling order never changes results, only latency.

use crate::qos::TenantTable;
use fab_serve::policy::{BatchPolicy, QueuedRequest};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Relative dequeue shares of the three priority classes.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassWeights {
    /// Share of [`Priority::Interactive`](fab_serve::Priority::Interactive).
    pub interactive: f64,
    /// Share of [`Priority::Batch`](fab_serve::Priority::Batch).
    pub batch: f64,
    /// Share of [`Priority::Background`](fab_serve::Priority::Background).
    pub background: f64,
}

impl Default for ClassWeights {
    /// 16 : 4 : 1 — interactive dominates under contention but background
    /// still owns ~5% of dequeues.
    fn default() -> Self {
        Self { interactive: 16.0, batch: 4.0, background: 1.0 }
    }
}

impl ClassWeights {
    fn as_array(&self) -> [f64; 3] {
        [self.interactive, self.batch, self.background]
    }
}

/// Weight floor: a zero weight would stall the pass arithmetic, so it is
/// treated as "one dequeue advances the pass by 10^9" — effectively served
/// only when nothing weightier is queued.
const WEIGHT_FLOOR: f64 = 1e-9;

/// One tenant's FIFO lane inside a class.
struct TenantLane {
    queue: VecDeque<QueuedRequest>,
    weight: f64,
    pass: f64,
}

/// One priority class: its tenant lanes plus its own stride state.
#[derive(Default)]
struct ClassLane {
    lanes: HashMap<String, TenantLane>,
    depth: usize,
    /// This class's virtual pass in the top-level (across-class) stride.
    pass: f64,
    /// Pass of the last tenant dequeued from this class: the clamp floor
    /// for lanes that rejoin after idling.
    vclock: f64,
}

/// The two-level weighted-fair [`BatchPolicy`] described in the module
/// docs. One instance guards one model's queue (it lives inside that
/// server's queue mutex); the [`TenantTable`] supplying the weights is
/// shared fleet-wide.
pub struct QosPolicy {
    classes: [ClassLane; 3],
    class_weights: [f64; 3],
    /// Pass of the last dequeued class: the clamp floor for classes that
    /// rejoin after idling.
    vclock: f64,
    depth: usize,
    /// Per-tenant queue bound within this model (0 = none): one tenant
    /// cannot fill the whole shared queue even inside its rate quota.
    per_tenant_cap: usize,
    tenants: Arc<TenantTable>,
}

impl QosPolicy {
    /// Creates the policy for one model queue. `per_tenant_cap` bounds one
    /// tenant's queued requests (0 disables), and `tenants` supplies
    /// per-tenant weights as lanes first appear.
    pub fn new(
        class_weights: ClassWeights,
        per_tenant_cap: usize,
        tenants: Arc<TenantTable>,
    ) -> Self {
        Self {
            classes: Default::default(),
            class_weights: class_weights.as_array(),
            vclock: 0.0,
            depth: 0,
            per_tenant_cap,
            tenants,
        }
    }
}

impl BatchPolicy for QosPolicy {
    fn admit(&mut self, req: QueuedRequest) -> Result<(), QueuedRequest> {
        let qos = req.qos();
        let ci = qos.priority.index();
        let tenant = qos.tenant.as_deref().unwrap_or(crate::qos::DEFAULT_TENANT).to_string();
        let weight = self.tenants.weight(&tenant);
        let vclock = self.vclock;
        let class = &mut self.classes[ci];
        let lane = class.lanes.entry(tenant).or_insert_with(|| TenantLane {
            queue: VecDeque::new(),
            weight,
            pass: 0.0,
        });
        if self.per_tenant_cap != 0 && lane.queue.len() >= self.per_tenant_cap {
            return Err(req);
        }
        if lane.queue.is_empty() {
            // Rejoining lane: forfeit credit accumulated while idle.
            lane.pass = lane.pass.max(class.vclock);
            lane.weight = weight; // pick up quota reconfiguration
        }
        if class.depth == 0 {
            class.pass = class.pass.max(vclock);
        }
        lane.queue.push_back(req);
        class.depth += 1;
        self.depth += 1;
        Ok(())
    }

    /// Dequeues the globally next request per the two-level stride.
    fn pop(&mut self) -> Option<QueuedRequest> {
        let ci = (0..3)
            .filter(|&c| self.classes[c].depth > 0)
            .min_by(|&a, &b| self.classes[a].pass.total_cmp(&self.classes[b].pass))?;
        let class = &mut self.classes[ci];
        let tenant = class
            .lanes
            .iter()
            .filter(|(_, l)| !l.queue.is_empty())
            .min_by(|(_, a), (_, b)| a.pass.total_cmp(&b.pass))
            .map(|(name, _)| name.clone())
            .expect("class depth > 0 implies a non-empty lane");
        let lane = class.lanes.get_mut(&tenant).expect("lane exists");
        let req = lane.queue.pop_front().expect("lane is non-empty");
        lane.pass += 1.0 / lane.weight.max(WEIGHT_FLOOR);
        class.vclock = lane.pass;
        class.depth -= 1;
        class.pass += 1.0 / self.class_weights[ci].max(WEIGHT_FLOOR);
        self.vclock = class.pass;
        self.depth -= 1;
        Some(req)
    }

    fn depth(&self) -> usize {
        self.depth
    }

    /// The oldest enqueue instant across every lane head.
    fn oldest(&self) -> Option<Instant> {
        self.classes
            .iter()
            .flat_map(|c| c.lanes.values())
            .filter_map(|l| l.queue.front().map(|r| r.enqueued_at()))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::TenantQuota;
    use fab_serve::policy::{Priority, RequestQos};

    fn table(weights: &[(&str, f64)]) -> Arc<TenantTable> {
        Arc::new(TenantTable::new(
            TenantQuota::default(),
            weights
                .iter()
                .map(|&(n, w)| (n.to_string(), TenantQuota { weight: w, ..TenantQuota::default() }))
                .collect(),
        ))
    }

    fn req(tenant: &str, priority: Priority) -> QueuedRequest {
        QueuedRequest::detached(
            vec![1, 2, 3],
            None,
            RequestQos { tenant: Some(tenant.to_string()), priority },
        )
        .0
    }

    fn drain_tenants(p: &mut QosPolicy, n: usize) -> Vec<String> {
        (0..n)
            .map(|_| p.pop().expect("queued work").qos().tenant.clone().expect("tenant set"))
            .collect()
    }

    #[test]
    fn equal_weights_interleave_tenants() {
        let mut p = QosPolicy::new(ClassWeights::default(), 0, table(&[("a", 1.0), ("b", 1.0)]));
        for _ in 0..4 {
            p.admit(req("a", Priority::Interactive)).unwrap();
            p.admit(req("b", Priority::Interactive)).unwrap();
        }
        let order = drain_tenants(&mut p, 8);
        for pair in order.chunks(2) {
            assert_ne!(pair[0], pair[1], "equal weights must alternate: {order:?}");
        }
    }

    #[test]
    fn weights_divide_dequeues_proportionally() {
        let mut p =
            QosPolicy::new(ClassWeights::default(), 0, table(&[("heavy", 3.0), ("light", 1.0)]));
        for _ in 0..40 {
            p.admit(req("heavy", Priority::Batch)).unwrap();
            p.admit(req("light", Priority::Batch)).unwrap();
        }
        let first16: Vec<String> = drain_tenants(&mut p, 16);
        let heavy = first16.iter().filter(|t| *t == "heavy").count();
        assert!((11..=13).contains(&heavy), "3:1 weights should give ~12/16: {first16:?}");
    }

    #[test]
    fn classes_share_by_weight_not_strictly() {
        let mut p = QosPolicy::new(
            ClassWeights { interactive: 4.0, batch: 1.0, background: 1.0 },
            0,
            table(&[]),
        );
        for _ in 0..50 {
            p.admit(req("fg", Priority::Interactive)).unwrap();
        }
        for _ in 0..10 {
            p.admit(req("bg", Priority::Background)).unwrap();
        }
        let first25 = drain_tenants(&mut p, 25);
        let bg = first25.iter().filter(|t| *t == "bg").count();
        assert!(bg >= 3, "background must keep its ~1/5 share under interactive load: {bg}");
        assert!(bg <= 8, "background must not outrun its weight: {bg}");
    }

    #[test]
    fn idle_lane_cannot_hoard_credit() {
        let mut p = QosPolicy::new(ClassWeights::default(), 0, table(&[]));
        // "busy" works alone for a long stretch, racking up pass.
        for _ in 0..32 {
            p.admit(req("busy", Priority::Interactive)).unwrap();
        }
        drain_tenants(&mut p, 32);
        // "sleeper" arrives fresh; its pass clamps up to the clock, so it
        // interleaves with busy instead of monopolising.
        for _ in 0..8 {
            p.admit(req("sleeper", Priority::Interactive)).unwrap();
            p.admit(req("busy", Priority::Interactive)).unwrap();
        }
        let order = drain_tenants(&mut p, 8);
        let sleeper = order.iter().filter(|t| *t == "sleeper").count();
        assert!((3..=5).contains(&sleeper), "rejoining lane must not burst: {order:?}");
    }

    #[test]
    fn per_tenant_cap_bounds_one_tenant() {
        let mut p = QosPolicy::new(ClassWeights::default(), 2, table(&[]));
        p.admit(req("t", Priority::Interactive)).unwrap();
        p.admit(req("t", Priority::Interactive)).unwrap();
        assert!(p.admit(req("t", Priority::Interactive)).is_err(), "cap must reject");
        assert!(p.admit(req("other", Priority::Interactive)).is_ok(), "cap is per tenant");
        assert_eq!(p.depth(), 3);
    }
}
