//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Nothing under `crates/` is instrumented: a span is the interval between
//! the benchmark calling a public function and that function returning.
//! Spans nest where the benchmark itself nests calls (a component replay
//! under a forward pass, a request under its due time); across the serving
//! ladder, where a rung cannot see inside the rung below it, a rung's self
//! time is its span minus the median span of the rung below
//! ([`ladder_self_times`]).

use fabd::Json;
use std::collections::HashMap;
use std::time::Instant;

/// One recorded interval. `parent` 0 means a root span; span ids start at 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub request: u64,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A span sink for one thread; traces of several threads are merged with
/// [`Trace::absorb`]. A disabled trace records nothing and costs one branch.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    enabled: bool,
    next_id: u32,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self { origin, enabled, next_id: 1, spans: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span and returns its result with the span's id
    /// (0 when disabled), so callers can parent further spans on it.
    pub fn span<R>(
        &mut self,
        request: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce(&mut Trace, u32) -> R,
    ) -> R {
        if !self.enabled {
            return f(self, 0);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_us = self.now_us();
        let out = f(self, id);
        let end_us = self.now_us();
        self.spans.push(Span { request, id, parent, name, start_us, end_us });
        out
    }

    /// Records an interval measured elsewhere (e.g. a load generator's
    /// due/sent/done instants), returning its id.
    pub fn record(
        &mut self,
        request: u64,
        parent: u32,
        name: &'static str,
        start_us: f64,
        end_us: f64,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span { request, id, parent, name, start_us, end_us });
        id
    }

    /// Merges another thread's spans, keeping ids unique.
    pub fn absorb(&mut self, other: Trace) {
        let shift = self.next_id - 1;
        for mut s in other.spans {
            s.id += shift;
            if s.parent != 0 {
                s.parent += shift;
            }
            self.spans.push(s);
        }
        self.next_id += other.next_id - 1;
    }

    /// Writes at most `cap` spans as JSON (the file says how many were
    /// recorded in all).
    pub fn write(&self, path: &std::path::Path, workload: &str, cap: usize) -> std::io::Result<()> {
        let spans: Vec<Json> = self
            .spans
            .iter()
            .take(cap)
            .map(|s| {
                Json::Obj(vec![
                    ("request".to_string(), Json::Num(s.request as f64)),
                    ("id".to_string(), Json::Num(f64::from(s.id))),
                    ("parent".to_string(), Json::Num(f64::from(s.parent))),
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    ("start_us".to_string(), Json::Num(s.start_us)),
                    ("end_us".to_string(), Json::Num(s.end_us)),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("workload".to_string(), Json::Str(workload.to_string())),
            ("recorded".to_string(), Json::Num(self.spans.len() as f64)),
            ("written".to_string(), Json::Num(spans.len() as f64)),
            ("spans".to_string(), Json::Arr(spans)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, format!("{doc}\n"))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children are not counted
/// twice; a child sticking out of its parent is clipped).
pub fn self_times(spans: &[Span]) -> HashMap<u32, f64> {
    let mut children: HashMap<u32, Vec<(f64, f64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_us, s.end_us));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
                let mut cursor = s.start_us;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(s.end_us));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, s.duration_us() - covered)
        })
        .collect()
}

/// Total self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> HashMap<&'static str, f64> {
    let own = self_times(spans);
    let mut by_name: HashMap<&'static str, f64> = HashMap::new();
    for s in spans {
        *by_name.entry(s.name).or_default() += own[&s.id];
    }
    by_name
}

/// Self time of each rung of a ladder given the rungs' median spans,
/// innermost first: rung 0 keeps its whole span, every further rung keeps
/// what it adds over the rung below. The self times sum to the outermost
/// rung's span by construction.
pub fn ladder_self_times(rung_medians_us: &[f64]) -> Vec<f64> {
    rung_medians_us
        .iter()
        .enumerate()
        .map(|(i, &m)| if i == 0 { m } else { m - rung_medians_us[i - 1] })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_us: f64, end_us: f64) -> Span {
        Span { request: 1, id, parent, name, start_us, end_us }
    }

    #[test]
    fn self_time_subtracts_children_once_and_clips_them() {
        let spans = [
            span(1, 0, "root", 0.0, 100.0),
            span(2, 1, "a", 10.0, 40.0),
            span(3, 1, "b", 30.0, 60.0),  // overlaps a by 10
            span(4, 1, "c", 90.0, 120.0), // sticks out by 20
            span(5, 2, "leaf", 15.0, 20.0),
        ];
        let own = self_times(&spans);
        // children cover 10..60 and 90..100 = 60 of root's 100
        assert_eq!(own[&1], 40.0);
        assert_eq!(own[&2], 25.0);
        assert_eq!(own[&3], 30.0);
        assert_eq!(own[&4], 30.0);
        assert_eq!(own[&5], 5.0);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], 40.0);
        assert_eq!(by_name["leaf"], 5.0);
    }

    #[test]
    fn ladder_self_times_close_on_the_outer_rung() {
        let own = ladder_self_times(&[40.0, 560.0, 575.0, 950.0]);
        assert_eq!(own, vec![40.0, 520.0, 15.0, 375.0]);
        assert_eq!(own.iter().sum::<f64>(), 950.0);
    }

    #[test]
    fn trace_nests_spans_and_merges_threads() {
        let origin = Instant::now();
        let mut a = Trace::new(origin, true);
        let inner_parent = a.span(7, 0, "outer", |t, outer| {
            t.span(7, outer, "inner", |_, _| ());
            outer
        });
        assert_eq!(a.spans.len(), 2);
        let inner = a.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = a.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, inner_parent);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);

        let mut b = Trace::new(origin, true);
        b.span(8, 0, "outer", |t, outer| t.record(8, outer, "inner", 1.0, 2.0));
        a.absorb(b);
        assert_eq!(a.spans.len(), 4);
        let mut ids: Vec<u32> = a.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "ids stay unique after a merge");
        let merged_inner = a.spans.iter().find(|s| s.request == 8 && s.name == "inner").unwrap();
        let merged_outer = a.spans.iter().find(|s| s.request == 8 && s.name == "outer").unwrap();
        assert_eq!(merged_inner.parent, merged_outer.id);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(Instant::now(), false);
        let v = t.span(1, 0, "x", |t, id| {
            assert_eq!(id, 0);
            t.record(1, id, "y", 0.0, 1.0);
            42
        });
        assert_eq!(v, 42);
        assert!(t.spans.is_empty());
    }
}
