//! What a run hands back, and how it is printed and stored.

use crate::host::HostProbe;
use crate::spec::{self, MetricDef};
use crate::stats::Summary;
use fabd::Json;
use std::collections::BTreeMap;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Opts {
    /// Untimed warm-up, shortened with the run in smoke mode.
    pub fn warmup_s(&self) -> f64 {
        spec::WARMUP_S.min(self.seconds / 5.0)
    }

    /// Request-pool size (`full` in a real run, a quarter in smoke mode).
    pub fn pool(&self, full: usize) -> usize {
        if self.smoke {
            full / 4
        } else {
            full
        }
    }

    /// How many times set-up is repeated (`full` in a real run).
    pub fn setups(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }
}

/// The outcome of one workload run, traced or not.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted and operations that failed, were refused, or
    /// failed the output check.
    pub attempted: u64,
    pub failed: u64,
    /// Metric name to its per-round summary (n = 1 for single readings).
    pub metrics: BTreeMap<String, Summary>,
    /// The per-round values behind each summary, in round order.
    pub rounds: BTreeMap<String, Vec<f64>>,
    /// Diagnostics that are printed and stored but never gated.
    pub notes: Vec<(String, Json)>,
}

impl RunOutput {
    /// Reports the median of the per-round `values`.
    pub fn set(&mut self, name: &str, values: &[f64]) {
        self.metrics.insert(name.to_string(), Summary::of(values));
        self.rounds.insert(name.to_string(), values.to_vec());
    }

    pub fn set_one(&mut self, name: &str, value: f64) {
        self.set(name, &[value]);
    }

    pub fn note(&mut self, name: &str, value: Json) {
        self.notes.push((name.to_string(), value));
    }

    /// Counts one output check.
    pub fn check(&mut self, passed: bool, what: &str) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |s| s.median)
    }
}

pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

fn summary_json(def: &MetricDef, s: &Summary, rounds: &[f64]) -> Json {
    obj(vec![
        ("value", Json::Num(s.median)),
        ("unit", Json::Str(def.unit.to_string())),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::Num(s.n as f64)),
        ("rounds", nums(rounds)),
    ])
}

/// The metric table a run must report: end-to-end untraced, per-layer traced.
pub fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        spec::PER_LAYER
    } else {
        &spec::END_TO_END
    }
}

/// The full result document of one run (stored under `benchmark/results/`
/// and embedded in suite files).
pub fn result_json(opts: &Opts, out: &RunOutput, host: &HostProbe) -> Json {
    let defs = table(opts.trace);
    let metrics = defs
        .iter()
        .map(|d| {
            let s = out.metrics.get(d.name).copied().unwrap_or(Summary::of(&[0.0]));
            let rounds = out.rounds.get(d.name).map_or(&[][..], Vec::as_slice);
            (d.name.to_string(), summary_json(d, &s, rounds))
        })
        .collect();
    obj(vec![
        ("workload", Json::Str(opts.workload.clone())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("smoke", Json::Bool(opts.smoke)),
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("error_share", Json::Num(out.failed as f64 / out.attempted.max(1) as f64)),
        ("metrics", Json::Obj(metrics)),
        ("notes", Json::Obj(out.notes.clone())),
        ("host", host.finish()),
        ("claim", Json::Null),
    ])
}

/// The last line of standard output the driver reads: exactly `correct`,
/// `attempted`, `failed` and `metrics` (value and unit per metric).
pub fn contract_line(opts: &Opts, out: &RunOutput) -> String {
    let metrics = table(opts.trace)
        .iter()
        .map(|d| {
            (
                d.name.to_string(),
                obj(vec![
                    ("value", Json::Num(out.value(d.name))),
                    ("unit", Json::Str(d.unit.to_string())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

/// Human-readable listing of every metric by name with unit.
pub fn print_metrics(opts: &Opts, out: &RunOutput) {
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.smoke { " SMOKE" } else { "" }
    );
    for d in table(opts.trace) {
        let s = out.metrics.get(d.name).copied().unwrap_or(Summary::of(&[0.0]));
        let arrow = if d.higher_is_better { "higher is better" } else { "lower is better" };
        if s.n > 1 {
            println!(
                "  {:<34} {:>16.4} {:<8} {arrow} [median of {} rounds, q1 {:.4} q3 {:.4}]",
                d.name, s.median, d.unit, s.n, s.q1, s.q3
            );
        } else {
            println!("  {:<34} {:>16.4} {:<8} {arrow}", d.name, s.median, d.unit);
        }
    }
    for (k, v) in &out.notes {
        println!("  note {k}: {v}");
    }
    println!(
        "  attempted {} failed {} error_share {:.6}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(trace: bool) -> Opts {
        Opts { workload: "small-closed".into(), seed: 1, seconds: 25.0, trace, smoke: false }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_metric() {
        for trace in [false, true] {
            let mut out = RunOutput::default();
            out.set("p50_ms", &[1.0, 1.2, 1.1]);
            out.attempted = 10;
            let v = Json::parse(&contract_line(&opts(trace), &out)).unwrap();
            let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = v.get("metrics").and_then(Json::as_obj).unwrap();
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = table(trace).iter().map(|d| d.name).collect();
            assert_eq!(names, want);
            for (_, m) in metrics {
                let keys: Vec<&str> = m.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["value", "unit"]);
            }
            if !trace {
                assert_eq!(
                    v.get("metrics").unwrap().get("p50_ms").unwrap().get("value"),
                    Some(&Json::Num(1.1))
                );
            }
        }
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut out = RunOutput::default();
        out.check(true, "fine");
        out.check(false, "broken on purpose (expected in this test)");
        assert_eq!((out.attempted, out.failed), (2, 1));
        let v = Json::parse(&contract_line(&opts(false), &out)).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
    }
}
