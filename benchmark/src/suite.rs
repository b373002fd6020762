//! Whole-suite commands: `suite` runs every workload in a fresh child
//! process and stores one file; `compare` judges two such files against the
//! bounds in `BENCHMARK.json`; `report` prints the "where the time goes"
//! table from a suite's traced runs.

use crate::host::HostProbe;
use crate::report::obj;
use crate::spec;
use crate::stats::{median, Summary};
use fabd::Json;
use std::process::Command;

/// Seconds per workload of a smoke run (checks on, numbers not comparable).
pub const SMOKE_SECONDS: f64 = 2.5;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub repeats: usize,
    pub smoke: bool,
    pub out: String,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Runs one workload in a child process of this executable and returns
/// the result document the child stored.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} (trace {}) exited with {status}", u8::from(trace)));
    }
    read_json(&format!("benchmark/results/{workload}-seed{seed}-trace{}.json", u8::from(trace)))
}

/// `benchmark suite`: every workload untraced (`repeats` times, seeds
/// `seed`, `seed+1`, ...), then traced once, each in its own process. A
/// smoke run is the untraced workloads only.
pub fn suite(args: &SuiteArgs) -> Result<(), String> {
    let host = HostProbe::start();
    let mut runs = Vec::new();
    for (workload, _) in spec::WORKLOADS {
        for r in 0..args.repeats.max(1) as u64 {
            runs.push(child_run(workload, args.seed + r, args.seconds, false, args.smoke)?);
        }
    }
    if !args.smoke {
        for (workload, _) in spec::WORKLOADS {
            runs.push(child_run(workload, args.seed, args.seconds, true, args.smoke)?);
        }
    }
    let failed: f64 = runs.iter().filter_map(|r| r.get("failed").and_then(Json::as_f64)).sum();
    let doc = obj(vec![
        ("kind", Json::Str("suite".to_string())),
        ("smoke", Json::Bool(args.smoke)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("repeats", Json::Num(args.repeats as f64)),
        ("failed", Json::Num(failed)),
        ("host", host.finish()),
        ("runs", Json::Arr(runs)),
        ("claim", Json::Null),
    ]);
    std::fs::write(&args.out, format!("{doc}\n")).map_err(|e| format!("{}: {e}", args.out))?;
    if !args.smoke {
        println!("{}", where_the_time_goes(&doc));
    }
    println!("wrote {}", args.out);
    println!(
        "{}",
        obj(vec![
            ("suite", Json::Str(args.out.clone())),
            ("smoke", Json::Bool(args.smoke)),
            ("failed", Json::Num(failed)),
            ("claim", Json::Null),
        ])
    );
    if failed > 0.0 {
        return Err(format!("{failed} operations or checks failed"));
    }
    Ok(())
}

/// Values of one end-to-end metric over a suite's untraced runs of a
/// workload, plus the within-run spread of the first (for single runs).
fn metric_runs(suite: &Json, workload: &str, metric: &str) -> (Vec<f64>, f64) {
    let mut values = Vec::new();
    let mut within = 0.0;
    for run in suite.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        let same = run.get("workload").and_then(Json::as_str) == Some(workload)
            && run.get("trace").and_then(Json::as_bool) == Some(false);
        let Some(m) = run.get("metrics").and_then(|m| m.get(metric)).filter(|_| same) else {
            continue;
        };
        let num = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        if values.is_empty() && num("value") != 0.0 {
            within = (num("q3") - num("q1")).abs() / num("value").abs();
        }
        values.push(num("value"));
    }
    (values, within)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges side `b` against side `a` for one metric. `spread` is the wider
/// of the two sides' run-to-run spreads (interquartile range over the
/// median).
pub fn judge(a: &[f64], b: &[f64], spread: f64, higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (mb - ma) / ma.abs();
    if spread > bound {
        // Too noisy to call, unless the two sets of runs do not even overlap.
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (b_below_a, b_above_a) = (max(b) < min(a), min(b) > max(a));
        let (all_better, all_worse) =
            if higher_is_better { (b_above_a, b_below_a) } else { (b_below_a, b_above_a) };
        let sets = a.len() > 1 && b.len() > 1;
        return if sets && all_better {
            Verdict::Better
        } else if sets && all_worse && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -spread && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn side_spread(values: &[f64], within: f64) -> f64 {
    if values.len() >= 4 {
        Summary::of(values).spread()
    } else {
        within
    }
}

/// `benchmark compare a.json b.json`: one verdict per workload and
/// end-to-end metric, judged with the workload's own bound
/// ([`spec::compare_bound`]). Returns whether every pairing could be judged
/// and none got worse: an unresolved metric is not an unchanged one.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (read_json(path_a)?, read_json(path_b)?);
    for (path, doc) in [(path_a, &a), (path_b, &b)] {
        if doc.get("smoke").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{path} is a smoke run (or not a suite file): refusing to compare"
            ));
        }
    }
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "spread", "bound"
    );
    let mut counts = [0usize; 4];
    for (workload, _) in spec::WORKLOADS {
        for def in &spec::END_TO_END {
            let (va, within_a) = metric_runs(&a, workload, def.name);
            let (vb, within_b) = metric_runs(&b, workload, def.name);
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload} {} is missing from a side", def.name));
            }
            let spread = side_spread(&va, within_a).max(side_spread(&vb, within_b));
            let bound = spec::compare_bound(workload, def.name);
            let verdict = judge(&va, &vb, spread, def.higher_is_better, bound);
            counts[verdict as usize] += 1;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<16} {:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>6.0}%  {}",
                workload,
                def.name,
                ma,
                mb,
                100.0 * (mb - ma) / ma,
                100.0 * spread,
                100.0 * bound,
                verdict.name()
            );
        }
    }
    let [better, worse, within, unresolved] = counts;
    println!("{better} better, {within} within bound, {worse} worse, {unresolved} unresolved");
    Ok(worse == 0 && unresolved == 0)
}

fn traced_metric(suite: &Json, workload: &str, metric: &str) -> Option<f64> {
    suite.get("runs")?.as_arr()?.iter().find_map(|run| {
        let same = run.get("workload").and_then(Json::as_str) == Some(workload)
            && run.get("trace").and_then(Json::as_bool) == Some(true);
        run.get("metrics").filter(|_| same)?.get(metric)?.get("value")?.as_f64()
    })
}

/// The one-page "where the time goes" table (markdown) from a suite's
/// traced runs: the ladder for `small-closed`, measured component shares
/// beside the simulator's for `longseq-offline`.
pub fn where_the_time_goes(suite: &Json) -> String {
    let mut s = String::from("## Where the time goes\n\n");
    let t = |w: &str, m: &str| traced_metric(suite, w, m);
    if let Some(http) = t("small-closed", "fabd.http_us").filter(|v| *v > 0.0) {
        let w = "small-closed";
        s += "`small-closed`, one `predict` exchange (median, us; each rung minus the rung below):\n\n";
        s += "| layer | what the rung adds | us | share |\n|---|---|---:|---:|\n";
        let rows = [
            ("serve (session)", "forward pass, batch 1", "serve.session_us"),
            ("serve (server)", "queue, batch formation wait, worker hand-off", "serve.overhead_us"),
            ("fleet", "admission, QoS scheduler, class accounting", "fleet.overhead_us"),
            ("fabd", "HTTP, JSON, sockets, connection thread", "fabd.overhead_us"),
        ];
        for (layer, what, metric) in rows {
            let v = t(w, metric).unwrap_or(0.0);
            s += &format!("| {layer} | {what} | {v:.1} | {:.1}% |\n", 100.0 * v / http);
        }
        s += &format!("| **total** | `FabClient::predict` | {http:.1} | 100% |\n\n");
        s += &format!(
            "Of fabd's part: JSON parse {:.1}, JSON render {:.1}, HTTP read {:.1}, HTTP write {:.1}, sockets and threads {:.1} us. \
             Server-side the response fields say queue wait {:.1} us, service {:.1} us, batch occupancy {:.2}.\n\n",
            t(w, "fabd.json_parse_us").unwrap_or(0.0),
            t(w, "fabd.json_render_us").unwrap_or(0.0),
            t(w, "fabd.http_read_us").unwrap_or(0.0),
            t(w, "fabd.http_write_us").unwrap_or(0.0),
            t(w, "fabd.socket_us").unwrap_or(0.0),
            t(w, "serve.queue_wait_us").unwrap_or(0.0),
            t(w, "serve.service_us").unwrap_or(0.0),
            t(w, "serve.batch_occupancy").unwrap_or(0.0),
        );
    }
    let w = "longseq-offline";
    if t(w, "nn.forward_us.fabnet").is_some_and(|v| v > 0.0) {
        s += "`longseq-offline`, one forward at seq 1024 (share of the replayed forward, measured on this CPU):\n\n";
        s += "| component | fabnet | fnet | transformer |\n|---|---:|---:|---:|\n";
        for part in ["embed", "proj", "mixing", "ffn", "layernorm", "head", "unaccounted"] {
            s += &format!("| {part} |");
            for arch in ["fabnet", "fnet", "transformer"] {
                s += &format!(" {:.1}% |", t(w, &format!("nn.share.{part}.{arch}")).unwrap_or(0.0));
            }
            s += "\n";
        }
        s += "| forward (us) |";
        for arch in ["fabnet", "fnet", "transformer"] {
            s += &format!(" {:.0} |", t(w, &format!("nn.forward_us.{arch}")).unwrap_or(0.0));
        }
        s += &format!(
            "\n\nSimulated, not measured: the `fab-accel` model puts the same FABNet forward at {:.3} ms on the VCU128 design with {:.1}% of cycles in the butterfly engines. \
             The simulator has not been validated against hardware; no error figure is given.\n",
            t(w, "accel.simulated_ms.fabnet_1024").unwrap_or(0.0),
            t(w, "accel.simulated_butterfly_share").unwrap_or(0.0),
        );
    }
    s
}

/// `benchmark report suite.json`.
pub fn report(path: &str) -> Result<(), String> {
    println!("{}", where_the_time_goes(&read_json(path)?));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [10.0, 10.2, 9.9, 10.1];
        // Lower is better, bound 10 %, quiet runs (spread 3 %).
        assert_eq!(judge(&a, &[10.3, 10.4, 10.2, 10.5], 0.03, false, 0.10), Verdict::WithinBound);
        assert_eq!(judge(&a, &[11.6, 11.4, 11.5, 11.7], 0.03, false, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &[9.0, 9.1, 8.9, 9.2], 0.03, false, 0.10), Verdict::Better);
        // An improvement smaller than the spread is not called one.
        assert_eq!(judge(&a, &[9.9, 9.8, 10.0, 9.85], 0.03, false, 0.10), Verdict::WithinBound);
        // Higher is better flips the sign.
        assert_eq!(judge(&a, &[8.5, 8.6, 8.4, 8.7], 0.03, true, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &[11.5, 11.6, 11.4, 11.7], 0.03, true, 0.10), Verdict::Better);
    }

    #[test]
    fn a_spread_beyond_the_bound_is_unresolved_unless_the_runs_do_not_overlap() {
        let a = [10.0, 12.0, 9.0, 11.0];
        assert_eq!(judge(&a, &[10.5, 12.5, 9.5, 11.5], 0.2, false, 0.10), Verdict::Unresolved);
        // Every run of b is slower than every run of a: a regression however
        // wide the spread.
        assert_eq!(judge(&a, &[13.0, 15.0, 12.5, 14.0], 0.2, false, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &[8.0, 8.5, 7.0, 8.9], 0.2, true, 0.10), Verdict::Worse);
        // Single runs cannot show that.
        assert_eq!(judge(&[10.0], &[13.0], 0.2, false, 0.10), Verdict::Unresolved);
        // Every run of b beats every run of a.
        assert_eq!(judge(&a, &[8.0, 8.5, 7.0, 8.9], 0.2, false, 0.10), Verdict::Better);
        assert_eq!(judge(&a, &[13.0, 15.0, 12.5, 14.0], 0.2, true, 0.10), Verdict::Better);
    }

    /// A suite of one run per workload in which every metric reads `value`
    /// with quartiles `noise` either side of it.
    fn suite_with(value: f64, noise: f64, smoke: bool) -> Json {
        let runs = spec::WORKLOADS
            .iter()
            .map(|(w, _)| {
                let metrics = spec::END_TO_END
                    .iter()
                    .map(|d| {
                        let m = obj(vec![
                            ("value", Json::Num(value)),
                            ("q1", Json::Num(value * (1.0 - noise))),
                            ("q3", Json::Num(value * (1.0 + noise))),
                        ]);
                        (d.name.to_string(), m)
                    })
                    .collect();
                obj(vec![
                    ("workload", Json::Str(w.to_string())),
                    ("trace", Json::Bool(false)),
                    ("metrics", Json::Obj(metrics)),
                ])
            })
            .collect();
        obj(vec![("smoke", Json::Bool(smoke)), ("runs", Json::Arr(runs))])
    }

    #[test]
    fn compare_refuses_smoke_files_and_passes_only_when_every_metric_holds() {
        let dir =
            std::env::temp_dir().join(format!("fab-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, doc: Json| {
            let p = dir.join(name);
            std::fs::write(&p, doc.to_string()).unwrap();
            p.to_string_lossy().into_owned()
        };
        let base = write("a.json", suite_with(10.0, 0.01, false));
        let same = write("b.json", suite_with(10.2, 0.01, false));
        let smoke = write("s.json", suite_with(10.0, 0.01, true));
        assert_eq!(compare(&base, &same), Ok(true));
        assert!(compare(&base, &smoke).unwrap_err().contains("smoke"));
        // 30 % more is worse for the lower-is-better metrics.
        let slow = write("c.json", suite_with(13.0, 0.01, false));
        assert_eq!(compare(&base, &slow), Ok(false));
        // Too noisy to judge is not a pass either.
        let noisy = write("n.json", suite_with(10.2, 0.2, false));
        assert_eq!(compare(&base, &noisy), Ok(false));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_table_reads_the_traced_runs() {
        let metrics = [
            ("fabd.http_us", 950.0),
            ("serve.session_us", 40.0),
            ("serve.overhead_us", 520.0),
            ("fleet.overhead_us", 15.0),
            ("fabd.overhead_us", 375.0),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), obj(vec![("value", Json::Num(*v))])))
        .collect();
        let run = obj(vec![
            ("workload", Json::Str("small-closed".into())),
            ("trace", Json::Bool(true)),
            ("metrics", Json::Obj(metrics)),
        ]);
        let table = where_the_time_goes(&obj(vec![("runs", Json::Arr(vec![run]))]));
        assert!(
            table.contains("| fleet | admission, QoS scheduler, class accounting | 15.0 | 1.6% |"),
            "{table}"
        );
        assert!(table.contains("| **total** | `FabClient::predict` | 950.0 | 100% |"));
        assert!(!table.contains("longseq-offline"));
    }
}
