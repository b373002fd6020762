//! The four workloads. Each has an untraced `run` that produces the
//! end-to-end metrics; the traced replays live in [`crate::probes`].

pub mod batch_open;
pub mod longseq_offline;
pub mod small_closed;
pub mod train_codesign;

use crate::loadgen::Outcome;
use crate::report::RunOutput;
use crate::stats::{median, percentile, sorted};
use fabd::Json;

/// Adds a phase's outcomes to the attempted / failed counts.
pub fn count(out: &mut RunOutput, outcomes: &[Outcome]) {
    out.attempted += outcomes.len() as u64;
    out.failed += outcomes.iter().filter(|o| !o.ok).count() as u64;
}

/// Sequences answered correctly in a phase.
pub fn sequences_ok(outcomes: &[Outcome]) -> f64 {
    outcomes.iter().filter(|o| o.ok).map(|o| o.sequences as f64).sum()
}

/// Sets `p50_ms` from per-round latency samples (milliseconds): the
/// percentile is taken inside every round and the median round is reported.
/// `p95_ms`, computed the same way, is a note: its run-to-run spread is
/// beyond what a bound could hold (see `spec::END_TO_END`).
pub fn set_latency(out: &mut RunOutput, rounds: &[Vec<f64>]) {
    let per_round =
        |q: f64| -> Vec<f64> { rounds.iter().map(|r| percentile(&sorted(r.clone()), q)).collect() };
    out.set("p50_ms", &per_round(0.50));
    out.note("p95_ms", Json::Num(median(&per_round(0.95))));
}

/// Each round's rate from its `(work done, seconds)`.
pub fn rates(rounds: &[(f64, f64)]) -> Vec<f64> {
    rounds.iter().map(|(work, s)| work / s.max(1e-9)).collect()
}

/// Sets `throughput` to the median of the per-round [`rates`].
pub fn set_throughput(out: &mut RunOutput, rounds: &[(f64, f64)]) {
    out.set("throughput", &rates(rounds));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_the_median_round_of_per_round_percentiles() {
        let mut out = RunOutput::default();
        // Two rounds at full speed, one slow, one disturbed: no round is
        // left out, the median round is what the run reports.
        let rounds = vec![
            vec![1.0, 1.0, 1.1, 1.0, 2.0],
            vec![1.5, 1.5, 1.6, 1.5, 3.0],
            vec![1.0, 1.05, 1.0, 1.0, 1.9],
            vec![9.0, 8.0, 9.5, 9.0, 20.0],
        ];
        set_latency(&mut out, &rounds);
        assert_eq!(out.rounds["p50_ms"], vec![1.0, 1.5, 1.0, 9.0]);
        assert_eq!(out.value("p50_ms"), 1.25);
        assert_eq!(out.notes, vec![("p95_ms".to_string(), Json::Num(2.5))]);
        set_throughput(&mut out, &[(1000.0, 1.0), (660.0, 1.0), (1960.0, 2.0)]);
        assert_eq!(out.rounds["throughput"], vec![1000.0, 660.0, 980.0]);
        assert_eq!(out.value("throughput"), 980.0);
    }
}
