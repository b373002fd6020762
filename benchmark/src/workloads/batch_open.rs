//! `batch-open`: six hidden-64 profiles (FABNet and Transformer at three
//! precisions), `POST /v1/predict_batch` of 8 sequences of 16..=128 tokens,
//! model round-robin, priority alternating. The untraced run alternates a
//! seeded Poisson schedule at the fixed rate R1 (open loop, every request
//! timed from its due time) with a closed-loop saturation slice; the traced
//! replay visits all three rates.
//!
//! Both gated numbers come from the saturation slices. Open-loop latency did
//! not hold a bound: with arrivals at 0.3 of saturation the cores idle
//! between requests, every exchange starts by waking them (and the threads
//! the rayon shim spawns per parallel call), and what that costs goes with
//! the host's other tenants, not with the program. Over ten runs of one
//! commit its median spread 7-15 % on a quiet host and 22-29 % on a busy one;
//! the saturated slices of the same runs spread 2-5 %. So the latency at R1
//! is printed as a note (`open_p50_ms`, `open_p95_ms`), the traced run has
//! it per rate (`batch.p50_ms.r1`, `batch.p95_ms.r1..r3`,
//! `batch.max_rate_in_slo`), and no end-to-end metric covers queueing under
//! scheduled arrivals.

use super::{count, sequences_ok, set_throughput};
use crate::host::peak_rss_mb;
use crate::loadgen::{closed_loop, open_loop, Outcome};
use crate::mix::{poisson_schedule, Request};
use crate::report::{nums, Opts, RunOutput};
use crate::serving::{batch_config, batch_mix_spec, Rig};
use crate::spec;
use crate::stats::{median, percentile, sorted};
use fabd::Json;
use std::time::{Duration, Instant};

/// Requests per second that offer `seq_per_s` sequences per second.
pub fn request_rate(seq_per_s: f64) -> f64 {
    seq_per_s / spec::BATCH_SEQS_PER_REQUEST as f64
}

/// Latency percentile of a phase in milliseconds, from the due time.
pub fn phase_ms(outcomes: &[Outcome], q: f64) -> f64 {
    percentile(&sorted(outcomes.iter().map(|o| o.sample().latency_s * 1e3).collect()), q)
}

pub fn lateness_p95_ms(outcomes: &[Outcome]) -> f64 {
    percentile(&sorted(outcomes.iter().map(|o| o.lateness_s() * 1e3).collect()), 0.95)
}

/// The last tenth of a phase (at least one request; nothing of an empty
/// phase): a backlog that is still growing shows as lateness there.
pub fn end_of_phase(outcomes: &[Outcome]) -> &[Outcome] {
    &outcomes[outcomes.len().saturating_sub(outcomes.len() / 10 + 1)..]
}

/// Latency of a phase as a caller of one model sees it, averaged over the
/// models: the median of each model's exchanges, then the mean of those
/// medians (models without an exchange in the phase left out). The models'
/// latencies lie in two groups, FABNet near half of the Transformer's, and
/// the median of the pooled samples falls in the thin stretch between them,
/// where a small shift in either group moves it far.
pub fn per_model_p50_ms(outcomes: &[Outcome], pool: &[Request], models: usize) -> f64 {
    let of_model = |m: usize| -> Vec<f64> {
        let hits = outcomes.iter().filter(|o| pool[o.index].model == m);
        hits.map(|o| o.sample().latency_s * 1e3).collect()
    };
    let medians: Vec<f64> =
        (0..models).map(of_model).filter(|ms| !ms.is_empty()).map(|ms| median(&ms)).collect();
    medians.iter().sum::<f64>() / medians.len().max(1) as f64
}

pub fn rig(opts: &Opts, pool: usize, setups: usize) -> Rig {
    let config = batch_config();
    Rig::new(&config, &batch_mix_spec(&config), opts.seed, pool, setups)
}

pub fn run(opts: &Opts) -> RunOutput {
    let mut rig = rig(opts, opts.pool(spec::BATCH_POOL), opts.setups(spec::BATCH_SETUPS));
    let models = rig.judge.names.len();
    let mut out = RunOutput::default();
    let origin = Instant::now();

    let (mut transports, _) = closed_loop(
        rig.http(false),
        &rig.pool,
        0,
        origin,
        Duration::from_secs_f64(opts.warmup_s()),
    );

    let round_s = opts.seconds / spec::BATCH_SLICES as f64;
    let open_s = round_s * spec::BATCH_OPEN_SHARE;
    let offered = spec::BATCH_RATES[0];
    let (mut open_p50, mut open_p95, mut late) = (vec![], vec![], vec![]);
    let (mut p50, mut p95, mut saturation) = (vec![], vec![], vec![]);
    let mut next = 0;
    for r in 0..spec::BATCH_SLICES {
        let due = poisson_schedule(opts.seed, r as u64, request_rate(offered), open_s);
        rig.mix_hash.add_schedule(&due);
        let (back, outcomes) = open_loop(transports, &rig.pool, next, origin, Instant::now(), &due);
        next += outcomes.len();
        count(&mut out, &outcomes);
        open_p50.push(phase_ms(&outcomes, 0.50));
        open_p95.push(phase_ms(&outcomes, 0.95));
        late.push(lateness_p95_ms(&outcomes));

        let t = Instant::now();
        let (back, outcomes) =
            closed_loop(back, &rig.pool, next, origin, Duration::from_secs_f64(round_s - open_s));
        transports = back;
        next += outcomes.len();
        count(&mut out, &outcomes);
        saturation.push((sequences_ok(&outcomes), t.elapsed().as_secs_f64()));
        p50.push(per_model_p50_ms(&outcomes, &rig.pool, models));
        p95.push(phase_ms(&outcomes, 0.95));
    }
    out.set("p50_ms", &p50);
    set_throughput(&mut out, &saturation);
    out.set("setup_s", &rig.setup_s);
    out.set_one("peak_rss_mb", peak_rss_mb());
    out.note("p95_ms", Json::Num(median(&p95)));
    out.note("mix_hash", Json::Str(rig.mix_hash.hex()));
    out.note("offered_seq_per_s", Json::Num(offered));
    out.note("open_p50_ms", Json::Num(median(&open_p50)));
    out.note("open_p95_ms", Json::Num(median(&open_p95)));
    out.note("lateness_p95_ms_per_slice", nums(&late));
    out.note("lateness_p95_ms", Json::Num(median(&late)));
    out.note(
        "p50_ms_is",
        Json::Str(
            "mean over the six models of the model's median exchange latency, closed-loop saturation slices"
                .into(),
        ),
    );
    out.note(
        "throughput_is",
        Json::Str("sequences answered correctly per second, closed-loop saturation slices".into()),
    );
    drop(transports);
    rig.daemon.shutdown();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_phase_without_arrivals_has_no_end_and_reads_zero() {
        let outcome = |k: usize| Outcome {
            index: k,
            at_s: k as f64,
            sent_s: k as f64 + 0.002 * k as f64,
            done_s: k as f64 + 0.010,
            ok: true,
            sequences: 8,
        };
        assert!(end_of_phase(&[]).is_empty());
        assert_eq!(lateness_p95_ms(end_of_phase(&[])), 0.0);
        assert_eq!(phase_ms(&[], 0.5), 0.0);
        assert_eq!(end_of_phase(&[outcome(0)]).len(), 1);
        let phase: Vec<Outcome> = (0..25).map(outcome).collect();
        let tail = end_of_phase(&phase);
        assert_eq!(tail.iter().map(|o| o.index).collect::<Vec<_>>(), [22, 23, 24]);
        assert!((lateness_p95_ms(tail) - 48.0).abs() < 1e-9);
    }

    #[test]
    fn latency_is_the_mean_of_the_models_medians() {
        let request = |model: usize| Request { model, interactive: true, sequences: vec![] };
        let pool = [request(0), request(1), request(2)];
        let outcome = |index: usize, ms: f64| Outcome {
            index,
            at_s: 1.0,
            sent_s: 1.0,
            done_s: 1.0 + ms / 1e3,
            ok: true,
            sequences: 8,
        };
        // Model 0 answers in 10, 10, 13 ms, model 1 in 20 and 22 ms, model 2
        // not at all in this phase: (10 + 21) / 2, whereas the pooled median
        // sits on model 0's slowest exchange.
        let phase = [
            outcome(0, 10.0),
            outcome(1, 20.0),
            outcome(0, 13.0),
            outcome(1, 22.0),
            outcome(0, 10.0),
        ];
        assert!((per_model_p50_ms(&phase, &pool, 3) - 15.5).abs() < 1e-9);
        assert!((phase_ms(&phase, 0.5) - 13.0).abs() < 1e-9);
        assert_eq!(per_model_p50_ms(&[], &pool, 3), 0.0);
    }
}
