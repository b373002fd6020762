//! `train-codesign`: the kernels in the backward direction. Each round
//! trains a FABNet and a Transformer on seeded LRA-Text examples for a fixed
//! slice each (`TrainStep::step`: forward, tape backward, fused AdamW), then
//! runs the co-design sweep with a training-based accuracy estimator
//! (`lra` -> train -> `accel` simulate -> Pareto) for the rest of the round.

use super::{rates, set_latency, set_throughput};
use crate::host::peak_rss_mb;
use crate::mix::MixHash;
use crate::report::{obj, Opts, RunOutput};
use crate::spec;
use crate::stats::median;
use fab_codesign::{
    run_codesign, CodesignOptions, CodesignResult, DesignSpace, HeuristicAccuracy, TrainedAccuracy,
};
use fab_lra::{LraTask, Sample, TaskConfig};
use fab_nn::{FusedAdamW, Model, ModelConfig, ModelKind, TrainStep};
use fabd::Json;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

pub fn model_config() -> ModelConfig {
    ModelConfig {
        hidden: spec::TRAIN_HIDDEN,
        ffn_ratio: 2,
        num_layers: spec::TRAIN_LAYERS,
        num_abfly: 0,
        num_heads: spec::TRAIN_HEADS,
        vocab_size: LraTask::Text.vocab_size(),
        max_seq: spec::TRAIN_SEQ_LEN,
        num_classes: LraTask::Text.num_classes(),
    }
}

pub fn examples(seed: u64) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(seed);
    LraTask::Text.generate(
        &TaskConfig { seq_len: spec::TRAIN_SEQ_LEN },
        spec::TRAIN_EXAMPLES,
        &mut rng,
    )
}

pub fn new_model(kind: ModelKind, seed: u64) -> Model {
    Model::new(&model_config(), kind, &mut StdRng::seed_from_u64(seed ^ 0x7a11))
}

pub fn codesign_options() -> CodesignOptions {
    CodesignOptions {
        seq_len: spec::CODESIGN_SEQ_LEN,
        max_accuracy_loss: spec::CODESIGN_MAX_ACCURACY_LOSS,
        num_threads: spec::CODESIGN_THREADS,
    }
}

/// One architecture being trained.
pub struct Trainee {
    pub model: Model,
    pub step: TrainStep,
    pub next: usize,
    pub losses: Vec<f32>,
}

impl Trainee {
    pub fn new(kind: ModelKind, seed: u64) -> Self {
        Self {
            model: new_model(kind, seed),
            step: TrainStep::new(FusedAdamW::new(spec::TRAIN_LEARNING_RATE)),
            next: 0,
            losses: Vec::new(),
        }
    }

    /// One `TrainStep::step` on the next example; returns its milliseconds.
    pub fn step(&mut self, data: &[Sample]) -> f64 {
        let s = &data[self.next % data.len()];
        self.next += 1;
        let t = Instant::now();
        let loss = self.step.step(&self.model, &s.tokens, s.label);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.losses.push(loss);
        ms
    }

    /// Steps for `seconds`, returning each step's milliseconds.
    fn train_for(&mut self, data: &[Sample], seconds: f64) -> Vec<f64> {
        let t = Instant::now();
        let mut ms = Vec::new();
        while ms.is_empty() || t.elapsed().as_secs_f64() < seconds {
            ms.push(self.step(data));
        }
        ms
    }

    /// Every loss finite, and the last steps' mean below the first steps'.
    /// With `may_stall` a model also passes when it ends no worse than chance
    /// (ln 2 for the two classes, 5 % slack): at this learning rate the
    /// Transformer collapses to answering one class on about one seed in
    /// sixty and stays there, which is the program's behaviour on that input,
    /// not a wrong output. FABNet has to learn.
    pub fn check(&self, name: &str, may_stall: bool, out: &mut RunOutput) {
        out.check(self.losses.iter().all(|l| l.is_finite()), &format!("{name}: every loss finite"));
        let window = (self.losses.len() / 4).clamp(1, 64);
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        let (first, last) =
            (mean(&self.losses[..window]), mean(&self.losses[self.losses.len() - window..]));
        let at_chance = may_stall && last <= 1.05 * std::f32::consts::LN_2;
        out.check(last < first || at_chance, &format!("{name}: loss fell ({first} -> {last})"));
    }
}

/// What must hold of any sweep over the tiny space.
pub fn check_sweep(result: &CodesignResult, out: &mut RunOutput) {
    let space = DesignSpace::tiny_for_tests().enumerate().len();
    let sane = result.points.len() + result.infeasible == space
        && !result.pareto.is_empty()
        && result.points.iter().all(|p| p.latency_ms.is_finite() && p.latency_ms > 0.0);
    out.check(sane, "codesign sweep covers the space with a Pareto front and finite latencies");
}

/// Position of the chosen design in the latency-sorted point list (-1: none).
pub fn chosen_id(result: &CodesignResult) -> f64 {
    result.chosen.map_or(-1.0, |i| i as f64)
}

fn set_up(seed: u64) -> (Vec<Sample>, Trainee, Trainee, f64) {
    let t = Instant::now();
    let data = examples(seed);
    let mut fab = Trainee::new(ModelKind::FabNet, seed);
    let mut tfm = Trainee::new(ModelKind::Transformer, seed);
    // Warm-up: the first step of each distinct length allocates.
    for _ in 0..16 {
        fab.step(&data);
        tfm.step(&data);
    }
    (data, fab, tfm, t.elapsed().as_secs_f64())
}

pub fn run(opts: &Opts) -> RunOutput {
    let mut out = RunOutput::default();
    let mut setup_s = Vec::new();
    let (data, mut fab, mut tfm) = loop {
        let (data, fab, tfm, s) = set_up(opts.seed);
        setup_s.push(s);
        if setup_s.len() >= opts.setups(spec::TRAIN_SETUPS) {
            break (data, fab, tfm);
        }
    };
    let mut hash = MixHash::default();
    for s in &data {
        hash.add_tokens(&s.tokens);
        hash.add(s.label as u64);
    }

    let space = DesignSpace::tiny_for_tests();
    let estimator = TrainedAccuracy::tiny(LraTask::Text, opts.seed);
    let options = codesign_options();
    let (mut step_ms, mut sweeps) = (vec![], vec![]);
    let (mut fab_rate, mut tfm_rate) = (vec![], vec![]);
    let mut last_sweep = None;
    let started = Instant::now();
    let mut round = 0usize;
    while round == 0 || started.elapsed().as_secs_f64() < opts.seconds {
        // The two training slices swap places every round.
        for slot in 0..2 {
            let fabnet_turn = slot == round % 2;
            let (trainee, rate) =
                if fabnet_turn { (&mut fab, &mut fab_rate) } else { (&mut tfm, &mut tfm_rate) };
            let ms = trainee.train_for(&data, spec::TRAIN_SLICE_S);
            out.attempted += ms.len() as u64;
            rate.push((ms.len() as f64, ms.iter().sum::<f64>() / 1e3));
            if fabnet_turn {
                step_ms.push(ms);
            }
        }
        let t = Instant::now();
        let result = run_codesign(&space, &estimator, &options);
        sweeps.push((result.points.len() as f64, t.elapsed().as_secs_f64()));
        check_sweep(&result, &mut out);
        last_sweep = Some(result);
        round += 1;
    }
    set_latency(&mut out, &step_ms);
    set_throughput(&mut out, &sweeps);
    out.set("setup_s", &setup_s);

    fab.check("fabnet", false, &mut out);
    tfm.check("transformer", true, &mut out);
    // The analytic sweep takes ~0.2 ms, too short to time: it must repeat
    // exactly instead.
    let heuristic = || run_codesign(&space, &HeuristicAccuracy::lra_text(), &options);
    let (a, b) = (heuristic(), heuristic());
    out.check(
        a.points == b.points && a.pareto == b.pareto && a.chosen == b.chosen,
        "heuristic codesign sweep repeats exactly",
    );
    out.set_one("peak_rss_mb", peak_rss_mb());

    out.note("mix_hash", Json::Str(hash.hex()));
    out.note("throughput_is", Json::Str("co-design points evaluated per second".into()));
    let (fab_rate, tfm_rate) = (median(&rates(&fab_rate)), median(&rates(&tfm_rate)));
    out.note("steps_per_s", Json::Num(fab_rate));
    out.note("transformer_steps_per_s", Json::Num(tfm_rate));
    out.note("codesign_s", Json::Num(sweeps[0].0 / out.value("throughput")));
    out.note("sweeps", Json::Num(sweeps.len() as f64));
    out.note(
        "heuristic_sweep",
        obj(vec![
            ("points", Json::Num(a.points.len() as f64)),
            ("chosen_id", Json::Num(chosen_id(&a))),
        ]),
    );
    if let Some(r) = last_sweep {
        out.note("trained_sweep_chosen_id", Json::Num(chosen_id(&r)));
    }
    // Diagnostic only: an honest optimisation may move it either way.
    out.note(
        "ratios",
        obj(vec![("fabnet_over_transformer_steps", Json::Num(fab_rate / tfm_rate))]),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failed(first: f32, last: f32, may_stall: bool) -> u64 {
        let mut trainee = Trainee::new(ModelKind::Transformer, 1);
        trainee.losses = [vec![first; 128], vec![last; 128]].concat();
        let mut out = RunOutput::default();
        trainee.check("expected in this test", may_stall, &mut out);
        assert_eq!(out.attempted, 2);
        out.failed
    }

    #[test]
    fn a_stalled_model_passes_only_where_stalling_is_allowed() {
        assert_eq!(failed(0.61, 0.01, false), 0, "learned");
        // Stuck at chance after a lucky first window (seed 4008's Transformer).
        assert_eq!(failed(0.61, 0.698, true), 0);
        assert_eq!(failed(0.61, 0.698, false), 1);
        // Diverged, or not finite: never fine.
        assert_eq!(failed(0.61, 2.0, true), 1);
        assert_eq!(failed(0.61, f32::NAN, true), 2);
    }
}
