//! `longseq-offline`: no serving stack. Batch-1 forwards of seeded,
//! untrained FABNet / FNet / Transformer models (hidden 128, 2 layers) at
//! seq 128, 512 and 1024, each in fast-math f32 and int8 — latency against
//! sequence length, the paper's own axis.

use super::{set_latency, set_throughput};
use crate::host::peak_rss_mb;
use crate::mix::{MixHash, SplitMix};
use crate::report::{nums, obj, Opts, RunOutput};
use crate::spec;
use crate::stats::median;
use fab_nn::{argmax, FrozenModel, Model, ModelConfig, ModelKind};
use fab_quant::{quantize_frozen, CalibrationConfig, QuantModel};
use fabd::Json;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

pub const KINDS: [(ModelKind, &str); 3] = [
    (ModelKind::FabNet, "fabnet"),
    (ModelKind::FNet, "fnet"),
    (ModelKind::Transformer, "transformer"),
];

pub fn model_config() -> ModelConfig {
    ModelConfig {
        hidden: spec::LONGSEQ_HIDDEN,
        ffn_ratio: spec::LONGSEQ_FFN_RATIO,
        num_layers: spec::LONGSEQ_LAYERS,
        num_abfly: 0,
        num_heads: spec::LONGSEQ_HEADS,
        vocab_size: spec::LONGSEQ_VOCAB,
        max_seq: *spec::LONGSEQ_SEQS.last().expect("a sequence length"),
        num_classes: 2,
    }
}

/// One architecture in every form the workload runs it.
pub struct Arch {
    pub name: &'static str,
    pub kind: ModelKind,
    pub model: Model,
    pub exact: FrozenModel,
    pub fast: FrozenModel,
    pub int8: QuantModel,
    /// Wall time of `quantize_frozen` (calibration + quantization).
    pub calibrate_s: f64,
}

/// Builds the three architectures from the fixed weight seed; calibration
/// sequences come from `rng`.
pub fn build_archs(rng: &mut SplitMix) -> Vec<Arch> {
    let config = model_config();
    let calibration: Vec<Vec<usize>> = spec::LONGSEQ_CALIBRATION_LENS
        .iter()
        .map(|&len| rng.tokens(len, spec::LONGSEQ_VOCAB))
        .collect();
    KINDS
        .iter()
        .map(|&(kind, name)| {
            let mut weights = StdRng::seed_from_u64(spec::LONGSEQ_MODEL_SEED);
            let model = Model::new(&config, kind, &mut weights);
            let exact = model.freeze();
            let fast = exact.clone().with_fast_math(true);
            let t = Instant::now();
            let int8 = quantize_frozen(&fast, &calibration, &CalibrationConfig::default());
            let calibrate_s = t.elapsed().as_secs_f64();
            Arch { name, kind, model, exact, fast, int8, calibrate_s }
        })
        .collect()
}

/// One cell of the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub arch: usize,
    pub seq: usize,
    pub int8: bool,
}

impl Cell {
    pub fn label(&self, archs: &[Arch]) -> String {
        format!(
            "{}.{}.{}",
            archs[self.arch].name,
            self.seq,
            if self.int8 { "int8" } else { "fast" }
        )
    }

    pub fn run(&self, archs: &[Arch], tokens: &[usize]) -> Vec<f32> {
        let a = &archs[self.arch];
        if self.int8 {
            a.int8.logits(tokens)
        } else {
            a.fast.logits(tokens)
        }
    }
}

/// The headline cell: FABNet, fast-math f32, longest sequence.
pub fn headline() -> Cell {
    Cell { arch: 0, seq: *spec::LONGSEQ_SEQS.last().expect("a sequence length"), int8: false }
}

pub fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for arch in 0..KINDS.len() {
        for &seq in &spec::LONGSEQ_SEQS {
            for int8 in [false, true] {
                cells.push(Cell { arch, seq, int8 });
            }
        }
    }
    cells
}

/// One pass: every cell once plus the extra headline repetitions, evenly
/// spread.
pub fn pass_order() -> Vec<Cell> {
    let cells = grid();
    let extra = spec::LONGSEQ_HEADLINE_REPS - 1;
    let gap = cells.len() / extra.max(1);
    let mut order = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        order.push(*c);
        if extra > 0 && (i + 1) % gap == 0 && (i + 1) / gap <= extra {
            order.push(headline());
        }
    }
    order
}

/// Input sequences per length, from `--seed`.
pub struct Inputs {
    pub per_seq: Vec<(usize, Vec<Vec<usize>>)>,
}

impl Inputs {
    pub fn new(rng: &mut SplitMix, hash: &mut MixHash) -> Self {
        let per_seq = spec::LONGSEQ_SEQS
            .iter()
            .map(|&seq| {
                let pool: Vec<Vec<usize>> =
                    (0..4).map(|_| rng.tokens(seq, spec::LONGSEQ_VOCAB)).collect();
                pool.iter().for_each(|t| hash.add_tokens(t));
                (seq, pool)
            })
            .collect();
        Self { per_seq }
    }

    pub fn get(&self, seq: usize, turn: usize) -> &[usize] {
        let pool = &self.per_seq.iter().find(|(s, _)| *s == seq).expect("known length").1;
        &pool[turn % pool.len()]
    }
}

/// Builds models and inputs and runs one warm-up pass; returns seconds.
fn set_up(seed: u64) -> (Vec<Arch>, Inputs, MixHash, f64) {
    let t = Instant::now();
    let mut rng = SplitMix::stream(seed, 3);
    let mut hash = MixHash::default();
    let archs = build_archs(&mut rng);
    let inputs = Inputs::new(&mut rng, &mut hash);
    for cell in grid() {
        std::hint::black_box(cell.run(&archs, inputs.get(cell.seq, 0)));
    }
    (archs, inputs, hash, t.elapsed().as_secs_f64())
}

/// The output checks: exact-precision logits equal the tape path bit for
/// bit; fast-math and int8 agree with exact f32 on the argmax at least as
/// often as the floors frozen in `spec`.
pub fn check_outputs(archs: &[Arch], seed: u64, out: &mut RunOutput) -> Vec<(String, f64, f64)> {
    let mut rng = SplitMix::stream(seed, 4);
    let seqs: Vec<Vec<usize>> = (0..spec::LONGSEQ_CHECK_SEQS)
        .map(|_| rng.tokens(spec::LONGSEQ_SEQS[0], spec::LONGSEQ_VOCAB))
        .collect();
    let mut agreement = Vec::new();
    for a in archs {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let exact: Vec<Vec<f32>> = seqs.iter().map(|t| a.exact.logits(t)).collect();
        let tape_equal = seqs.iter().zip(&exact).all(|(t, e)| bits(&a.model.predict(t)) == bits(e));
        out.check(tape_equal, &format!("{}: exact frozen logits equal Model::predict", a.name));
        let share = |other: Vec<Vec<f32>>| {
            exact.iter().zip(&other).filter(|(e, o)| argmax(e) == argmax(o)).count() as f64
                / exact.len() as f64
        };
        let fast = share(seqs.iter().map(|t| a.fast.logits(t)).collect());
        let int8 = share(seqs.iter().map(|t| a.int8.logits(t)).collect());
        out.check(
            fast >= spec::LONGSEQ_MIN_AGREEMENT_FAST,
            &format!("{}: fastmath argmax agreement {fast}", a.name),
        );
        out.check(
            int8 >= spec::LONGSEQ_MIN_AGREEMENT_INT8,
            &format!("{}: int8 argmax agreement {int8}", a.name),
        );
        agreement.push((a.name.to_string(), fast, int8));
    }
    agreement
}

pub fn run(opts: &Opts) -> RunOutput {
    let mut out = RunOutput::default();
    let mut setup_s = Vec::new();
    let (archs, inputs, hash) = loop {
        let (archs, inputs, hash, s) = set_up(opts.seed);
        setup_s.push(s);
        if setup_s.len() >= opts.setups(spec::LONGSEQ_SETUPS) {
            break (archs, inputs, hash);
        }
    };

    let cells = grid();
    let order = pass_order();
    let grid_tokens: f64 = cells.iter().map(|c| c.seq as f64).sum();
    let head_slot = cells.iter().position(|c| *c == headline()).expect("headline cell");
    // A round is one pass: the headline cell's samples and every cell's
    // time (the headline's: the median of its repetitions).
    let (mut head_ms, mut work) = (vec![], vec![]);
    let mut cell_ms: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let started = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || started.elapsed().as_secs_f64() < opts.seconds {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
        // Every pass starts at another cell, so no cell always runs right
        // after the same neighbour.
        for k in 0..order.len() {
            let cell = order[(k + passes * 5) % order.len()];
            let tokens = inputs.get(cell.seq, passes);
            let t = Instant::now();
            let logits = cell.run(&archs, tokens);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            out.failed += u64::from(!logits.iter().all(|x| x.is_finite()));
            let slot = cells.iter().position(|c| *c == cell).expect("cell of the grid");
            samples[slot].push(ms);
        }
        passes += 1;
        let medians: Vec<f64> = samples.iter().map(|s| median(s)).collect();
        work.push((grid_tokens, medians.iter().sum::<f64>() / 1e3));
        head_ms.push(samples[head_slot].clone());
        for (all, m) in cell_ms.iter_mut().zip(medians) {
            all.push(m);
        }
    }
    set_latency(&mut out, &head_ms);
    set_throughput(&mut out, &work);
    out.set("setup_s", &setup_s);

    let agreement = check_outputs(&archs, opts.seed, &mut out);
    out.set_one("peak_rss_mb", peak_rss_mb());

    out.note("mix_hash", Json::Str(hash.hex()));
    out.note("passes", Json::Num(passes as f64));
    out.note(
        "throughput_is",
        Json::Str("tokens per second: grid tokens / sum of the pass's per-cell times".into()),
    );
    let cell_p50: Vec<(String, f64)> =
        cells.iter().zip(&cell_ms).map(|(c, ms)| (c.label(&archs), median(ms))).collect();
    out.note(
        "cell_p50_ms",
        Json::Obj(cell_p50.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect()),
    );
    let of = |label: &str| cell_p50.iter().find(|(k, _)| k == label).map_or(0.0, |(_, v)| *v);
    // Diagnostics an honest optimisation may move either way; never gated.
    out.note(
        "ratios",
        obj(vec![
            (
                "transformer_over_fabnet_at_1024",
                Json::Num(of("transformer.1024.fast") / of("fabnet.1024.fast")),
            ),
            (
                "transformer_f32_over_int8_at_1024",
                Json::Num(of("transformer.1024.fast") / of("transformer.1024.int8")),
            ),
        ]),
    );
    out.note(
        "argmax_agreement",
        Json::Obj(agreement.into_iter().map(|(n, f, q)| (n, nums(&[f, q]))).collect()),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_visits_every_cell_once_and_the_headline_five_times() {
        let order = pass_order();
        assert_eq!(order.len(), grid().len() + spec::LONGSEQ_HEADLINE_REPS - 1);
        for cell in grid() {
            let n = order.iter().filter(|c| **c == cell).count();
            assert_eq!(n, if cell == headline() { spec::LONGSEQ_HEADLINE_REPS } else { 1 });
        }
    }
}
