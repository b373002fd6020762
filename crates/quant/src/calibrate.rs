//! Calibration: running samples through a frozen model's own forward while
//! observing the activation ranges at every quantized GEMM input.

use crate::observer::{Observer, ObserverKind};
use crate::qmodel::quantize;
use fab_nn::{FrozenLinear, FrozenMixing, FrozenModel, Tap};

/// Calibration knobs.
#[derive(Debug, Clone, Default)]
pub struct CalibrationConfig {
    /// Which statistic turns observed ranges into scales (default:
    /// 99.9th-percentile clipping).
    pub observer: ObserverKind,
}

/// Calibrated activation scales of one encoder block. A scale whose
/// consumer is not a dense linear — the attention projections of a Fourier
/// block, which has none, and every butterfly-factorised linear, which
/// quantization leaves f32 — is the sentinel 1.0: calibration does not
/// observe that input.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockScales {
    /// Input scale of the attention q/k/v projections.
    pub attn_in: f32,
    /// Input scale of the attention output projection.
    pub attn_out_in: f32,
    /// Input scale of the first FFN layer.
    pub ffn1_in: f32,
    /// Input scale of the second FFN layer (post-GELU activations).
    pub ffn2_in: f32,
}

/// Calibrated per-tensor activation scales for every quantized GEMM input
/// of a model, in block order plus the classifier head.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationScales {
    /// Per-block scales, aligned with `FrozenModel::blocks()`.
    pub blocks: Vec<BlockScales>,
    /// Input scale of the classifier head (mean-pooled hidden state).
    pub head_in: f32,
}

/// Observers for one block's quantized GEMM inputs, in [`BlockScales`]
/// order; `None` where the consumer is not a dense linear.
type BlockObservers = [Option<Observer>; 4];

/// Runs the calibration samples through `frozen` (f32, one sequence at a
/// time) and returns the observed activation scales for every quantized
/// GEMM input.
///
/// The samples go through the model's own forward
/// ([`FrozenModel::logits_observed`]), whose tap feeds the observers: the
/// scales describe exactly the activations the served forward produces.
/// Only the inputs of dense linears are observed; the others get the 1.0
/// sentinel (see [`BlockScales`]). Evaluation is per sample and
/// single-pass, so the result is deterministic for a given sample set on
/// every host, backend and thread count — use
/// `LraTask::calibration_batches` for a reproducible sample stream disjoint
/// from the eval split.
///
/// # Panics
///
/// Panics when `samples` is empty, a sequence is empty or longer than the
/// model's `max_seq`, or a token id is out of vocabulary.
pub fn calibrate<S: AsRef<[usize]>>(
    frozen: &FrozenModel,
    samples: &[S],
    config: &CalibrationConfig,
) -> ActivationScales {
    assert!(!samples.is_empty(), "calibration needs at least one sample");
    let observer = |lin: &FrozenLinear| {
        matches!(lin, FrozenLinear::Dense { .. }).then(|| Observer::new(config.observer))
    };
    let mut blocks: Vec<BlockObservers> = frozen
        .blocks()
        .iter()
        .map(|b| {
            let (attn_in, attn_out_in) = match b.mixing() {
                FrozenMixing::Attention(a) => (observer(a.wq()), observer(a.wo())),
                FrozenMixing::Fourier => (None, None),
            };
            [attn_in, attn_out_in, observer(b.ffn().lin1()), observer(b.ffn().lin2())]
        })
        .collect();
    let mut head_in = observer(frozen.head());

    for sample in samples {
        frozen.logits_observed(sample.as_ref(), |tap, values| {
            let observer = match tap {
                Tap::AttnIn(b) => &mut blocks[b][0],
                Tap::AttnCoreOut(b) => &mut blocks[b][1],
                Tap::Ffn1In(b) => &mut blocks[b][2],
                Tap::Ffn2In(b) => &mut blocks[b][3],
                Tap::HeadIn => &mut head_in,
            };
            if let Some(observer) = observer {
                observer.observe(values);
            }
        });
    }

    let scale = |o: &Option<Observer>| o.as_ref().map_or(1.0, Observer::scale);
    ActivationScales {
        blocks: blocks
            .iter()
            .map(|[attn_in, attn_out_in, ffn1_in, ffn2_in]| BlockScales {
                attn_in: scale(attn_in),
                attn_out_in: scale(attn_out_in),
                ffn1_in: scale(ffn1_in),
                ffn2_in: scale(ffn2_in),
            })
            .collect(),
        head_in: scale(&head_in),
    }
}

/// Calibrates on `samples` and quantizes `frozen` in one step — the
/// post-training quantization entry point.
///
/// # Panics
///
/// Panics under the same conditions as [`calibrate`].
pub fn quantize_frozen<S: AsRef<[usize]>>(
    frozen: &FrozenModel,
    samples: &[S],
    config: &CalibrationConfig,
) -> FrozenModel {
    quantize(frozen, &calibrate(frozen, samples, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_nn::{Model, ModelConfig, ModelKind};
    use fab_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn calib_samples(n: usize, len: usize, vocab: usize) -> Vec<Vec<usize>> {
        (0..n).map(|i| (0..len).map(|j| (i * 7 + j * 3) % vocab).collect()).collect()
    }

    #[test]
    fn calibration_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = ModelConfig::tiny_for_tests();
        let model = Model::new(&config, ModelKind::Transformer, &mut rng);
        let frozen = model.freeze().with_fast_math(true);
        let samples = calib_samples(6, 8, config.vocab_size);
        let a = calibrate(&frozen, &samples, &CalibrationConfig::default());
        let b = calibrate(&frozen, &samples, &CalibrationConfig::default());
        assert_eq!(a, b);
        assert_eq!(a.blocks.len(), config.num_layers);
        assert!(a.head_in > 0.0);
        for bs in &a.blocks {
            assert!(bs.ffn1_in > 0.0 && bs.ffn2_in > 0.0);
        }
    }

    #[test]
    fn calibration_replay_matches_the_frozen_forward_bit_for_bit() {
        // The tap must report the tensor the forward consumed: the tapped
        // head input, pushed through the head, is the forward's own logits,
        // and it is the tensor the head-input scale was taken from.
        for (seed, kind) in
            [(13u64, ModelKind::Transformer), (14, ModelKind::FNet), (15, ModelKind::FabNet)]
        {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = ModelConfig::tiny_for_tests();
            let model = Model::new(&config, kind, &mut rng);
            let frozen = model.freeze(); // exact kernels
            let tokens: Vec<usize> = vec![1, 5, 2, 7, 3, 0, 4];
            let scales = calibrate(
                &frozen,
                std::slice::from_ref(&tokens),
                &CalibrationConfig { observer: ObserverKind::MinMax },
            );
            let mut pooled = Vec::new();
            let logits = frozen.logits_observed(&tokens, |tap, values| {
                if tap == Tap::HeadIn {
                    pooled = values.to_vec();
                }
            });
            assert_eq!(logits, frozen.logits(&tokens), "{kind:?}: the tap changed the logits");
            let expected = pooled.iter().fold(0.0f32, |m, &v| m.max(v.abs())) / 127.0;
            assert_eq!(scales.head_in, expected, "{kind:?}: head scale not from the tapped tensor");
            let pooled = Tensor::from_vec(pooled, &[1, config.hidden]).expect("pooled shape");
            assert_eq!(
                frozen.head().forward(&pooled).into_vec(),
                logits,
                "{kind:?}: the tapped head input is not what the head consumed"
            );
        }
    }

    #[test]
    fn fourier_blocks_emit_the_documented_sentinel_scales() {
        let mut rng = StdRng::seed_from_u64(16);
        let config = ModelConfig::tiny_for_tests();
        let model = Model::new(&config, ModelKind::FNet, &mut rng);
        let frozen = model.freeze().with_fast_math(true);
        let samples = calib_samples(4, 8, config.vocab_size);
        let scales = calibrate(&frozen, &samples, &CalibrationConfig::default());
        for bs in &scales.blocks {
            assert_eq!((bs.attn_in, bs.attn_out_in), (1.0, 1.0));
        }
    }

    #[test]
    fn only_the_inputs_of_dense_linears_are_observed() {
        // Block 0 is a Transformer block (dense projections and FFN), block
        // 1 an ABfly block (butterfly projections and FFN); the head is
        // dense.
        let config = ModelConfig::tiny_for_tests();
        let freeze = |kind, seed| Model::new(&config, kind, &mut StdRng::seed_from_u64(seed));
        let (dense, bfly) = (freeze(ModelKind::Transformer, 17), freeze(ModelKind::FabNet, 18));
        let (dense, bfly) = (dense.freeze(), bfly.freeze());
        let abfly = bfly.blocks()[1].clone();
        let FrozenMixing::Attention(a) = abfly.mixing() else { panic!("block 1 is ABfly") };
        for lin in [a.wq(), a.wo(), abfly.ffn().lin1(), abfly.ffn().lin2()] {
            assert!(matches!(lin, FrozenLinear::Butterfly { .. }));
        }
        let model = FrozenModel::from_parts(
            config.clone(),
            ModelKind::FabNet,
            dense.embedding().clone(),
            vec![dense.blocks()[0].clone(), abfly],
            dense.head().clone(),
        );
        let samples = calib_samples(6, 8, config.vocab_size);
        let calibration = CalibrationConfig::default();
        let got = calibrate(&model, &samples, &calibration);

        // Every tap observed, as calibration did before it skipped any.
        let mut every: Vec<(Tap, Observer)> = Vec::new();
        for sample in &samples {
            model.logits_observed(sample, |tap, values| {
                let i = every.iter().position(|(t, _)| *t == tap).unwrap_or_else(|| {
                    every.push((tap, Observer::new(calibration.observer)));
                    every.len() - 1
                });
                every[i].1.observe(values);
            });
        }
        let tapped = |tap| every.iter().any(|(t, _)| *t == tap);
        let observed = |tap| every.iter().find(|(t, _)| *t == tap).expect("tapped").1.scale();
        // A butterfly FFN's inputs never leave its lane tiles: its taps do
        // not fire, a dense FFN's do.
        assert!(tapped(Tap::Ffn1In(0)) && tapped(Tap::Ffn2In(0)), "the dense FFN was not tapped");
        assert!(!tapped(Tap::Ffn1In(1)) && !tapped(Tap::Ffn2In(1)), "a butterfly FFN was tapped");
        let all = |b| BlockScales {
            attn_in: observed(Tap::AttnIn(b)),
            attn_out_in: observed(Tap::AttnCoreOut(b)),
            ffn1_in: if tapped(Tap::Ffn1In(b)) { observed(Tap::Ffn1In(b)) } else { 1.0 },
            ffn2_in: if tapped(Tap::Ffn2In(b)) { observed(Tap::Ffn2In(b)) } else { 1.0 },
        };
        assert_eq!(got.blocks[0], all(0), "dense scales moved");
        assert_eq!(got.head_in, observed(Tap::HeadIn), "the head scale moved");
        let sentinel = BlockScales { attn_in: 1.0, attn_out_in: 1.0, ffn1_in: 1.0, ffn2_in: 1.0 };
        assert_eq!(got.blocks[1], sentinel);
        assert_ne!(all(1).attn_in, 1.0, "an observed butterfly input reads the sentinel anyway");

        // Quantization reads no butterfly scale: the int8 model is the one
        // every observed scale gives, bit for bit.
        let before = ActivationScales { blocks: vec![all(0), all(1)], head_in: got.head_in };
        let (now, then) = (quantize(&model, &got), quantize(&model, &before));
        for sample in &samples {
            let bits = |m: &FrozenModel| m.logits(sample).iter().map(|x| x.to_bits()).collect();
            let (now, then): (Vec<u32>, Vec<u32>) = (bits(&now), bits(&then));
            assert_eq!(now, then);
        }
    }

    #[test]
    fn observer_kinds_produce_different_but_sane_scales() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = ModelConfig::tiny_for_tests();
        let model = Model::new(&config, ModelKind::FNet, &mut rng);
        let frozen = model.freeze().with_fast_math(true);
        let samples = calib_samples(8, 8, config.vocab_size);
        let minmax =
            calibrate(&frozen, &samples, &CalibrationConfig { observer: ObserverKind::MinMax });
        let pct = calibrate(
            &frozen,
            &samples,
            &CalibrationConfig { observer: ObserverKind::Percentile(0.99) },
        );
        for (m, p) in minmax.blocks.iter().zip(pct.blocks.iter()) {
            // Percentile clipping never selects a larger range than min/max
            // (up to histogram bin resolution).
            assert!(p.ffn1_in <= m.ffn1_in * 1.01);
        }
    }
}
