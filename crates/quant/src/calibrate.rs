//! Calibration: replaying batches through a frozen model while observing
//! the activation ranges at every quantized GEMM input.

use crate::observer::{Observer, ObserverKind};
use crate::qmodel::quantize;
use fab_butterfly::fourier_mix;
use fab_nn::{FrozenAttention, FrozenMixing, FrozenModel};
use fab_tensor::Tensor;

/// Calibration knobs.
#[derive(Debug, Clone, Default)]
pub struct CalibrationConfig {
    /// Which statistic turns observed ranges into scales (default:
    /// 99.9th-percentile clipping).
    pub observer: ObserverKind,
}

/// Calibrated activation scales of one encoder block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockScales {
    /// Input scale of the attention q/k/v projections (1.0 for Fourier
    /// blocks, which have no quantized projections).
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

/// Observers for one block's quantized GEMM inputs.
struct BlockObservers {
    attn_in: Observer,
    attn_out_in: Observer,
    ffn1_in: Observer,
    ffn2_in: Observer,
}

/// The attention core on one example, via the shared frozen-model helper
/// (`fab_nn::attention_mix_rows`) so the replay runs exactly the math the
/// serving path runs — including the fast-math query-prescale ordering.
fn attention_core(
    a: &FrozenAttention,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    fast_math: bool,
) -> Tensor {
    let dim = a.dim();
    let len = q.rows();
    let q = if fast_math {
        let head_scale = 1.0 / ((dim / a.num_heads()) as f32).sqrt();
        q.scale(head_scale)
    } else {
        q.clone()
    };
    let mut mixed = vec![0.0f32; len * dim];
    fab_nn::attention_mix_rows(&q, k, v, a.num_heads(), fast_math, &mut mixed);
    Tensor::from_vec(mixed, &[len, dim]).expect("attention core shape")
}

/// Runs the calibration batches through `frozen` (f32, per example) and
/// returns the observed activation scales for every quantized GEMM input.
///
/// Replay is per example and single-pass, so the result is deterministic
/// for a given sample set on every host, backend and thread count — use
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
    let mut blocks: Vec<BlockObservers> = frozen
        .blocks()
        .iter()
        .map(|_| BlockObservers {
            attn_in: Observer::new(config.observer),
            attn_out_in: Observer::new(config.observer),
            ffn1_in: Observer::new(config.observer),
            ffn2_in: Observer::new(config.observer),
        })
        .collect();
    let mut head_in = Observer::new(config.observer);
    let fast_math = frozen.fast_math();

    for sample in samples {
        let tokens = sample.as_ref();
        assert!(!tokens.is_empty(), "cannot calibrate on an empty sequence");
        assert!(
            tokens.len() <= frozen.max_seq(),
            "calibration sequence length {} exceeds max_seq {}",
            tokens.len(),
            frozen.max_seq()
        );
        let (hidden, vocab) = (frozen.config().hidden, frozen.config().vocab_size);
        let mut x = vec![0.0f32; tokens.len() * hidden];
        for ((j, &id), row) in tokens.iter().enumerate().zip(x.chunks_mut(hidden)) {
            assert!(id < vocab, "token index {id} out of range for vocab {vocab}");
            frozen.embedding().gather_into(id, j, row);
        }
        let mut x =
            Tensor::from_vec(x, &[tokens.len(), hidden]).expect("calibration embedding shape");
        for (fb, obs) in frozen.blocks().iter().zip(blocks.iter_mut()) {
            let m = match fb.mixing() {
                FrozenMixing::Attention(a) => {
                    obs.attn_in.observe(x.as_slice());
                    let q = a.wq().forward(&x);
                    let k = a.wk().forward(&x);
                    let v = a.wv().forward(&x);
                    let mixed = attention_core(a, &q, &k, &v, fast_math);
                    obs.attn_out_in.observe(mixed.as_slice());
                    a.wo().forward(&mixed)
                }
                FrozenMixing::Fourier => fourier_mix(&x),
            };
            x = fb.ln1().forward_residual(&x, &m);
            obs.ffn1_in.observe(x.as_slice());
            let act = fb.ffn().lin1().forward(&x).gelu();
            obs.ffn2_in.observe(act.as_slice());
            let f = fb.ffn().lin2().forward(&act);
            x = fb.ln2().forward_residual(&x, &f);
        }
        // Mean-pool with the accumulation order of the serving path.
        let mut pooled = vec![0.0f32; hidden];
        for row in x.as_slice().chunks(hidden) {
            for (d, &v) in pooled.iter_mut().zip(row.iter()) {
                *d += v;
            }
        }
        for d in pooled.iter_mut() {
            *d /= tokens.len() as f32;
        }
        head_in.observe(&pooled);
    }

    ActivationScales {
        blocks: frozen
            .blocks()
            .iter()
            .zip(blocks.iter())
            .map(|(fb, o)| {
                // Fourier blocks have no quantized projections: their
                // attention observers never see data, so emit the documented
                // 1.0 sentinel instead of the observer's degenerate floor.
                let attention = matches!(fb.mixing(), FrozenMixing::Attention(_));
                BlockScales {
                    attn_in: if attention { o.attn_in.scale() } else { 1.0 },
                    attn_out_in: if attention { o.attn_out_in.scale() } else { 1.0 },
                    ffn1_in: o.ffn1_in.scale(),
                    ffn2_in: o.ffn2_in.scale(),
                }
            })
            .collect(),
        head_in: head_in.scale(),
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
        // The replay re-implements the frozen forward step by step; if the
        // two ever diverge, calibration scales stop describing the
        // activations the serving path produces. With exact (non-fast-math)
        // kernels the replay is bit-identical, so the head-input scale must
        // equal max|pooled|/127 computed from FrozenModel::forward_batch's
        // own final hidden states — any intermediate divergence propagates
        // here.
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
            let hidden = config.hidden;
            let x = frozen.forward_batch(std::slice::from_ref(&tokens), tokens.len());
            let mut pooled = vec![0.0f32; hidden];
            for row in x.as_slice().chunks(hidden) {
                for (d, &v) in pooled.iter_mut().zip(row.iter()) {
                    *d += v;
                }
            }
            for d in pooled.iter_mut() {
                *d /= tokens.len() as f32;
            }
            let expected = pooled.iter().fold(0.0f32, |m, &v| m.max(v.abs())) / 127.0;
            assert_eq!(
                scales.head_in, expected,
                "{kind:?}: calibration replay diverged from the frozen forward"
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
