//! PR-5 property tests: a quantized model must be batch-invariant
//! (bit-identical logits for a request at any batch composition, `pad_to`
//! and thread count), deterministic across SIMD backends' exact int8
//! accumulation, and a close approximation of the f32 model it was
//! quantized from.

use fab_butterfly::flops::{attention_core_flops, dense_linear_flops};
use fab_lra::{LraTask, TaskConfig};
use fab_nn::{train_classifier, Example, Model, ModelConfig, ModelKind, TrainOptions};
use fab_quant::{
    calibrate, quantize, quantize_frozen, CalibrationConfig, ObserverKind, QuantModel,
};
use fab_tensor::simd::{self, with_backend, Backend};
use fab_tensor::{with_rayon_threads, PAR_GRAIN_OPS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

/// Held by every test: two of them switch the process-wide SIMD backend
/// (`with_backend`), and a forward that sees the switch halfway sizes its
/// attention scratch for one backend and runs the other's tile.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny() -> ModelConfig {
    ModelConfig::tiny_for_tests()
}

fn calib_samples(n: usize, len: usize, vocab: usize) -> Vec<Vec<usize>> {
    (0..n).map(|i| (0..len).map(|j| (i * 5 + j * 11 + 1) % vocab).collect()).collect()
}

fn quantized(seed: u64, kind: ModelKind) -> (Model, QuantModel) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = tiny();
    let model = Model::new(&config, kind, &mut rng);
    let frozen = model.freeze().with_fast_math(true);
    let samples = calib_samples(8, config.max_seq.min(8), config.vocab_size);
    let quant = quantize_frozen(&frozen, &samples, &CalibrationConfig::default());
    (model, quant)
}

#[test]
fn batched_quant_logits_match_single_requests_bit_for_bit() {
    let _g = lock();
    for (seed, kind) in
        [(1u64, ModelKind::Transformer), (2, ModelKind::FNet), (3, ModelKind::FabNet)]
    {
        let (_model, quant) = quantized(seed, kind);
        let batch: Vec<Vec<usize>> =
            vec![vec![1, 2, 3], vec![4, 5, 6, 7, 0, 2, 3, 1], vec![2; 5], vec![7, 7]];
        let pad_to = 8;
        let batched = quant.logits_batch(&batch, pad_to);
        for (tokens, got) in batch.iter().zip(batched.iter()) {
            assert_eq!(&quant.logits(tokens), got, "{kind:?} tokens {tokens:?}");
        }
    }
}

#[test]
fn padding_length_does_not_change_quant_logits() {
    let _g = lock();
    let (_model, quant) = quantized(4, ModelKind::Transformer);
    let batch = vec![vec![1usize, 2, 3, 4, 5]];
    let a = quant.logits_batch(&batch, 5);
    let b = quant.logits_batch(&batch, 8);
    let c = quant.logits_batch(&batch, tiny().max_seq);
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn flat_buffer_path_matches_sequence_path() {
    let _g = lock();
    let (_model, quant) = quantized(5, ModelKind::Transformer);
    let batch: Vec<Vec<usize>> = vec![vec![1, 2, 3], vec![4, 5, 6, 7, 0], vec![2; 6]];
    let pad_to = 6;
    let lengths: Vec<usize> = batch.iter().map(Vec::len).collect();
    let mut flat = vec![0usize; batch.len() * pad_to];
    for (dst, src) in flat.chunks_mut(pad_to).zip(batch.iter()) {
        dst[..src.len()].copy_from_slice(src);
    }
    assert_eq!(
        quant.logits_batch(&batch, pad_to),
        quant.logits_batch_flat(&flat, &lengths, pad_to)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random batch compositions around one probe sequence: the probe's
    // logits must never move (frozen-model-style batch invariance).
    #[test]
    fn quant_logits_are_invariant_to_batch_composition(
        seed in 0u64..30,
        n_others in 0usize..5,
        fills in prop::collection::vec(0usize..16, 5),
        lens in prop::collection::vec(1usize..9, 5),
        pad_extra in 0usize..4,
    ) {
        let _g = lock();
        let (_model, quant) = quantized(seed, ModelKind::Transformer);
        let probe = vec![1usize, 4, 2, 7];
        let alone = quant.logits(&probe);
        let mut batch: Vec<Vec<usize>> = vec![probe.clone()];
        for i in 0..n_others {
            batch.push(vec![fills[i]; lens[i]]);
        }
        let longest = batch.iter().map(Vec::len).max().unwrap();
        let pad_to = (longest + pad_extra).min(tiny().max_seq);
        let batched = quant.logits_batch(&batch, pad_to);
        prop_assert_eq!(&alone, &batched[0]);
    }
}

#[test]
fn quant_logits_do_not_depend_on_the_thread_count() {
    // The banded int8 GEMM and the f32 attention matmuls must both be
    // bit-invariant to rayon's worker count. A batch is a list of
    // independently evaluated sequences, so it is one *sequence* that has
    // to cross the shared grain: the model is sized so that the attention
    // core (banded over its query rows, the last band ragged) and each int8
    // projection of a full-length sequence reach `PAR_GRAIN_OPS` (checked
    // below, wherever the grain is moved), and the projection spans more
    // than one 64-row band, the last one ragged. `RAYON_NUM_THREADS` is
    // process-global, hence the lock.
    let _g = lock();
    let config = ModelConfig {
        hidden: 128,
        ffn_ratio: 2,
        num_layers: 1,
        num_abfly: 0,
        num_heads: 4,
        vocab_size: 32,
        max_seq: 160,
        num_classes: 2,
    };
    let seq = config.max_seq;
    assert!(attention_core_flops(seq, config.hidden) >= PAR_GRAIN_OPS, "the attention core");
    assert!(dense_linear_flops(seq, config.hidden, config.hidden) >= PAR_GRAIN_OPS && seq > 64);
    let mut rng = StdRng::seed_from_u64(6);
    let frozen = Model::new(&config, ModelKind::Transformer, &mut rng).freeze();
    let samples = calib_samples(4, 16, config.vocab_size);
    let quant = quantize_frozen(&frozen, &samples, &CalibrationConfig::default());
    assert_eq!(quant.quantized_fraction(), 1.0);
    let tokens: Vec<usize> = (0..seq).map(|j| (j * 7 + 3) % config.vocab_size).collect();
    let baseline = quant.logits(&tokens);
    for threads in [1, 5, 7] {
        let got = with_rayon_threads(threads, || quant.logits(&tokens));
        assert_eq!(baseline, got, "logits changed with {threads} rayon threads");
    }
}

#[test]
fn quant_logits_are_bit_identical_across_simd_backends() {
    // The int8 GEMM accumulates exactly on every backend, the dequant
    // epilogue runs identical mul-then-add lanes, and the f32 remainder of
    // the quantized forward differs only by documented row-kernel rounding;
    // a logits comparison across backends must stay within the serving
    // tolerance. (Scalar-vs-AVX2 GEMM bit-identity itself is asserted in
    // fab-tensor's simd tests.)
    let _g = lock();
    if !simd::default_backend().is_simd() {
        return;
    }
    let (_model, quant) = quantized(7, ModelKind::Transformer);
    let tokens = vec![1usize, 5, 2, 7, 3, 0, 4];
    let scalar = with_backend(Backend::Scalar, || quant.logits(&tokens));
    let vect = with_backend(simd::default_backend(), || quant.logits(&tokens));
    let max_diff =
        scalar.iter().zip(vect.iter()).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
    assert!(max_diff <= 1e-4, "quant logits diverged {max_diff} across backends");
}

#[test]
fn quantized_predictions_track_the_f32_model() {
    let _g = lock();
    // Accuracy sanity: int8 must agree with the f32 frozen model on the
    // overwhelming majority of inputs (identical argmax), and logits must
    // stay close in absolute terms.
    let mut agree = 0usize;
    let mut total = 0usize;
    for (seed, kind) in [(8u64, ModelKind::Transformer), (9, ModelKind::FNet)] {
        let (model, quant) = quantized(seed, kind);
        let frozen = model.freeze().with_fast_math(true);
        for i in 0..40 {
            let len = (i % 7) + 2;
            let tokens: Vec<usize> = (0..len).map(|j| (i * 3 + j * 5 + 1) % 16).collect();
            let f = frozen.logits(&tokens);
            let q = quant.logits(&tokens);
            let max_diff =
                f.iter().zip(q.iter()).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
            let mag = f.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1.0);
            // Untrained tiny models (hidden 16) sit at the noisy end of
            // int8: layer norms amplify the per-layer quantization error,
            // measured at ≤ ~0.25 of the logit magnitude. Trained
            // production-size models land far tighter
            // (`int8_accuracy_stays_within_one_point_of_f32_on_trained_text`).
            assert!(
                max_diff <= 0.5 * mag,
                "{kind:?}: int8 logits drifted {max_diff} (magnitude {mag}) on {tokens:?}"
            );
            agree += usize::from(fab_nn::argmax(&f) == fab_nn::argmax(&q));
            total += 1;
        }
    }
    assert!(agree * 10 >= total * 9, "int8 argmax agreed on only {agree}/{total} random inputs");
}

/// The accuracy contract end to end: a dense Transformer trained on the
/// Text proxy, calibrated on the disjoint calibration stream, loses at most
/// one point of held-out accuracy to int8 — and has learned the task, so
/// the bound cannot hold vacuously.
#[test]
fn int8_accuracy_stays_within_one_point_of_f32_on_trained_text() {
    let _g = lock();
    let (task, seq_len, seed) = (LraTask::Text, 64, 20220705);
    let config = ModelConfig {
        hidden: 128,
        ffn_ratio: 4,
        num_layers: 2,
        num_abfly: 2,
        num_heads: 4,
        vocab_size: task.vocab_size(),
        max_seq: seq_len,
        num_classes: task.num_classes(),
    };
    let task_config = TaskConfig { seq_len };
    let mut rng = StdRng::seed_from_u64(seed);
    let (train, eval) = task.generate_split(&task_config, 80, 120, &mut rng);
    let model = Model::new(&config, ModelKind::Transformer, &mut rng);
    let examples: Vec<Example> =
        train.iter().map(|s| Example::new(s.tokens.clone(), s.label)).collect();
    train_classifier(&model, &examples, &[], &TrainOptions { epochs: 2, learning_rate: 1e-3 });

    let frozen = model.freeze().with_fast_math(true);
    let calib = task.calibration_batches(&task_config, seed, 16);
    let calib_tokens: Vec<&[usize]> = calib.iter().map(|s| s.tokens.as_slice()).collect();
    let quant = quantize_frozen(&frozen, &calib_tokens, &CalibrationConfig::default());

    let accuracy = |m: &QuantModel| {
        let hits = eval.iter().filter(|s| m.predict_class(&s.tokens) == s.label).count();
        100.0 * hits as f64 / eval.len() as f64
    };
    let (f32_acc, int8_acc) = (accuracy(&frozen), accuracy(&quant));
    assert!(f32_acc >= 90.0, "f32 model did not learn Text: {f32_acc:.1}% (chance is 50%)");
    assert!(f32_acc - int8_acc <= 1.0, "int8 dropped {f32_acc:.1}% -> {int8_acc:.1}%");
}

#[test]
fn fabnet_keeps_butterfly_linears_in_f32() {
    let _g = lock();
    let (_model, quant) = quantized(10, ModelKind::FabNet);
    // FabNet linears are butterfly-factorised: only embeddings + the dense
    // classifier head quantize, so the fraction is strictly between 0 and 1.
    let frac = quant.quantized_fraction();
    assert!(frac > 0.0 && frac < 1.0, "FabNet quantized fraction {frac}");
    let (_model, dense) = quantized(10, ModelKind::Transformer);
    assert_eq!(dense.quantized_fraction(), 1.0, "Transformer must quantize every linear");
}

#[test]
fn quantizing_a_fast_math_model_turns_fast_math_off() {
    let _g = lock();
    // Calibration replays the model it is given (fast-math attention
    // ordering included), but the quantized result always serves the exact
    // ordering — the one precision int8 snapshots can record.
    for (seed, kind) in
        [(12u64, ModelKind::Transformer), (13, ModelKind::FNet), (14, ModelKind::FabNet)]
    {
        let (model, quant) = quantized(seed, kind);
        let fast = model.freeze().with_fast_math(true);
        assert!(fast.fast_math() && !quant.fast_math(), "{kind:?}");
        // Same scales, quantized from the exact-math freeze: the same model.
        let samples = calib_samples(8, tiny().max_seq.min(8), tiny().vocab_size);
        let scales = calibrate(&fast, &samples, &CalibrationConfig::default());
        let from_exact = quantize(&model.freeze(), &scales);
        let tokens = vec![1usize, 5, 2, 7, 3, 0, 4];
        assert_eq!(quant.logits(&tokens), from_exact.logits(&tokens), "{kind:?}");
        // An all-f32 model reports no int8 linears.
        assert_eq!(fast.quantized_fraction(), 0.0);
    }
}

#[test]
fn calibration_scales_shape_matches_the_model() {
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(11);
    let config = tiny();
    let model = Model::new(&config, ModelKind::FabNet, &mut rng);
    let frozen = model.freeze().with_fast_math(true);
    let samples = calib_samples(4, 8, config.vocab_size);
    let scales =
        calibrate(&frozen, &samples, &CalibrationConfig { observer: ObserverKind::MinMax });
    assert_eq!(scales.blocks.len(), config.num_layers);
}

/// Calibration output, pinned: the `f32::to_bits` of every activation scale
/// (`attn_in, attn_out_in, ffn1_in, ffn2_in` per block, then `head_in`) for
/// seeded tiny models, on the scalar backend so the bits are the same on
/// every host. Recorded before calibration moved onto the frozen forward's
/// tap; a change here means the scales `fabd` quantizes with have moved.
/// FABNet's blocks are all butterfly linears, which stay f32: their inputs
/// are not observed and read the 1.0 sentinel (`0x3f800000`); its dense
/// head keeps the scale recorded before that.
#[test]
fn calibration_scales_match_the_recorded_bits() {
    use ModelKind::{FNet, FabNet, Transformer};
    use ObserverKind::{MinMax, Percentile};
    #[rustfmt::skip]
    let golden: [(u64, ModelKind, ObserverKind, bool, [u32; 9]); 7] = [
        (31, Transformer, MinMax, true,
         [0x3a4a0bb6, 0x398797c7, 0x3cb3b501, 0x3d036909, 0x3cbffa94, 0x3ccdda85, 0x3ca131ff, 0x3d10b5d0, 0x3c872024]),
        (31, Transformer, Percentile(0.999), true,
         [0x3a3468d2, 0x398797c7, 0x3ca4e9d4, 0x3cf72e5d, 0x3cbe3c79, 0x3cbf9f3e, 0x3c9e1c38, 0x3d00e1c4, 0x3c872024]),
        (31, Transformer, MinMax, false,
         [0x3a4a0bb6, 0x398797c7, 0x3cb3b501, 0x3d036909, 0x3cbffa94, 0x3ccdda83, 0x3ca131ff, 0x3d10b5cf, 0x3c872024]),
        (32, FNet, MinMax, true,
         [0x3f800000, 0x3f800000, 0x3cbdac3a, 0x3d11fde6, 0x3f800000, 0x3f800000, 0x3cba6106, 0x3cfd4985, 0x3c0ddd97]),
        (32, FNet, Percentile(0.999), true,
         [0x3f800000, 0x3f800000, 0x3cbcf9f4, 0x3d0ab56b, 0x3f800000, 0x3f800000, 0x3cabf7f0, 0x3ce9b367, 0x3c0ddd97]),
        (33, FabNet, MinMax, true,
         [0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3bfaea98]),
        (33, FabNet, Percentile(0.999), true,
         [0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3bfaea98]),
    ];
    assert_eq!(ObserverKind::default(), Percentile(0.999), "the table's percentile rows");
    let _g = lock();
    let got: Vec<Vec<u32>> = with_backend(Backend::Scalar, || {
        golden
            .iter()
            .map(|&(seed, kind, observer, fast_math, _)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let frozen = Model::new(&tiny(), kind, &mut rng).freeze().with_fast_math(fast_math);
                let samples = calib_samples(8, 8, tiny().vocab_size);
                let scales = calibrate(&frozen, &samples, &CalibrationConfig { observer });
                let blocks = scales.blocks.iter();
                blocks
                    .flat_map(|b| [b.attn_in, b.attn_out_in, b.ffn1_in, b.ffn2_in])
                    .chain([scales.head_in])
                    .map(f32::to_bits)
                    .collect()
            })
            .collect()
    });
    for ((seed, kind, observer, fast_math, want), got) in golden.iter().zip(&got) {
        assert_eq!(got, want, "seed {seed} {kind:?} {observer:?} fast_math {fast_math}");
    }
}
