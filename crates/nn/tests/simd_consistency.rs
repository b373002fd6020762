//! PR-4 model-level SIMD consistency: logits, losses and gradients computed
//! under the SIMD backend must stay close to the scalar backend across every
//! model kind (the FMA matmul and fast-exponential softmax shift values by
//! rounding only), and the frozen serving path must track the tape path on
//! both backends. The int8 linear accumulates exactly, so it must give the
//! scalar backend's bits.
//!
//! Tests serialise on one lock because the forced backend is process-global.

use fab_nn::{Model, ModelConfig, ModelKind, QuantLinear};
use fab_tensor::simd::{self, Backend};
use fab_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` on backend `b`, then puts the previous backend back — also when
/// `f` panics, so a failed test leaves no backend forced for the next one.
fn with_backend<R>(b: Backend, f: impl FnOnce() -> R) -> R {
    struct Restore(Backend);
    impl Drop for Restore {
        fn drop(&mut self) {
            simd::force_backend(self.0);
        }
    }
    let _restore = Restore(simd::backend());
    simd::force_backend(b);
    f()
}

fn config() -> ModelConfig {
    ModelConfig {
        hidden: 16,
        ffn_ratio: 2,
        num_layers: 2,
        num_abfly: 1,
        num_heads: 2,
        vocab_size: 23,
        max_seq: 32,
        num_classes: 4,
    }
}

#[test]
fn logits_losses_and_gradients_track_the_scalar_backend_across_kinds() {
    let _g = lock();
    if !simd::default_backend().is_simd() {
        return;
    }
    for kind in [ModelKind::Transformer, ModelKind::FNet, ModelKind::FabNet] {
        let model = Model::new(&config(), kind, &mut StdRng::seed_from_u64(5));
        let tokens: Vec<usize> = (0..13).map(|i| (i * 5 + 2) % 23).collect();
        let run = |backend| {
            with_backend(backend, || {
                let logits = model.predict(&tokens);
                let (tape, loss, bindings) = model.loss(&tokens, 1);
                tape.backward(loss);
                let grads: Vec<Vec<f32>> =
                    bindings.iter().map(|(id, _)| tape.grad(*id).into_vec()).collect();
                (logits, tape.value_scalar(loss), grads)
            })
        };
        let scalar = run(Backend::Scalar);
        let native = run(simd::default_backend());
        for (a, b) in native.0.iter().zip(scalar.0.iter()) {
            assert!(
                (a - b).abs() <= 1e-4,
                "{kind:?}: logits drifted {} across backends",
                (a - b).abs()
            );
        }
        assert!(
            (native.1 - scalar.1).abs() <= 1e-4,
            "{kind:?}: loss drifted {} across backends",
            (native.1 - scalar.1).abs()
        );
        let mut max = 0.0f32;
        for (gn, gs) in native.2.iter().zip(scalar.2.iter()) {
            for (a, b) in gn.iter().zip(gs.iter()) {
                max = max.max((a - b).abs());
            }
        }
        assert!(max <= 1e-3, "{kind:?}: gradients drifted {max} across backends");
    }
}

#[test]
fn frozen_logits_match_tape_predict_on_both_backends() {
    let _g = lock();
    for backend in [Backend::Scalar, simd::default_backend()] {
        with_backend(backend, || {
            for kind in [ModelKind::Transformer, ModelKind::FNet, ModelKind::FabNet] {
                let model = Model::new(&config(), kind, &mut StdRng::seed_from_u64(9));
                let frozen = model.freeze();
                let tokens: Vec<usize> = (0..9).map(|i| (i * 3 + 1) % 23).collect();
                let tape_logits = model.predict(&tokens);
                let frozen_logits = &frozen.logits_batch(&[&tokens[..]], 16)[0];
                // Tape predict and frozen forward share every dispatched
                // kernel, so they stay bit-identical within a backend.
                assert_eq!(
                    tape_logits.as_slice(),
                    &frozen_logits[..],
                    "{kind:?}: frozen logits diverged from tape predict on {}",
                    backend.name()
                );
            }
        });
    }
}

#[test]
fn quant_linear_gives_the_scalar_bits_fresh_and_restored() {
    // The native backend's int8 GEMM (the VNNI arm where the CPU has it)
    // against the scalar loop, through the layer's band loop and both
    // epilogues: a 32-column-tile shape with a `d_in % 4` tail and an 8-row
    // tile plus rest, and a 3-class head. The layer rebuilt from its stored
    // parts prepares its rhs again and must serve the same bits.
    let _g = lock();
    let data = |n: usize, salt: usize| -> Vec<f32> {
        (0..n).map(|i| (((i * 97 + salt * 13) % 401) as f32) * 0.005 - 1.0).collect()
    };
    for (d_in, d_out, rows) in [(130usize, 96usize, 75usize), (64, 3, 5)] {
        let w = Tensor::from_vec(data(d_in * d_out, 11), &[d_in, d_out]).expect("w");
        let b = Tensor::from_vec(data(d_out, 12), &[d_out]).expect("b");
        let x = Tensor::from_vec(data(rows * d_in, 13), &[rows, d_in]).expect("x");
        let fresh = QuantLinear::from_dense(&w, &b, 0.008);
        let restored = QuantLinear::from_parts(
            fresh.qw().to_vec(),
            fresh.w_scales().to_vec(),
            fresh.bias().to_vec(),
            fresh.in_scale(),
            d_in,
            d_out,
        );
        for gelu in [false, true] {
            let bits = |q: &QuantLinear, backend| {
                with_backend(backend, || q.forward(&x, gelu))
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            let want = bits(&fresh, Backend::Scalar);
            for (what, q) in [("fresh", &fresh), ("restored", &restored)] {
                assert_eq!(
                    bits(q, simd::default_backend()),
                    want,
                    "{d_in}x{d_out} gelu={gelu}: {what} layer left the scalar bits"
                );
            }
        }
    }
}
