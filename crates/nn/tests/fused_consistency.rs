//! Gradient-path consistency: the arena tape's fused backward (slice
//! kernels, lane-per-row butterfly stages, fused pad ops) must equal the
//! reference `backward_reference` bit for bit — the oracle sums in the
//! kernels' order — and the fused optimisers must match the reference
//! `Adam`/`Sgd` to within 1e-6, across model kinds, odd sequence lengths,
//! non-power-of-two hidden sizes and rayon worker counts.

use fab_lra::{LraTask, TaskConfig};
use fab_nn::{
    Adam, Example, FusedAdamW, FusedSgd, Model, ModelConfig, ModelKind, Optimizer, Sgd, TrainStep,
};
use fab_tensor::{with_rayon_threads, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serialises tests that mutate `RAYON_NUM_THREADS`, which is process-global.
static THREAD_ENV_LOCK: Mutex<()> = Mutex::new(());

/// A configuration whose hidden size is not a power of two, so every
/// butterfly layer exercises the fused pad + truncate path.
fn odd_config() -> ModelConfig {
    ModelConfig {
        hidden: 12,
        ffn_ratio: 2,
        num_layers: 2,
        num_abfly: 1,
        num_heads: 2,
        vocab_size: 19,
        max_seq: 24,
        num_classes: 3,
    }
}

/// Largest |fused − reference| gradient difference over every bound
/// parameter of one loss evaluation.
fn max_grad_diff(model: &Model, tokens: &[usize], label: usize) -> f32 {
    let (tape, loss, bindings) = model.loss(tokens, label);
    tape.backward(loss);
    let fused: Vec<Tensor> = bindings.iter().map(|(id, _)| tape.grad(*id)).collect();
    tape.backward_reference(loss);
    let mut max = 0.0f32;
    for (f, (id, _)) in fused.iter().zip(bindings.iter()) {
        let r = tape.grad(*id);
        for (a, b) in f.as_slice().iter().zip(r.as_slice()) {
            max = max.max((a - b).abs());
        }
    }
    max
}

/// Asserts fused = reference gradients, bit for bit, at 1, 5 and 7 threads.
fn assert_grads_bit_equal(what: &str, model: &Model, tokens: &[usize], label: usize) {
    for threads in [1, 5, 7] {
        let _guard = THREAD_ENV_LOCK.lock().unwrap();
        let diff = with_rayon_threads(threads, || max_grad_diff(model, tokens, label));
        assert!(diff == 0.0, "{what} @ {threads} threads: fused vs reference grad diff {diff}");
    }
}

#[test]
fn fused_backward_matches_reference_across_kinds_shapes_and_threads() {
    for kind in [ModelKind::FabNet, ModelKind::FNet, ModelKind::Transformer] {
        let mut rng = StdRng::seed_from_u64(41);
        let model = Model::new(&odd_config(), kind, &mut rng);
        for (tokens_len, label) in [(1usize, 0usize), (5, 2), (7, 1), (13, 0), (24, 2)] {
            let tokens: Vec<usize> = (0..tokens_len).map(|i| (i * 7 + 3) % 19).collect();
            assert_grads_bit_equal(&format!("{kind:?} seq {tokens_len}"), &model, &tokens, label);
        }
    }

    // The training benchmark's shape: large enough that the kernels fan out
    // across the worker pool, on a real LRA-Text sample.
    let task = LraTask::Text;
    let config = ModelConfig {
        hidden: 64,
        ffn_ratio: 4,
        num_layers: 2,
        num_abfly: 1,
        num_heads: 4,
        vocab_size: task.vocab_size(),
        max_seq: 128,
        num_classes: task.num_classes(),
    };
    let samples =
        task.generate(&TaskConfig { seq_len: 64 }, 1, &mut StdRng::seed_from_u64(20220703));
    let model = Model::new(&config, ModelKind::FabNet, &mut StdRng::seed_from_u64(42));
    assert_grads_bit_equal("FabNet 64x2 Text@64", &model, &samples[0].tokens, samples[0].label);
}

/// Reads every trainable parameter of `model` (via a throwaway binding pass).
fn param_snapshot(model: &Model) -> Vec<Tensor> {
    let (_tape, _loss, bindings) = model.loss(&[1, 2, 3], 0);
    bindings.iter().map(|(_, p)| p.value()).collect()
}

fn max_param_diff(a: &[Tensor], b: &[Tensor]) -> f32 {
    assert_eq!(a.len(), b.len());
    let mut max = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        for (u, v) in x.as_slice().iter().zip(y.as_slice()) {
            max = max.max((u - v).abs());
        }
    }
    max
}

/// Trains two identically-initialised models — one on the full fused path
/// (reused `TrainStep` + arena backward + `FusedAdamW`), one on the seed
/// reference path (fresh tape each step + `backward_reference` + `Adam`) —
/// and asserts the parameters stay within 1e-6.
#[test]
fn fused_training_path_matches_reference_training_path() {
    let config = odd_config();
    let examples: Vec<Example> = (0..12)
        .map(|i| {
            let len = 3 + (i * 5) % 17;
            Example::new((0..len).map(|j| (j * 11 + i) % 19).collect(), i % 3)
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(77);
    let fused_model = Model::new(&config, ModelKind::FabNet, &mut rng);
    let mut rng = StdRng::seed_from_u64(77);
    let ref_model = Model::new(&config, ModelKind::FabNet, &mut rng);

    let mut step = TrainStep::new(FusedAdamW::new(2e-3));
    let mut ref_opt = Adam::new(2e-3);
    for ex in &examples {
        let fused_loss = step.step(&fused_model, &ex.tokens, ex.label);
        let (tape, loss, bindings) = ref_model.loss(&ex.tokens, ex.label);
        tape.backward_reference(loss);
        ref_opt.step(&tape, &bindings);
        let ref_loss = tape.value_scalar(loss);
        assert!((fused_loss - ref_loss).abs() <= 1e-6, "loss diverged: {fused_loss} vs {ref_loss}");
    }
    let diff = max_param_diff(&param_snapshot(&fused_model), &param_snapshot(&ref_model));
    assert!(diff <= 1e-6, "fused vs reference training diverged: max param diff {diff}");
}

/// Same comparison for the fused SGD against the seed SGD.
#[test]
fn fused_sgd_training_matches_reference_sgd() {
    let config = odd_config();
    let mut rng = StdRng::seed_from_u64(5);
    let fused_model = Model::new(&config, ModelKind::FabNet, &mut rng);
    let mut rng = StdRng::seed_from_u64(5);
    let ref_model = Model::new(&config, ModelKind::FabNet, &mut rng);

    let mut step = TrainStep::new(FusedSgd::new(1e-2));
    let mut ref_opt = Sgd::new(1e-2);
    for i in 0..8 {
        let tokens: Vec<usize> = (0..(5 + i % 3)).map(|j| (j * 3 + i) % 19).collect();
        step.step(&fused_model, &tokens, i % 3);
        let (tape, loss, bindings) = ref_model.loss(&tokens, i % 3);
        tape.backward_reference(loss);
        ref_opt.step(&tape, &bindings);
    }
    let diff = max_param_diff(&param_snapshot(&fused_model), &param_snapshot(&ref_model));
    assert!(diff <= 1e-6, "fused vs reference SGD diverged: max param diff {diff}");
}

/// The reused-tape path must not depend on the worker count: training the
/// same model with different `RAYON_NUM_THREADS` yields identical losses.
#[test]
fn train_step_losses_are_thread_count_invariant() {
    let config = odd_config();
    let tokens: Vec<usize> = (0..17).map(|i| (i * 5 + 1) % 19).collect();
    let mut baseline: Option<Vec<f32>> = None;
    for threads in [1, 5, 7] {
        let _guard = THREAD_ENV_LOCK.lock().unwrap();
        let losses: Vec<f32> = with_rayon_threads(threads, || {
            let mut rng = StdRng::seed_from_u64(13);
            let model = Model::new(&config, ModelKind::FabNet, &mut rng);
            let mut step = TrainStep::new(FusedAdamW::new(1e-3));
            (0..6).map(|i| step.step(&model, &tokens, i % 3)).collect()
        });
        match &baseline {
            None => baseline = Some(losses),
            Some(b) => assert_eq!(b, &losses, "losses diverged at {threads} threads"),
        }
    }
}
