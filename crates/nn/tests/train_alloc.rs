//! Counted-allocation proof of the PR-3 tentpole: once the arena tape, the
//! gradient buffers and the optimiser moments have warmed up, a steady-state
//! training step performs (almost) no heap allocation — a bounded handful
//! per step: the boxed backward closures that capture a value (the padded
//! butterfly op's output width) and the attention layers' head lists. A
//! bound parameter's name is shared, not copied. The butterfly and Fourier ops read
//! their weights and stage their work in place and allocate nothing.
//!
//! This lives in its own integration-test binary because it installs the
//! counting global allocator of `common`.

mod common;

use common::allocated_by;
use fab_nn::{FusedAdamW, Model, ModelConfig, ModelKind, TrainStep};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An attention-only FABNet that is small enough for every kernel to take
/// its serial path — so the measurement is deterministic.
fn abfly_config() -> ModelConfig {
    ModelConfig {
        hidden: 16,
        ffn_ratio: 2,
        num_layers: 2,
        num_abfly: 2,
        num_heads: 2,
        vocab_size: 16,
        max_seq: 16,
        num_classes: 2,
    }
}

/// Warms a train step on `model` up, then holds the steady state: flat
/// tape, gradient and moment capacities and at most `max_allocs`
/// allocations per step.
fn assert_steady_state(model: &Model, max_allocs: u64) {
    let tokens = [1usize, 2, 3, 4, 5, 6, 7, 0];
    let mut step = TrainStep::new(FusedAdamW::new(1e-3));

    // First step: arenas, gradient buffers and optimiser moments warm up.
    let (first_step, _) = allocated_by(|| step.step(model, &tokens, 1));

    // A few more warmup steps (second-step growth, pool fills).
    for _ in 0..3 {
        step.step(model, &tokens, 0);
    }

    // Steady state: capacities must be flat and per-step allocations tiny.
    let node_cap = step.tape().node_capacity();
    let buffer_cap = step.tape().buffer_capacity();
    let moment_cap = step.optimizer().state_capacity();
    let mut steady_max = 0u64;
    for i in 0..8 {
        let (during, _) = allocated_by(|| step.step(model, &tokens, i % 2));
        steady_max = steady_max.max(during);
        assert_eq!(step.tape().node_capacity(), node_cap, "tape node storage grew at step {i}");
        assert_eq!(step.tape().buffer_capacity(), buffer_cap, "tape buffers grew at step {i}");
        assert_eq!(step.optimizer().state_capacity(), moment_cap, "moments grew at step {i}");
    }

    // The steady-state allocations (see the module docs) are a bounded
    // handful, orders of magnitude below warmup.
    assert!(
        steady_max <= max_allocs,
        "steady-state step allocated {steady_max} times (expected at most {max_allocs})"
    );
    assert!(
        steady_max * 10 <= first_step,
        "steady-state step ({steady_max} allocs) is not clearly cheaper than warmup \
         ({first_step} allocs)"
    );
}

#[test]
fn steady_state_train_steps_reuse_tape_grad_and_optimizer_buffers() {
    let mut rng = StdRng::seed_from_u64(3);
    // Measured: 6 per step.
    assert_steady_state(&Model::new(&abfly_config(), ModelKind::FabNet, &mut rng), 8);
}

/// FBfly blocks only: the Fourier mixing op's backward and the butterfly
/// FFN under the same bound.
#[test]
fn fourier_mixing_train_steps_are_steady_too() {
    let mut rng = StdRng::seed_from_u64(3);
    let config = ModelConfig { num_abfly: 0, ..abfly_config() };
    // Measured: 4 per step.
    assert_steady_state(&Model::new(&config, ModelKind::FabNet, &mut rng), 6);
}

/// Changing the sequence length re-warms the tape once, after which the new
/// shape is steady too.
#[test]
fn switching_sequence_lengths_settles_after_one_step() {
    let mut rng = StdRng::seed_from_u64(9);
    let model = Model::new(&abfly_config(), ModelKind::FabNet, &mut rng);
    let short = [1usize, 2, 3, 4];
    let long = [1usize, 2, 3, 4, 5, 6, 7, 0, 9, 10, 11, 12];
    let mut step = TrainStep::new(FusedAdamW::new(1e-3));
    for _ in 0..2 {
        step.step(&model, &short, 0);
        step.step(&model, &long, 1);
    }
    // Alternating between the two warmed shapes stays in reused storage:
    // the long shape's buffers dominate and neither shape grows them.
    let buffer_cap = step.tape().buffer_capacity();
    for i in 0..6 {
        let tokens: &[usize] = if i % 2 == 0 { &short } else { &long };
        step.step(&model, tokens, i % 2);
        assert_eq!(step.tape().buffer_capacity(), buffer_cap, "buffers grew at step {i}");
    }
}
