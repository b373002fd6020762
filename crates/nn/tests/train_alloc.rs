//! Counted-allocation proof of the PR-3 tentpole: once the arena tape, the
//! gradient buffers and the optimiser moments have warmed up, a steady-state
//! training step performs (almost) no heap allocation — the only remaining
//! allocations are the boxed backward closures of the custom butterfly ops,
//! a bounded handful per step.
//!
//! This lives in its own integration-test binary because it installs a
//! counting global allocator.

use fab_nn::{FusedAdamW, Model, ModelConfig, ModelKind, TrainStep};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread. `cargo test` runs the two tests of
    /// this binary on parallel threads, so a process-wide counter would
    /// charge each test with the other's allocations. (A `const` `Cell` has
    /// no lazy initialiser and no destructor, so the allocator may touch it
    /// at any point of a thread's life.)
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread (every kernel of the
/// counted model takes its serial path, so a step allocates nowhere else).
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// An attention-only FABNet (no Fourier blocks, whose FFT still stages
/// internal buffers) that is small enough for every kernel to take its
/// serial path — so the measurement is deterministic.
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

#[test]
fn steady_state_train_steps_reuse_tape_grad_and_optimizer_buffers() {
    let mut rng = StdRng::seed_from_u64(3);
    let model = Model::new(&abfly_config(), ModelKind::FabNet, &mut rng);
    let tokens = [1usize, 2, 3, 4, 5, 6, 7, 0];
    let mut step = TrainStep::new(FusedAdamW::new(1e-3));

    // First step: arenas, gradient buffers and optimiser moments warm up.
    let before = allocations();
    step.step(&model, &tokens, 1);
    let first_step = allocations() - before;

    // A few more warmup steps (second-step growth, pool fills).
    for _ in 0..3 {
        step.step(&model, &tokens, 0);
    }

    // Steady state: capacities must be flat and per-step allocations tiny.
    let node_cap = step.tape().node_capacity();
    let buffer_cap = step.tape().buffer_capacity();
    let moment_cap = step.optimizer().state_capacity();
    let mut steady_max = 0u64;
    for i in 0..8 {
        let before = allocations();
        step.step(&model, &tokens, i % 2);
        let during = allocations() - before;
        steady_max = steady_max.max(during);
        assert_eq!(step.tape().node_capacity(), node_cap, "tape node storage grew at step {i}");
        assert_eq!(step.tape().buffer_capacity(), buffer_cap, "tape buffers grew at step {i}");
        assert_eq!(step.optimizer().state_capacity(), moment_cap, "moments grew at step {i}");
    }

    // The only steady-state allocations are the boxed custom-op backward
    // closures (one small Box per butterfly op) and the per-attention-layer
    // head list — a bounded handful, orders of magnitude below warmup.
    assert!(
        steady_max <= 64,
        "steady-state step allocated {steady_max} times (expected a bounded handful)"
    );
    assert!(
        steady_max * 10 <= first_step,
        "steady-state step ({steady_max} allocs) is not clearly cheaper than warmup \
         ({first_step} allocs)"
    );
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
