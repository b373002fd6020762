//! Counted-allocation proof that a warm frozen forward allocates nothing
//! but the logits it returns: every activation lives in a workspace
//! (`fab_nn::frozen`) that only ever grows, and a lone caller gets the same
//! one every time. Above the fan-out grain a pool call allocates only when
//! `RAYON_NUM_THREADS` is set (reading it copies the value), so a count
//! taken with it set bounds how many pool calls a forward makes.
//!
//! The sibling of `train_alloc.rs`, and its own integration-test binary for
//! the same reason: it installs the counting global allocator of `common`.

mod common;

use common::allocated_by;
use fab_nn::{FrozenModel, Model, ModelConfig, ModelKind};
use fab_quant::{quantize_frozen, CalibrationConfig};
use fab_tensor::with_rayon_threads;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

/// Workspaces are shared by the process: one test at a time, or each would
/// find the other's workspace where it left its own.
fn alone() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Small enough for every kernel to take its serial path, so the calling
/// thread makes every allocation there is to count.
fn config() -> ModelConfig {
    ModelConfig {
        hidden: 16,
        ffn_ratio: 2,
        num_layers: 2,
        num_abfly: 1,
        num_heads: 2,
        vocab_size: 16,
        max_seq: 64,
        num_classes: 3,
    }
}

/// The `longseq-offline` shape: at 512 and 1024 tokens the projections, the
/// attention core, the FFN and the layer norms all reach the fan-out grain.
fn forking_config() -> ModelConfig {
    ModelConfig { hidden: 128, ffn_ratio: 4, num_heads: 4, max_seq: 1024, ..config() }
}

fn tokens(len: usize) -> Vec<usize> {
    (0..len).map(|j| (j * 5 + 3) % 16).collect()
}

/// Transformer, FNet and FABNet (an attention and a Fourier block), each
/// exact, fast-math and calibrated int8.
fn models() -> Vec<(String, FrozenModel)> {
    models_of(&config(), &[ModelKind::Transformer, ModelKind::FNet, ModelKind::FabNet])
}

fn models_of(config: &ModelConfig, kinds: &[ModelKind]) -> Vec<(String, FrozenModel)> {
    let calibration: Vec<Vec<usize>> = (0..4).map(|i| tokens(12 + 4 * i)).collect();
    kinds
        .iter()
        .flat_map(|&kind| {
            let exact = Model::new(config, kind, &mut StdRng::seed_from_u64(5)).freeze();
            let fast = exact.clone().with_fast_math(true);
            let int8 = quantize_frozen(&fast, &calibration, &CalibrationConfig::default());
            [("exact", exact), ("fast", fast), ("int8", int8)]
                .map(|(precision, model)| (format!("{kind:?} {precision}"), model))
        })
        .collect()
}

/// What a warm forward may allocate: the returned `Vec` of logits, with
/// room to spare for an allocator or a `std` that rounds differently.
fn assert_only_the_logits(label: &str, (allocations, bytes): (u64, u64)) {
    assert!(
        allocations <= 4 && bytes <= 1024,
        "{label}: a warm forward made {allocations} allocations of {bytes} bytes"
    );
}

#[test]
fn a_warm_forward_allocates_only_its_logits() {
    let _alone = alone();
    let tokens = tokens(24);
    for (label, model) in models() {
        model.logits(&tokens);
        model.logits(&tokens);
        assert_only_the_logits(&label, allocated_by(|| model.logits(&tokens)));
    }
}

/// Runs [`rewarm`] once, in whichever comes first of the test that checks
/// it and the one that runs long sequences.
static REWARM: std::sync::Once = std::sync::Once::new();

#[test]
fn a_longer_sequence_rewarms_the_workspace_once() {
    let _alone = alone();
    REWARM.call_once(rewarm);
}

fn rewarm() {
    // Nothing that ran before this in the binary ran a sequence half as
    // long as `long` (a buffer that grows may take up to twice what it was
    // asked for), so the first model through grows the workspace.
    let (short, long) = (tokens(8), tokens(64));
    for (i, (label, model)) in models().into_iter().enumerate() {
        model.logits(&short);
        model.logits(&short);
        assert_only_the_logits(&label, allocated_by(|| model.logits(&short)));
        let (_, grown) = allocated_by(|| model.logits(&long));
        assert!(i > 0 || grown > 1024, "{label}: the longer sequence fitted ({grown} bytes)");
        model.logits(&long);
        for tokens in [&long, &short, &long, &short] {
            assert_only_the_logits(&label, allocated_by(|| model.logits(tokens)));
        }
    }
}

/// Above the grain a pool call allocates nothing but the copy of
/// `RAYON_NUM_THREADS` that std makes on reading it, which the test sets:
/// one allocation per call, so the count bounds the pool calls of a forward.
/// The bound is those calls plus [`assert_only_the_logits`]'s four for the
/// logits. The two-layer Transformer makes 16 at 512 tokens and 20 at 1024
/// (four projections, the attention core, two FFN products and the GELU per
/// layer, and from 1024 tokens the two layer norms): at most 20 and 24
/// allocations. FNet makes 10 and 14 (the Fourier mixing's two passes, two
/// FFN products and the GELU per layer, and the layer norms), and each
/// Fourier mixing lists its tiles for the second pass once
/// (`fab_butterfly::fft`), one allocation more per layer: at most 16 and 20.
/// The int8 rungs, whose GEMM applies the GELU, make two calls fewer. When
/// every pool call cost ten allocations of bookkeeping the Transformer made
/// 161 and 201, and with the core's kernels fanning out one by one 827 and
/// 1 543.
#[test]
fn a_forking_forward_allocates_a_bounded_number_of_pool_calls() {
    let _alone = alone();
    REWARM.call_once(rewarm);
    with_rayon_threads(2, || {
        for (kind, calls) in [(ModelKind::Transformer, [16, 20]), (ModelKind::FNet, [12, 16])] {
            for (label, model) in models_of(&forking_config(), &[kind]) {
                for (len, calls) in [512, 1024].into_iter().zip(calls) {
                    let tokens = tokens(len);
                    model.logits(&tokens);
                    model.logits(&tokens);
                    let (allocations, _) = allocated_by(|| model.logits(&tokens));
                    assert!(
                        allocations <= calls + 4,
                        "{label} at {len} tokens: a warm forward made {allocations} allocations"
                    );
                }
            }
        }
    });
}
