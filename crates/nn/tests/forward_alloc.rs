//! Counted-allocation proof that a warm frozen forward allocates nothing
//! but the logits it returns: every activation lives in a workspace
//! (`fab_nn::frozen`) that only ever grows, and a lone caller gets the same
//! one every time.
//!
//! The sibling of `train_alloc.rs`, and its own integration-test binary for
//! the same reason: it installs the counting global allocator of `common`.

mod common;

use common::allocated_by;
use fab_nn::{FrozenModel, Model, ModelConfig, ModelKind};
use fab_quant::{quantize_frozen, CalibrationConfig};
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

fn tokens(len: usize) -> Vec<usize> {
    (0..len).map(|j| (j * 5 + 3) % 16).collect()
}

/// Transformer, FNet and FABNet (an attention and a Fourier block), each
/// exact, fast-math and calibrated int8.
fn models() -> Vec<(String, FrozenModel)> {
    let calibration: Vec<Vec<usize>> = (0..4).map(|i| tokens(12 + 4 * i)).collect();
    [ModelKind::Transformer, ModelKind::FNet, ModelKind::FabNet]
        .into_iter()
        .flat_map(|kind| {
            let exact = Model::new(&config(), kind, &mut StdRng::seed_from_u64(5)).freeze();
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

#[test]
fn a_longer_sequence_rewarms_the_workspace_once() {
    let _alone = alone();
    // Nothing else in this binary runs a sequence half as long as `long`
    // (a buffer that grows may take up to twice what it was asked for), so
    // whatever ran before, the first model through grows the workspace.
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
