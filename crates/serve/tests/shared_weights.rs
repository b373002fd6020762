//! Counted-allocation proof that a frozen model's weights are one resident
//! set: a clone, `with_fast_math` and `InferenceSession::from_frozen` copy
//! none of them, and every handle they return is on the same set.
//!
//! Its own integration-test binary because it installs the counting global
//! allocator of `fab-nn`'s allocation tests.

#[path = "../../nn/tests/common/mod.rs"]
mod common;

use common::allocated_by;
use fab_nn::{FrozenEmbedding, FrozenModel, Model, ModelConfig, ModelKind};
use fab_quant::{quantize_frozen, CalibrationConfig};
use fab_serve::InferenceSession;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Transformer, FNet and FABNet (an attention and a Fourier block), each
/// f32 and calibrated int8.
fn models() -> Vec<(String, FrozenModel)> {
    let config = ModelConfig {
        hidden: 32,
        ffn_ratio: 2,
        num_layers: 2,
        num_abfly: 1,
        num_heads: 2,
        vocab_size: 16,
        max_seq: 64,
        num_classes: 3,
    };
    let calibration: Vec<Vec<usize>> =
        (0..4).map(|i| (0..8 + i).map(|j| (j * 5 + i) % 16).collect()).collect();
    [ModelKind::Transformer, ModelKind::FNet, ModelKind::FabNet]
        .into_iter()
        .flat_map(|kind| {
            let f32 = Model::new(&config, kind, &mut StdRng::seed_from_u64(3)).freeze();
            let int8 = quantize_frozen(&f32, &calibration, &CalibrationConfig::default());
            [(format!("{kind:?} f32"), f32), (format!("{kind:?} int8"), int8)]
        })
        .collect()
}

/// A way to make a second handle on a model.
type Handle = fn(&FrozenModel) -> FrozenModel;

/// `copy` is a handle on `model`'s weights: the same set, the same blocks
/// in memory, the same bytes reported.
fn assert_shared(label: &str, model: &FrozenModel, copy: &FrozenModel) {
    assert!(copy.shares_weights(model), "{label}: not on the model's weights");
    assert!(std::ptr::eq(copy.blocks(), model.blocks()), "{label}: blocks not pointer-equal");
    assert_eq!(copy.weight_bytes(), model.weight_bytes(), "{label}");
}

#[test]
fn handles_on_a_model_allocate_no_weights() {
    for (label, model) in models() {
        assert!(model.weight_bytes() > 8192, "{label}: {} weight bytes", model.weight_bytes());
        let copies: [(&str, Handle); 3] = [
            ("clone", FrozenModel::clone),
            ("with_fast_math", |m| {
                // A model with int8 tables runs with fast math off.
                let f32 = matches!(m.embedding(), FrozenEmbedding::F32 { .. });
                m.clone().with_fast_math(f32)
            }),
            ("from_frozen", |m| InferenceSession::from_frozen(m.clone()).model().clone()),
        ];
        for (how, copy) in copies {
            let label = format!("{label} {how}");
            assert_eq!(allocated_by(|| copy(&model)), (0, 0), "{label}: allocated");
            assert_shared(&label, &model, &copy(&model));
        }
        let session = InferenceSession::from_frozen(model.clone());
        assert_shared(&format!("{label} session"), &model, session.model());
        assert!(!Model::new(model.config(), model.kind(), &mut StdRng::seed_from_u64(3))
            .freeze()
            .shares_weights(&model));
    }
}
