//! # fab-nn
//!
//! End-to-end models for the FABNet reproduction: the vanilla Transformer
//! encoder, FNet, and FABNet itself (the paper's hybrid of FBfly and ABfly
//! blocks), together with analytic FLOP/parameter models, optimisers and a
//! small training loop.
//!
//! A model comes in two modes with one shape: the trainable [`Model`],
//! recorded on the autodiff tape, and the tape-free [`FrozenModel`] that
//! [`Model::freeze`] snapshots for inference (f32, or int8 through
//! `fab-quant`). Both are an embedding, a stack of encoder blocks and a
//! classification head; each block is token mixing (attention or Fourier)
//! and an FFN, with every linear map dense or butterfly — the Transformer,
//! FNet, ABfly and FBfly blocks of the paper's Fig. 5.
//!
//! Everything is built on the [`fab_tensor`] autodiff tape and the
//! [`fab_butterfly`] kernels, so a FABNet trained here exercises exactly the
//! butterfly/FFT dataflow that the accelerator simulator (`fab-accel`)
//! models in hardware.
//!
//! # Example
//!
//! ```rust
//! use fab_nn::{ModelConfig, ModelKind, Model};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let config = ModelConfig::tiny_for_tests();
//! let mut rng = StdRng::seed_from_u64(0);
//! let model = Model::new(&config, ModelKind::FabNet, &mut rng);
//! let tokens = vec![1usize, 2, 3, 4, 5, 6, 7, 0];
//! let logits = model.predict(&tokens);
//! assert_eq!(logits.len(), config.num_classes);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod blocks;
mod config;
pub mod flops;
pub mod frozen;
mod layers;
mod models;
mod optim;
mod param;
mod qlinear;
mod train;

pub use config::{ModelConfig, ModelKind};
pub use flops::{FlopsBreakdown, ParamBreakdown};
pub use frozen::{
    argmax, attention_mix_rows, FrozenAttention, FrozenBlock, FrozenEmbedding, FrozenFeedForward,
    FrozenLayerNorm, FrozenLinear, FrozenMixing, FrozenModel, Tap,
};
pub use models::Model;
pub use optim::{Adam, FusedAdamW, FusedSgd, Optimizer, Sgd};
pub use param::{Bindings, Param};
pub use qlinear::{QuantEmbedding, QuantLinear};
pub use train::{evaluate, train_classifier, Example, TrainOptions, TrainReport, TrainStep};
