//! # fab-quant
//!
//! Post-training int8 quantization for the FABNet reproduction: the software
//! emulation of the low-precision arithmetic the paper's accelerator runs in
//! hardware, and the serving stack's fast path for GEMM-dominated models.
//!
//! The pipeline has three stages; the first two live here, the third is
//! the ordinary frozen forward:
//!
//! 1. **Calibration** ([`calibrate()`]) — deterministic calibration batches
//!    (e.g. [`fab_lra`'s `calibration_batches`][calib]) go through a
//!    [`FrozenModel`](fab_nn::FrozenModel)'s own forward, whose tap
//!    ([`FrozenModel::logits_observed`](fab_nn::FrozenModel::logits_observed))
//!    shows activation observers ([`Observer`], min/max or percentile) every
//!    quantized GEMM input; their dynamic ranges become per-tensor
//!    activation scales.
//! 2. **Quantization** ([`quantize`] / [`quantize_frozen`]) — returns a
//!    copy of the model in which every *dense* linear map (attention
//!    projections, FFN layers, the classifier head) is a
//!    [`FrozenLinear::Int8`](fab_nn::FrozenLinear::Int8): int8 weights with
//!    **per-output-row** symmetric scales, f32 bias, and the calibrated
//!    per-tensor input scale ([`fab_nn::QuantLinear`]). The embedding
//!    tables become [`FrozenEmbedding::Int8`](fab_nn::FrozenEmbedding::Int8)
//!    with per-row scales. Butterfly-factorised linears, softmax, layer
//!    norm and the Fourier/attention token mixing stay in f32, with
//!    dequantization at the boundaries.
//! 3. **Quantized inference** — there is no second model: the result of
//!    stage 2 *is* a [`fab_nn::FrozenModel`] ([`QuantModel`] is an alias),
//!    served by the same `logits*` entry points, sessions and snapshots.
//!    Its int8 linears run `quantize → int8×int8→i32 GEMM → fused
//!    dequant+bias(+GELU)` through the [`fab_tensor::simd`] `q8_*` kernels
//!    (AVX-512 VNNI `vpdpbusd` over weights packed once at quantize or
//!    restore time where the CPU has it, else AVX2 `maddubs`+`madd`, or the
//!    bit-identical scalar reference — `FAB_SIMD` is honoured).
//!
//! # Exactness and batch invariance
//!
//! Scales are **static**: fixed at calibration time, never derived from the
//! batch being served. Combined with the exact i32 accumulation of the q8
//! kernels and the per-sequence evaluation of [`fab_nn::frozen`], a
//! request's quantized logits are **bit-identical**
//! regardless of batch composition and worker-thread count — the
//! same guarantee the f32 serving path makes, property-tested the same way.
//!
//! [calib]: https://docs.rs/fab-lra
//!
//! # Example
//!
//! ```rust
//! use fab_nn::{Model, ModelConfig, ModelKind};
//! use fab_quant::{quantize_frozen, CalibrationConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let model = Model::new(&ModelConfig::tiny_for_tests(), ModelKind::Transformer, &mut rng);
//! let frozen = model.freeze().with_fast_math(true);
//! let calib: Vec<Vec<usize>> = (0..8).map(|i| vec![(i % 7) + 1; 8]).collect();
//! let quant = quantize_frozen(&frozen, &calib, &CalibrationConfig::default());
//! let logits = quant.logits(&[1, 2, 3, 4]);
//! assert_eq!(logits.len(), ModelConfig::tiny_for_tests().num_classes);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod calibrate;
mod observer;
mod qmodel;

pub use calibrate::{calibrate, quantize_frozen, ActivationScales, BlockScales, CalibrationConfig};
pub use observer::{Observer, ObserverKind};
pub use qmodel::{quantize, QuantModel};
