//! # fabnet
//!
//! The facade crate of the butterfly-accelerator reproduction (MICRO'22,
//! "Adaptable Butterfly Accelerator for Attention-based NNs via Hardware and
//! Algorithm Co-design"). It re-exports the public API of the workspace
//! crates and offers a small number of high-level helpers that wire them
//! together: train a FABNet on an LRA-proxy task, simulate it on the
//! adaptable butterfly accelerator, and run the algorithm/hardware co-design
//! flow.
//!
//! | Sub-API | Crate | Contents |
//! |---|---|---|
//! | [`tensor`] | `fab-tensor` | dense tensors + reverse-mode autodiff |
//! | [`butterfly`] | `fab-butterfly` | FFT, butterfly matrices, sparsity taxonomy |
//! | [`nn`] | `fab-nn` | Transformer / FNet / FABNet models and training |
//! | [`lra`] | `fab-lra` | Long-Range-Arena proxy workloads |
//! | [`accel`] | `fab-accel` | the butterfly accelerator simulator + resource/power models |
//! | [`baselines`] | `fab-baselines` | MAC baseline, CPU/GPU rooflines, SOTA accelerators |
//! | [`codesign`] | `fab-codesign` | joint design-space exploration |
//! | [`quant`] | `fab-quant` | post-training int8 quantization + quantized inference |
//! | [`serve`] | `fab-serve` | dynamic-batching inference runtime + serving metrics |
//!
//! # Quick start
//!
//! ```rust
//! use fabnet::prelude::*;
//!
//! // Describe FABNet-Base and the paper's 120-BE accelerator.
//! let model = ModelConfig::fabnet_base();
//! let hw = AcceleratorConfig::vcu128_be120();
//!
//! // Simulate one forward pass at sequence length 128.
//! let schedule = LayerSchedule::from_model(&model, ModelKind::FabNet, 128);
//! let report = Simulator::new(hw).simulate(&schedule);
//! assert!(report.total_ms() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use fab_accel as accel;
pub use fab_baselines as baselines;
pub use fab_butterfly as butterfly;
pub use fab_codesign as codesign;
pub use fab_lra as lra;
pub use fab_nn as nn;
pub use fab_quant as quant;
pub use fab_serve as serve;
pub use fab_tensor as tensor;

pub mod pipeline;

/// The most commonly used types, re-exported for `use fabnet::prelude::*`.
pub mod prelude {
    pub use crate::pipeline::{TrainedFabNet, TrainingPipeline};
    pub use fab_accel::workload::LayerSchedule;
    pub use fab_accel::{AcceleratorConfig, FpgaDevice, LatencyReport, Simulator};
    pub use fab_baselines::{DeviceKind, DeviceModel, MacBaseline};
    pub use fab_codesign::{
        CodesignOptions, DesignSpace, HeuristicAccuracy, MeasuredQuantAccuracy, TrainedAccuracy,
    };
    pub use fab_lra::{LraTask, TaskConfig};
    pub use fab_nn::{FrozenModel, Model, ModelConfig, ModelKind, TrainOptions};
    pub use fab_quant::{quantize_frozen, CalibrationConfig, QuantModel};
    pub use fab_serve::{
        InferenceSession, Prediction, ServeConfig, ServeError, Server, ServerHandle, ServerStats,
        SessionKind,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn prelude_covers_the_main_entry_points() {
        let config = ModelConfig::tiny_for_tests();
        let schedule = LayerSchedule::from_model(&config, ModelKind::FabNet, 32);
        let hw = AcceleratorConfig::vcu128_fabnet().with_attention_units(2, 8, 8);
        let report = Simulator::new(hw).simulate(&schedule);
        assert!(report.total_cycles > 0);
    }
}
