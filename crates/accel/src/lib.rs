//! # fab-accel
//!
//! A performance, resource and power model of the paper's **adaptable
//! butterfly accelerator**, plus a functional model of its datapath.
//!
//! The accelerator (Section IV of the paper) consists of a Butterfly
//! Processor (`P_BE` Butterfly Engines, each with `P_BU` adaptable Butterfly
//! Units), an Attention Processor (`P_head` Attention Engines with QK and SV
//! units), a post-processing unit for layer norm / shortcuts, and a banked
//! butterfly memory system that avoids bank conflicts through a custom data
//! layout (S2P permutation + index coalescing). A single unified engine
//! executes both FFTs and butterfly linear transforms by reconfiguring the
//! Butterfly Units at runtime.
//!
//! This crate reproduces:
//!
//! * the **cycle-level latency model** the authors used for their evaluation
//!   (they report latency from "a cycle-accurate performance model ...
//!   cross-validated with RTL simulation"), including double buffering and
//!   the fine-grained BP↔AP pipelining of Section V-B ([`Simulator`]);
//! * the **analytic DSP/BRAM/LUT/FF resource model** of Section V-C
//!   ([`resources`]) and the **power model** calibrated to Table VI
//!   ([`power`]);
//! * a **functional model** of the adaptable Butterfly Unit and the butterfly
//!   memory system ([`functional`], [`memory`]), cross-validated against the
//!   `fab-butterfly` reference kernels (the paper's Appendix C methodology).
//!
//! # Example
//!
//! ```rust
//! use fab_accel::{AcceleratorConfig, Simulator, workload::LayerSchedule};
//! use fab_nn::{ModelConfig, ModelKind};
//!
//! let hw = AcceleratorConfig::vcu128_fabnet();
//! let model = ModelConfig::fabnet_base();
//! let schedule = LayerSchedule::from_model(&model, ModelKind::FabNet, 128);
//! let report = Simulator::new(hw).simulate(&schedule);
//! assert!(report.total_seconds() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod engine;
pub mod functional;
pub mod memory;
pub mod power;
pub mod resources;
mod simulator;
pub mod workload;

pub use config::{AcceleratorConfig, AcceleratorError, FpgaDevice, MemoryKind};
pub use engine::{
    AdaptableButterflyUnit, AttentionEngineModel, ButterflyEngineModel, ButterflyUnitMode,
};
pub use simulator::{LatencyReport, LayerTiming, Simulator};
