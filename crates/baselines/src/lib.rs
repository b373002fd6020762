//! # fab-baselines
//!
//! The comparison points of the paper's evaluation:
//!
//! * [`mac_baseline`] — the baseline FPGA accelerator of Section VI-D: an
//!   array of multiply-accumulate units with intra-/inter-layer pipelining
//!   that executes dense linear layers and attention natively, implements
//!   Fourier layers as dense DFT matrix multiplications, and exploits
//!   butterfly sparsity only poorly (Fig. 19's reference design);
//! * [`device`] — analytic roofline models of the CPUs and GPUs used in
//!   Section VI-E (Nvidia V100, TITAN Xp, Jetson Nano, Raspberry Pi 4, Intel
//!   Xeon Gold 6154), substituting for the physical boards (see DESIGN.md);
//! * [`sota`] — the published state-of-the-art attention accelerators of
//!   Table V (A3, SpAtten, Sanger, Energon, ELSA, DOTA, FTRANS) with the
//!   paper's 128-multiplier / 1 GHz normalisation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod device;
pub mod mac_baseline;
pub mod sota;

pub use device::{latency_breakdown, DeviceKind, DeviceModel, LatencyBreakdown};
pub use mac_baseline::{BaselineReport, MacBaseline};
pub use sota::{sota_catalogue, ComparisonRow, SotaAccelerator};
