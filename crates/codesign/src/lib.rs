//! # fab-codesign
//!
//! The algorithm–hardware co-design flow of Section V-C (Fig. 15): an
//! exhaustive grid search over FABNet's hyper-parameters (`D_hid`, `R_ffn`,
//! `N_total`, `N_ABfly`) jointly with the accelerator's parallelism
//! parameters (`P_be`, `P_bu`, `P_qk`, `P_sv`), filtered by FPGA resource
//! feasibility, evaluated for accuracy and latency, and reduced to a Pareto
//! front from which the best design under an accuracy constraint is chosen
//! (Fig. 18).
//!
//! Accuracy evaluation is pluggable: this crate accepts any
//! [`AccuracyEstimator`] so callers can plug in real (small-scale) training
//! via `fab-nn`/`fab-lra` ([`TrainedAccuracy`], [`MeasuredQuantAccuracy`]),
//! or use the built-in [`HeuristicAccuracy`] model for fast sweeps. A
//! design's accuracy depends only on its algorithm parameters, so the sweep
//! trains each distinct algorithm config once and shares the result across
//! every hardware point that pairs with it (60 trainings for the 6 654
//! feasible points of [`DesignSpace::lra_vcu128`]).
//!
//! # Example
//!
//! ```rust
//! use fab_codesign::{CodesignOptions, DesignSpace, HeuristicAccuracy, run_codesign};
//!
//! let space = DesignSpace::tiny_for_tests();
//! let options = CodesignOptions { seq_len: 128, ..CodesignOptions::default() };
//! let result = run_codesign(&space, &HeuristicAccuracy::lra_text(), &options);
//! assert!(!result.pareto_front().is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod accuracy;
mod pareto;
mod space;
mod sweep;

pub use accuracy::{AccuracyEstimator, HeuristicAccuracy, MeasuredQuantAccuracy, TrainedAccuracy};
pub use space::{DesignPoint, DesignSpace};
pub use sweep::{run_codesign, CodesignOptions, CodesignResult, EvaluatedPoint};
