//! # fab-tensor
//!
//! Dense tensor and reverse-mode automatic differentiation substrate used by
//! the FABNet / butterfly-accelerator reproduction.
//!
//! The paper's software stack is PyTorch; this crate provides the minimal
//! equivalent needed to train and evaluate the models the paper studies
//! (vanilla Transformer, FNet and FABNet): a row-major `f32` [`Tensor`] with
//! the usual linear-algebra and neural-network primitives, plus a small
//! tape-based autodiff engine ([`Tape`]) that supports custom operators so
//! that higher-level crates (e.g. `fab-butterfly`) can register butterfly and
//! FFT nodes with hand-written backward passes.
//!
//! # Example
//!
//! ```rust
//! use fab_tensor::{Tensor, Tape};
//!
//! # fn main() -> Result<(), fab_tensor::TensorError> {
//! let tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?);
//! let w = tape.leaf(Tensor::from_vec(vec![0.5, 0.0, 0.0, 0.5], &[2, 2])?);
//! let y = tape.matmul(x, w);
//! let loss = tape.sum(y);
//! tape.backward(loss);
//! assert_eq!(tape.grad(w).shape(), &[2, 2]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod attention;
mod autodiff;
mod error;
pub mod fastmath;
mod gradcheck;
mod init;
pub mod simd;
mod tensor;

pub use autodiff::{BackwardCtx, BackwardFn, GradWriter, ParentValues, Tape, VarId};
pub use error::TensorError;
pub use gradcheck::check_gradient;
pub use init::{kaiming_uniform, normal, uniform};
pub use tensor::{with_rayon_threads, Tensor, PAR_GRAIN_OPS};
