//! # fab-butterfly
//!
//! Butterfly-sparsity kernels underpinning FABNet and the adaptable butterfly
//! accelerator (MICRO'22): complex arithmetic, the radix-2 Cooley–Tukey FFT,
//! FNet-style 2-D Fourier token mixing, learnable butterfly factor matrices
//! and the butterfly linear transform (forward, gradient, and autodiff
//! integration), a FLOP-count model, and the sparsity-pattern taxonomy of the
//! paper's Section III-A (Fig. 4 / Table II).
//!
//! Both the FFT and the butterfly linear transform share the same recursive
//! butterfly dataflow; the accelerator crate (`fab-accel`) exploits exactly
//! this property to run both on one unified engine, and cross-validates its
//! functional model against the reference implementations in this crate.
//!
//! # Example
//!
//! ```rust
//! use fab_butterfly::{fft, ButterflyMatrix, Complex};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A random 8x8 butterfly matrix multiplies a vector in O(n log n).
//! let mut rng = StdRng::seed_from_u64(0);
//! let b = ButterflyMatrix::random(8, &mut rng).unwrap();
//! let y = b.forward(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
//! assert_eq!(y.len(), 8);
//!
//! // The FFT follows the same butterfly dataflow with complex twiddles.
//! let spectrum = fft::fft(&[1.0, 0.0, 0.0, 0.0].map(Complex::from));
//! assert_eq!(spectrum.len(), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod butterfly;
mod complex;
mod error;
mod ffn;
pub mod fft;
pub mod flops;
mod fourier;
mod ops;
pub mod sparsity;

pub use butterfly::{ButterflyMatrix, ButterflyStage};
pub use complex::Complex;
pub use error::ButterflyError;
pub use ffn::{ButterflyFfn, LayerNorm};
pub use fourier::{fourier_mix, fourier_mix_backward, fourier_mix_into};
pub use ops::{butterfly_linear_op, butterfly_linear_padded_op, fourier_mix_op};

thread_local! {
    /// Per-thread pool of work buffers for the batched kernels (a stack, so
    /// a kernel may hold one buffer while a nested step takes another).
    static SCRATCH: std::cell::RefCell<Vec<Vec<f32>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` on a pooled per-thread buffer of `len` values whose contents
/// are unspecified: once the pool has warmed up, no allocation. The buffer
/// starts on a cache-line boundary, so the lane rows the kernels cut it into
/// (32 bytes at 8 lanes, 64 at 16) never straddle two lines.
pub(crate) fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    const LINE: usize = 64;
    let mut buf = SCRATCH.with(|s| s.borrow_mut().pop()).unwrap_or_default();
    let padded = len + LINE / std::mem::size_of::<f32>();
    if buf.len() < padded {
        buf.resize(padded, 0.0);
    }
    let start = buf.as_ptr().align_offset(LINE);
    let r = f(&mut buf[start..start + len]);
    SCRATCH.with(|s| s.borrow_mut().push(buf));
    r
}

/// Returns the smallest power of two greater than or equal to `n` (minimum 2).
///
/// Butterfly matrices and FFTs are defined for power-of-two sizes; model
/// dimensions are padded up to this size.
///
/// # Example
/// ```rust
/// assert_eq!(fab_butterfly::next_pow2(768), 1024);
/// assert_eq!(fab_butterfly::next_pow2(8), 8);
/// ```
pub fn next_pow2(n: usize) -> usize {
    let mut p = 2usize;
    while p < n {
        p *= 2;
    }
    p
}

/// Integer base-2 logarithm of a power of two.
///
/// # Panics
///
/// Panics when `n` is not a power of two or is smaller than 2.
pub(crate) fn log2_exact(n: usize) -> usize {
    assert!(n >= 2 && n.is_power_of_two(), "{n} is not a power of two >= 2");
    n.trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_pow2_rounds_up() {
        assert_eq!(next_pow2(1), 2);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1000), 1024);
        assert_eq!(next_pow2(1024), 1024);
    }

    #[test]
    fn log2_exact_matches() {
        assert_eq!(log2_exact(2), 1);
        assert_eq!(log2_exact(1024), 10);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn log2_exact_rejects_non_powers() {
        let _ = log2_exact(12);
    }
}
