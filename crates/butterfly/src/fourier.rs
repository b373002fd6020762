//! FNet-style 2-D Fourier token mixing used by the FBfly block.

use crate::fft::fft2_real_padded_into;
use fab_tensor::Tensor;

/// Applies the FNet token-mixing transform `Y = Re(F_seq · X · F_hid)` to a
/// `[seq, hidden]` tensor.
///
/// Dimensions that are not powers of two are zero-padded up to the next power
/// of two before the FFT and truncated afterwards, matching how the
/// accelerator (and the paper's PyTorch `rfft2` path) handles arbitrary
/// sequence lengths.
///
/// # Panics
///
/// Panics when `x` is not 2-D.
pub fn fourier_mix(x: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    fourier_mix_into(x, &mut out);
    out
}

/// [`fourier_mix`] writing into `out` (resized in place). The padding is
/// folded into the transform's gather and the truncation into its output
/// pass ([`crate::fft`]), and the work buffers come from a per-thread pool,
/// so a steady-state call allocates nothing — which is what the autodiff
/// tape relies on across training steps.
///
/// # Panics
///
/// Panics when `x` is not 2-D.
pub fn fourier_mix_into(x: &Tensor, out: &mut Tensor) {
    assert_eq!(x.shape().len(), 2, "fourier_mix requires a 2-D tensor");
    let (seq, hid) = (x.rows(), x.cols());
    out.resize_to(&[seq, hid]);
    fft2_real_padded_into(x.as_slice(), seq, hid, out.as_mut_slice());
}

/// Gradient of [`fourier_mix`] with respect to its input.
///
/// Because the real part of the 2-D DFT is a symmetric linear map (the DFT
/// matrix is symmetric), the adjoint equals the forward transform itself, so
/// the backward pass simply applies [`fourier_mix`] to the upstream gradient.
pub fn fourier_mix_backward(grad_out: &Tensor) -> Tensor {
    fourier_mix(grad_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_tokens_globally() {
        // A single non-zero token must influence every output position.
        let mut x = Tensor::zeros(&[8, 4]);
        x.set(3, 1, 1.0);
        let y = fourier_mix(&x);
        let nonzero = y.as_slice().iter().filter(|v| v.abs() > 1e-6).count();
        assert!(nonzero > 8, "expected global mixing, got {nonzero} non-zeros");
    }

    #[test]
    fn linear_in_input() {
        let a =
            Tensor::from_vec((0..32).map(|i| (i as f32 * 0.3).sin()).collect(), &[8, 4]).unwrap();
        let b =
            Tensor::from_vec((0..32).map(|i| (i as f32 * 0.7).cos()).collect(), &[8, 4]).unwrap();
        let lhs = fourier_mix(&a.add(&b));
        let rhs = fourier_mix(&a).add(&fourier_mix(&b));
        assert!(lhs.allclose(&rhs, 1e-3));
    }

    #[test]
    fn adjoint_identity_holds() {
        // <F(x), y> == <x, F(y)> since Re(DFT2) is symmetric.
        let x =
            Tensor::from_vec((0..32).map(|i| (i as f32 * 0.13).sin()).collect(), &[8, 4]).unwrap();
        let y =
            Tensor::from_vec((0..32).map(|i| (i as f32 * 0.37).cos()).collect(), &[8, 4]).unwrap();
        let fx = fourier_mix(&x);
        let fy = fourier_mix_backward(&y);
        let lhs: f32 = fx.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter().zip(fy.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn non_power_of_two_dims_are_padded() {
        let x = Tensor::ones(&[6, 3]);
        let y = fourier_mix(&x);
        assert_eq!(y.shape(), &[6, 3]);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }
}
