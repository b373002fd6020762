//! Serving-grade fast transcendental kernels.
//!
//! `libm`'s `expf`/`tanhf` dominate the inference profile of softmax and
//! GELU (20–30 ns per element, unvectorisable). The approximations here are
//! branch-free polynomial kernels that the compiler can vectorise, built on
//! one primitive: [`exp_fast`] (round-to-nearest power-of-two range
//! reduction plus a degree-6 Taylor polynomial on the residual).
//!
//! Accuracy (validated by the tests below and used by the serving-path error
//! budget): absolute error ≤ 2e-7 for [`tanh_fast`], ≤ 1e-6 for
//! [`gelu_fast`] over the finite range, relative error ≤ 1e-6 for
//! [`exp_fast`].
//!
//! Since PR 3, the canonical GELU scalar (`Tensor::gelu` and the tape's
//! `gelu` op, forward and backward) is built on [`tanh_fast`] as well —
//! `libm::tanhf` alone dominated the training-step profile. The tape and
//! the frozen inference path share that scalar, so tape `predict` and
//! frozen logits remain bit-identical to each other at every thread count.
//! Since PR 4 these kernels are also the lane arithmetic of the
//! [`crate::simd`] backends (the slice variants below dispatch there), and
//! the row-wise softmax/log-softmax kernels use the lane-parallel
//! [`exp_fast`] on every SIMD backend regardless of the
//! `FrozenModel::with_fast_math` flag — only `FAB_SIMD=scalar` restores the
//! `libm` softmax path bit for bit. All kernels here are deterministic and
//! element-wise, so batched execution remains bit-invariant to batch
//! composition and thread count.
//!
//! # Extreme inputs
//!
//! The clamps make every kernel total over the finite range and ±∞:
//! magnitudes beyond the clamp boundaries (including ±∞ and ±`f32::MAX`)
//! saturate to the boundary values **bit-identically on every backend**.
//! NaN inputs are the one place backends legitimately differ — the scalar
//! `f32::clamp` propagates NaN, and so does the scalar backend's one-lane
//! `max`/`min`, while the AVX2 backend's vector clamp follows the ISA:
//! `maxps` maps a NaN lane to the lower clamp boundary (so `exp` yields
//! `exp_fast(-87)` and `tanh` yields `-1.0`, while `gelu` still yields
//! NaN). This is pinned per backend by
//! `crates/tensor/tests/fastmath_extremes.rs` and the `simd` unit tests.

/// Fast `e^x`.
///
/// Clamps to `[-87, 88]` (the finite `f32` range of `expf`), so the result
/// is always finite: inputs below -87 return ~1e-38 instead of 0, inputs
/// above 88 saturate near `f32::MAX` instead of `inf`.
#[inline]
pub fn exp_fast(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // Cody–Waite split of ln 2: the high part has only 9 mantissa bits, so
    // `k * LN2_HI` is exact for |k| <= 2^15 and the reduction loses no
    // precision even at the far end of the input range.
    // 355/512, exactly representable; spelled in full so the Cody–Waite
    // pairing with LN2_LO is auditable.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let x = x.clamp(-87.0, 88.0);
    // Round-to-nearest-even via the 1.5·2^23 magic-number trick: adding and
    // subtracting it shifts the mantissa so fractional bits drop, without
    // the `roundss`/libcall the baseline x86-64 target needs for
    // `round_ties_even`, and it vectorises.
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    let k = (x * LOG2E + MAGIC) - MAGIC;
    let r = x - k * LN2_HI - k * LN2_LO; // |r| <= ln2 / 2
    let p = 1.0
        + r * (1.0
            + r * (0.5
                + r * (1.0 / 6.0
                    + r * (1.0 / 24.0
                        + r * (1.0 / 120.0 + r * (1.0 / 720.0 + r * (1.0 / 5040.0)))))));
    // 2^k via exponent bits; k is within [-127, 127] after the clamp.
    f32::from_bits((((k as i32) + 127) << 23) as u32) * p
}

/// Fast `tanh(x)` via `(e^{2x} - 1) / (e^{2x} + 1)`, saturating to ±1 for
/// `|x| >= 9` where `1 - |tanh|` is below `f32` resolution.
#[inline]
pub fn tanh_fast(x: f32) -> f32 {
    let e = exp_fast(2.0 * x.clamp(-9.0, 9.0));
    (e - 1.0) / (e + 1.0)
}

/// Fast tanh-approximated GELU, matching [`crate::Tensor::gelu`]'s BERT
/// formulation with [`tanh_fast`] in place of `libm` tanh.
#[inline]
pub fn gelu_fast(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + tanh_fast(SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)))
}

/// [`exp_fast`] over a slice, lane-parallel on the active
/// [`crate::simd`] backend. SIMD lanes run the identical operation sequence,
/// so results are bit-identical to calling [`exp_fast`] per element.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn exp_fast_slice(src: &[f32], dst: &mut [f32]) {
    crate::simd::exp_slice(src, dst);
}

/// [`tanh_fast`] over a slice (lane-parallel, bit-identical to the scalar
/// kernel — see [`exp_fast_slice`]).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn tanh_fast_slice(src: &[f32], dst: &mut [f32]) {
    crate::simd::tanh_slice(src, dst);
}

/// [`gelu_fast`] over a slice (lane-parallel, bit-identical to the scalar
/// kernel — see [`exp_fast_slice`]).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn gelu_fast_slice(src: &[f32], dst: &mut [f32]) {
    crate::simd::gelu_slice(src, dst);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(lo: f32, hi: f32, steps: usize, f: impl Fn(f32) -> f32) -> f32 {
        (0..=steps).map(|i| f(lo + (hi - lo) * i as f32 / steps as f32)).fold(0.0f32, f32::max)
    }

    #[test]
    fn exp_fast_relative_error_below_1e6() {
        let err = sweep(-80.0, 80.0, 400_000, |x| {
            let e = x.exp();
            (exp_fast(x) - e).abs() / e
        });
        assert!(err < 1e-6, "exp_fast relative error {err}");
    }

    #[test]
    fn tanh_fast_absolute_error_below_2e7() {
        let err = sweep(-12.0, 12.0, 400_000, |x| (tanh_fast(x) - x.tanh()).abs());
        assert!(err < 2e-7, "tanh_fast absolute error {err}");
    }

    #[test]
    fn gelu_fast_absolute_error_below_1e6() {
        let err = sweep(-30.0, 30.0, 600_000, |x| {
            let exact = 0.5 * x * (1.0 + (0.797_884_6f32 * (x + 0.044_715 * x * x * x)).tanh());
            (gelu_fast(x) - exact).abs()
        });
        assert!(err < 1e-6, "gelu_fast absolute error {err}");
    }

    #[test]
    fn extremes_stay_finite_and_saturated() {
        assert!(exp_fast(1e9).is_finite());
        assert!(exp_fast(-1e9) > 0.0);
        assert_eq!(tanh_fast(50.0), 1.0);
        assert_eq!(tanh_fast(-50.0), -1.0);
        assert_eq!(gelu_fast(100.0), 100.0);
        assert_eq!(gelu_fast(-100.0), 0.0);
    }
}
