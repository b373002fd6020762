//! PR-5 satellite: pins the behaviour of the fastmath kernels on extreme
//! inputs — ±∞, NaN and finite magnitudes far beyond the clamp range — on
//! the scalar and the AVX2 backend.
//!
//! The clamp contract (documented in `fab_tensor::fastmath`):
//!
//! * Inputs beyond the clamp range saturate to the clamp boundary on every
//!   backend: `exp_fast` clamps to `[-87, 88]`, `tanh_fast` to `[-9, 9]`
//!   (where `|tanh|` rounds to 1 in `f32`), so ±∞ and ±`f32::MAX` produce
//!   the same finite results bit for bit on scalar and SIMD backends alike.
//! * NaN inputs are where the backends legitimately differ, because the
//!   scalar `f32::clamp` propagates NaN while the vector `max`/`min` clamp
//!   does whatever the ISA's min/max instructions do:
//!   - scalar: NaN in → NaN out for `exp_fast`, `tanh_fast`, `gelu_fast`;
//!   - AVX2: `maxps(x, lo)` returns `lo` when `x` is NaN, so a NaN lane is
//!     mapped to the *lower* clamp boundary — `exp` returns `exp_fast(-87)`
//!     and `tanh` returns `-1.0`; `gelu` still returns NaN (the `0.5·x`
//!     factor keeps the NaN alive).
//!
//! The scalar backend runs the vector bodies one lane wide, whose `max` /
//! `min` keep a NaN like `f32::clamp`; the `simd` unit tests pin its slices
//! to the scalar kernels, NaN included.
//!
//! All tests serialise on one lock because the forced backend is
//! process-global.

use fab_tensor::fastmath::{
    exp_fast, exp_fast_slice, gelu_fast, gelu_fast_slice, tanh_fast, tanh_fast_slice,
};
use fab_tensor::simd::{self, with_backend, Backend};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn scalar_exp_fast_saturates_beyond_the_clamp_range() {
    // Everything at or beyond the [-87, 88] clamp collapses onto the
    // boundary values, which are finite and positive.
    let hi = exp_fast(88.0);
    let lo = exp_fast(-87.0);
    assert!(hi.is_finite() && hi > 1e38);
    assert!(lo > 0.0 && lo < 1e-37);
    for x in [89.0f32, 1e4, 1e30, f32::MAX, f32::INFINITY] {
        assert_eq!(exp_fast(x), hi, "exp_fast({x}) must saturate at the upper clamp");
    }
    for x in [-88.0f32, -1e4, -1e30, f32::MIN, f32::NEG_INFINITY] {
        assert_eq!(exp_fast(x), lo, "exp_fast({x}) must saturate at the lower clamp");
    }
    assert!(exp_fast(f32::NAN).is_nan(), "scalar exp_fast must propagate NaN");
}

#[test]
fn scalar_tanh_and_gelu_saturate_beyond_the_clamp_range() {
    for x in [9.0f32, 50.0, 1e30, f32::MAX, f32::INFINITY] {
        assert_eq!(tanh_fast(x), 1.0, "tanh_fast({x}) must saturate at 1");
        assert_eq!(tanh_fast(-x), -1.0, "tanh_fast(-{x}) must saturate at -1");
    }
    assert!(tanh_fast(f32::NAN).is_nan(), "scalar tanh_fast must propagate NaN");
    // In the saturated tanh region GELU is exactly identity (positive side)
    // and exactly zero (negative side).
    for x in [20.0f32, 1e3, 1e30, f32::MAX] {
        assert_eq!(gelu_fast(x), x, "gelu_fast({x}) must be identity when tanh saturates");
        assert_eq!(gelu_fast(-x), 0.0, "gelu_fast(-{x}) must be 0 when tanh saturates");
    }
    assert_eq!(gelu_fast(f32::INFINITY), f32::INFINITY);
    // -∞ hits 0.5 · (-∞) · 0: IEEE makes that NaN, and we pin it rather
    // than paper over it — serving inputs are finite by construction.
    assert!(gelu_fast(f32::NEG_INFINITY).is_nan());
    assert!(gelu_fast(f32::NAN).is_nan());
}

/// Inputs mixing extremes with ordinary values, longer than one AVX2 vector
/// so both the lane loop and the scalar tail see extremes.
fn extreme_inputs() -> Vec<f32> {
    let pattern = [
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MAX,
        f32::MIN,
        1e30,
        -1e30,
        88.0,
        -87.0,
        9.0,
        -9.0,
        0.5,
        -0.5,
        0.0,
    ];
    let mut v: Vec<f32> = pattern.into_iter().cycle().take(19).collect();
    v[17] = f32::NAN; // a NaN in the scalar tail as well
    v
}

#[test]
fn slice_kernels_saturate_identically_across_backends_for_non_nan_extremes() {
    let _g = lock();
    if !simd::default_backend().is_simd() {
        return;
    }
    let x = extreme_inputs();
    for kernel in [exp_fast_slice, tanh_fast_slice, gelu_fast_slice] {
        let mut scalar = vec![0.0f32; x.len()];
        let mut vect = vec![0.0f32; x.len()];
        with_backend(Backend::Scalar, || kernel(&x, &mut scalar));
        with_backend(simd::default_backend(), || kernel(&x, &mut vect));
        for (i, (&s, &v)) in scalar.iter().zip(vect.iter()).enumerate() {
            if x[i].is_nan() {
                continue; // NaN lanes are pinned per backend below.
            }
            assert!(
                s.to_bits() == v.to_bits() || (s.is_nan() && v.is_nan()),
                "lane {i} (input {}) diverged between backends: scalar {s} vs simd {v}",
                x[i]
            );
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_nan_lanes_map_to_the_lower_clamp_boundary() {
    let _g = lock();
    if simd::default_backend() != Backend::Avx2 {
        return;
    }
    let x = extreme_inputs();
    let nan_lanes: Vec<usize> = (0..x.len()).filter(|&i| x[i].is_nan()).collect();
    assert!(nan_lanes.iter().any(|&i| i < 16) && nan_lanes.iter().any(|&i| i >= 16));
    let mut out = vec![0.0f32; x.len()];

    // exp: maxps(NaN, -87) selects -87, so a NaN lane becomes exp_fast(-87)
    // — *only* in the vector body; the scalar tail keeps NaN.
    with_backend(Backend::Avx2, || exp_fast_slice(&x, &mut out));
    for &i in &nan_lanes {
        if i < 16 {
            assert_eq!(out[i], exp_fast(-87.0), "AVX2 exp NaN lane {i}");
        } else {
            assert!(out[i].is_nan(), "AVX2 exp NaN tail {i} runs the scalar kernel");
        }
    }

    // tanh: the NaN lane clamps to -9, which saturates to -1.
    with_backend(Backend::Avx2, || tanh_fast_slice(&x, &mut out));
    for &i in &nan_lanes {
        if i < 16 {
            assert_eq!(out[i], -1.0, "AVX2 tanh NaN lane {i}");
        } else {
            assert!(out[i].is_nan(), "AVX2 tanh NaN tail {i} runs the scalar kernel");
        }
    }

    // gelu: the 0.5·x factor keeps NaN alive on every backend.
    with_backend(Backend::Avx2, || gelu_fast_slice(&x, &mut out));
    for &i in &nan_lanes {
        assert!(out[i].is_nan(), "AVX2 gelu NaN lane {i}");
    }
}
