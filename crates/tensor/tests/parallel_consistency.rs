//! PR-1 property tests: the blocked/parallel tensor kernels must agree with
//! the serial seed reference across awkward (odd, non-power-of-two) shapes
//! and across worker-thread counts, including `RAYON_NUM_THREADS=1`.
//!
//! Since PR 4 the kernels dispatch onto the `fab_tensor::simd` backend: on
//! the scalar backend the bit-identity guarantees of PR 1 hold unchanged; on
//! a SIMD backend FMA contraction legitimately changes matmul rounding, so
//! those assertions compare against the scalar oracle with the documented
//! ≤ 1e-5 relative tolerance instead. Every test serialises on one lock
//! because both `RAYON_NUM_THREADS` and the forced backend are process-global.

use fab_tensor::simd::{self, Backend};
use fab_tensor::{Tensor, PAR_GRAIN_OPS};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serialises tests that depend on process-global state (`RAYON_NUM_THREADS`,
/// the forced SIMD backend).
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// An odd row count at which a `cols`-wide tensor holds at least
/// [`PAR_GRAIN_OPS`] elements. Every kernel counts at least one operation
/// per element, so such a tensor takes the parallel path wherever the grain
/// is moved — the thread-count comparisons below can never silently become
/// serial-vs-serial.
fn grain_rows(cols: usize) -> usize {
    (PAR_GRAIN_OPS as usize).div_ceil(cols) | 1
}

/// A row count of at least `at_least` at which an `[m, k] x [k, n]` matmul
/// (2·m·k·n operations) crosses the grain.
fn grain_matmul_rows(at_least: usize, k: usize, n: usize) -> usize {
    at_least.max((PAR_GRAIN_OPS as usize).div_ceil(2 * k * n))
}

/// Runs `f` on backend `b`, then puts the previous backend back — also when
/// `f` panics, so a failed test leaves no backend forced for the next one.
fn with_backend<R>(b: Backend, f: impl FnOnce() -> R) -> R {
    struct Restore(Backend);
    impl Drop for Restore {
        fn drop(&mut self) {
            simd::force_backend(self.0);
        }
    }
    let _restore = Restore(simd::backend());
    simd::force_backend(b);
    f()
}

fn filled(shape: &[usize], salt: usize) -> Tensor {
    let volume: usize = shape.iter().product();
    Tensor::from_vec(
        (0..volume).map(|i| (((i * 31 + salt * 17) % 997) as f32) * 0.013 - 6.3).collect(),
        shape,
    )
    .expect("valid shape")
}

/// Max elementwise difference normalised by the reference magnitude — the
/// PR-4 tolerance metric for FMA-contracted kernels.
fn normalized_max_diff(a: &Tensor, b: &Tensor) -> f32 {
    let scale = b.as_slice().iter().fold(1.0f32, |m, &v| m.max(v.abs()));
    a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y).abs() / scale).fold(0.0f32, f32::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_matmul_matches_reference(m in 1usize..48, k in 1usize..70, n in 1usize..50) {
        let _g = lock();
        let a = filled(&[m, k], 1);
        let b = filled(&[k, n], 2);
        // Scalar backend: bit-identical to the seed triple loop, as in PR 1.
        let (fast, slow) = with_backend(Backend::Scalar, || (a.matmul(&b), a.matmul_reference(&b)));
        prop_assert!(fast == slow, "scalar blocked matmul diverged at {m}x{k}x{n}");
        // SIMD backend: within the documented 1e-5 of the scalar oracle.
        let simd_out = a.matmul(&b);
        let diff = normalized_max_diff(&simd_out, &slow);
        prop_assert!(diff <= 1e-5, "SIMD matmul off by {diff} at {m}x{k}x{n}");
    }

    #[test]
    fn rowwise_kernels_are_partition_invariant(m in 1usize..40, n in 1usize..40) {
        // Computing the whole batch at once must give the same bits as
        // computing each row on its own — which is exactly what the parallel
        // chunking relies on. This holds in every backend because the row
        // kernel itself is partition-independent.
        let _g = lock();
        let x = filled(&[m, n], 3);
        let soft = x.softmax_rows();
        let gamma = filled(&[n], 4);
        let beta = filled(&[n], 5);
        let ln = x.layer_norm_rows(&gamma, &beta, 1e-5);
        for r in 0..m {
            let row = x.slice_rows(r, r + 1);
            prop_assert!(soft.slice_rows(r, r + 1) == row.softmax_rows());
            prop_assert!(ln.slice_rows(r, r + 1) == row.layer_norm_rows(&gamma, &beta, 1e-5));
        }
    }

    #[test]
    fn transpose_involution_holds_for_odd_shapes(m in 1usize..90, n in 1usize..90) {
        let _g = lock();
        let a = filled(&[m, n], 6);
        prop_assert!(a.transpose().transpose() == a);
    }
}

#[test]
fn large_kernels_cross_the_parallel_threshold_and_stay_exact() {
    let _g = lock();
    // Odd-shaped, several 64-row bands, and past the fan-out grain.
    let a = filled(&[grain_matmul_rows(300, 257, 129), 257], 7);
    let b = filled(&[257, 129], 8);
    let (fast, slow) = with_backend(Backend::Scalar, || (a.matmul(&b), a.matmul_reference(&b)));
    assert!(fast == slow, "scalar parallel matmul diverged from the reference");
    let diff = normalized_max_diff(&a.matmul(&b), &slow);
    assert!(diff <= 1e-5, "SIMD parallel matmul off by {diff}");

    let rows = grain_rows(129);
    let x = filled(&[rows, 129], 9);
    let soft = x.softmax_rows();
    for r in (0..rows).step_by(rows / 8) {
        assert!(soft.slice_rows(r, r + 1) == x.slice_rows(r, r + 1).softmax_rows());
    }
    assert!(x.transpose().transpose() == x);
}

#[test]
fn zero_lhs_elements_skip_non_finite_rhs_rows_like_the_reference() {
    let _g = lock();
    // A zero lhs element sharing an unroll group (scalar) or register tile
    // row (SIMD) with nonzero ones must still skip its rhs row entirely:
    // `0.0 * inf` would inject NaN where the reference (which skips zero
    // terms) stays finite. Both backends keep the skip.
    let a = Tensor::from_vec(vec![0.0, 1.0, 1.0, 1.0, 2.0, 3.0], &[1, 6]).expect("lhs");
    let mut b_data = vec![1.0f32; 6 * 4];
    b_data[0] = f32::INFINITY;
    b_data[1] = f32::NAN;
    let b = Tensor::from_vec(b_data, &[6, 4]).expect("rhs");
    let slow = a.matmul_reference(&b);
    for backend in [Backend::Scalar, simd::default_backend()] {
        let fast = with_backend(backend, || a.matmul(&b));
        assert!(
            fast.as_slice().iter().all(|v| v.is_finite()),
            "{} kernel injected NaN/inf",
            backend.name()
        );
        assert!(fast == slow, "zero-skip semantics diverged on {}", backend.name());
    }
}

#[test]
fn kernels_match_reference_with_a_single_rayon_thread() {
    let _g = lock();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let a = filled(&[grain_matmul_rows(130, 127, 140), 127], 10);
    let b = filled(&[127, 140], 11);
    let serial = a.matmul(&b);
    std::env::remove_var("RAYON_NUM_THREADS");
    let parallel = a.matmul(&b);
    assert!(serial == parallel, "thread count changed matmul results");
    let scalar_ref = with_backend(Backend::Scalar, || a.matmul_reference(&b));
    let diff = normalized_max_diff(&serial, &scalar_ref);
    assert!(diff <= 1e-5, "matmul drifted {diff} from the scalar reference");
}

#[test]
fn kernels_match_reference_with_many_rayon_threads() {
    let _g = lock();
    std::env::set_var("RAYON_NUM_THREADS", "7");
    let x = filled(&[grain_rows(65), 65], 12);
    let many = x.softmax_rows();
    let gamma = filled(&[65], 13);
    let beta = filled(&[65], 14);
    let ln_many = x.layer_norm_rows(&gamma, &beta, 1e-5);
    std::env::remove_var("RAYON_NUM_THREADS");
    assert!(many == x.softmax_rows());
    assert!(ln_many == x.layer_norm_rows(&gamma, &beta, 1e-5));
}
