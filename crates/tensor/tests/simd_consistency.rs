//! PR-4 property tests: every SIMD kernel must agree with the scalar oracle
//! across odd/prime lengths, unaligned tails and deliberately misaligned
//! slice offsets — bit-identically for the element-wise/butterfly kernels
//! (mul-then-add lanes, identical operation order) and within the documented
//! ≤ 1e-5 normalised tolerance for the FMA-contracted matmul and the
//! reduction-reordered row kernels — through the public entry points and
//! the `Tensor` ops on them. Arm by arm, every dispatched kernel is held to
//! its class by the differential table in `fab_tensor::simd`'s unit tests.
//!
//! All tests serialise on one lock because the forced backend is
//! process-global.

use fab_tensor::simd::{self, Backend};
use fab_tensor::Tensor;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
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

/// Small-magnitude deterministic data: keeps matmul partial-product sums
/// well-scaled so the 1e-5 normalised tolerance is meaningful.
fn data(n: usize, salt: usize) -> Vec<f32> {
    (0..n).map(|i| (((i * 131 + salt * 29) % 601) as f32) * 0.004 - 1.2).collect()
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max)
}

fn normalized_max_diff(a: &[f32], b: &[f32]) -> f32 {
    let scale = b.iter().fold(1.0f32, |m, &v| m.max(v.abs()));
    max_abs_diff(a, b) / scale
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simd_matmul_stays_within_1e5_of_scalar(m in 1usize..40, k in 1usize..60, n in 1usize..48) {
        let _g = lock();
        if !simd::default_backend().is_simd() { return Ok(()); }
        let a = Tensor::from_vec(data(m * k, 1), &[m, k]).expect("lhs");
        let b = Tensor::from_vec(data(k * n, 2), &[k, n]).expect("rhs");
        let scalar = with_backend(Backend::Scalar, || a.matmul(&b));
        let simd_out = with_backend(simd::default_backend(), || a.matmul(&b));
        let diff = normalized_max_diff(simd_out.as_slice(), scalar.as_slice());
        prop_assert!(diff <= 1e-5, "matmul {m}x{k}x{n} drifted {diff}");
    }

    #[test]
    fn simd_rowwise_kernels_stay_within_1e5_of_scalar(m in 1usize..24, n in 1usize..80) {
        let _g = lock();
        if !simd::default_backend().is_simd() { return Ok(()); }
        let x = Tensor::from_vec(data(m * n, 3), &[m, n]).expect("x");
        let gamma = Tensor::from_vec(data(n, 4), &[n]).expect("gamma");
        let beta = Tensor::from_vec(data(n, 5), &[n]).expect("beta");
        let scalar = with_backend(Backend::Scalar, || {
            (x.softmax_rows(), x.log_softmax_rows(), x.layer_norm_rows(&gamma, &beta, 1e-5))
        });
        let simd_out = with_backend(simd::default_backend(), || {
            (x.softmax_rows(), x.log_softmax_rows(), x.layer_norm_rows(&gamma, &beta, 1e-5))
        });
        for (name, s, v) in [
            ("softmax", &scalar.0, &simd_out.0),
            ("log_softmax", &scalar.1, &simd_out.1),
            ("layer_norm", &scalar.2, &simd_out.2),
        ] {
            let diff = normalized_max_diff(v.as_slice(), s.as_slice());
            prop_assert!(diff <= 1e-5, "{name} {m}x{n} drifted {diff}");
        }
    }

    #[test]
    fn simd_butterfly_stage_kernels_are_bit_identical(h in 1usize..70, salt in 0usize..100) {
        let _g = lock();
        if !simd::default_backend().is_simd() { return Ok(()); }
        // A single-block stage with `half == pairs == h`: odd/prime sizes
        // exercise the unaligned tail of the lane loop (real stages always
        // use power-of-two halves; the kernel promises more).
        let (w1, w2, w3, w4) =
            (data(h, salt), data(h, salt + 1), data(h, salt + 2), data(h, salt + 3));
        let src = data(2 * h, salt + 4);
        let run = |backend| {
            with_backend(backend, || {
                let mut x = src.clone();
                simd::butterfly_stage_in_place(h, &w1, &w2, &w3, &w4, &mut x);
                x
            })
        };
        prop_assert!(run(Backend::Scalar) == run(simd::default_backend()),
            "butterfly stage kernel diverged at h={h}");
    }
}

/// The PR-4 alignment regression test: `Tensor` storage is a plain
/// `Vec<f32>` with 4-byte alignment and the SIMD kernels promise correct
/// unaligned loads/stores, so slicing the same buffer at offsets 0–3 (and a
/// prime offset) must give offset-independent, scalar-identical results.
#[test]
fn kernels_handle_deliberately_misaligned_slice_offsets() {
    let _g = lock();
    if !simd::default_backend().is_simd() {
        return;
    }
    let n = 253usize;
    let backing = data(n + 16, 10);
    let gbacking = data(n + 16, 11);
    for off in [0usize, 1, 2, 3, 7, 13] {
        let x = &backing[off..off + n];
        let g = &gbacking[off..off + n];
        // Scalar oracle on the same (misaligned) slices.
        let (mut scalar_out, mut scalar_acc) = (vec![0.0f32; n], data(n, 12));
        with_backend(Backend::Scalar, || {
            fab_tensor::fastmath::gelu_fast_slice(x, &mut scalar_out);
            simd::gelu_grad_acc(&mut scalar_acc, g, x);
        });
        let (mut simd_out, mut simd_acc) = (vec![0.0f32; n], data(n, 12));
        // Misaligned destination too: write into an offset sub-slice.
        let mut dst_backing = vec![0.0f32; n + 16];
        fab_tensor::fastmath::gelu_fast_slice(x, &mut dst_backing[off..off + n]);
        simd_out.copy_from_slice(&dst_backing[off..off + n]);
        simd::gelu_grad_acc(&mut simd_acc, g, x);
        assert_eq!(simd_out, scalar_out, "gelu diverged at offset {off}");
        assert_eq!(simd_acc, scalar_acc, "gelu_grad_acc diverged at offset {off}");
        // Row kernels on the same offset slices (softmax uses reductions, so
        // compare within the documented tolerance).
        let mut srow = vec![0.0f32; n];
        let mut vrow = vec![0.0f32; n];
        with_backend(Backend::Scalar, || simd::softmax_row(x, &mut srow));
        simd::softmax_row(x, &mut vrow);
        assert!(max_abs_diff(&vrow, &srow) <= 1e-6, "softmax_row diverged at offset {off}");
    }
}

#[test]
fn matmul_band_matches_tensor_matmul_on_odd_bands() {
    let _g = lock();
    if !simd::default_backend().is_simd() {
        return;
    }
    // Directly exercise the public band kernel, including an i0 row offset
    // into the lhs — the shape the parallel band decomposition produces.
    let (m, k, n) = (11usize, 37usize, 23usize);
    let lhs = data(m * k, 13);
    let rhs = data(k * n, 14);
    let full = Tensor::from_vec(lhs.clone(), &[m, k])
        .expect("lhs")
        .matmul(&Tensor::from_vec(rhs.clone(), &[k, n]).expect("rhs"));
    let i0 = 4usize;
    let rows = m - i0;
    let mut band = vec![0.0f32; rows * n];
    simd::matmul_band(&lhs, k, &rhs, n, i0, &mut band);
    assert_eq!(
        band,
        full.as_slice()[i0 * n..],
        "matmul_band disagrees with the full kernel on a row band"
    );
}

/// Deterministic int8 data in `[-127, 127]` (the q8 kernel precondition).
fn q8_data(n: usize, salt: usize) -> Vec<i8> {
    (0..n).map(|i| (((i * 53 + salt * 31) % 255) as i32 - 127) as i8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Quantize → GEMM → dequantize round trip: the full int8 pipeline is
    // bit-identical across backends and approximates the f32 product.
    #[test]
    fn q8_pipeline_is_bit_identical_and_accurate(
        m in 1usize..10,
        n in 1usize..16,
        k in 8usize..80,
    ) {
        let _g = lock();
        if !simd::default_backend().is_simd() { return Ok(()); }
        let x = data(m * k, 21);
        let w = data(n * k, 22);
        let bias = data(n, 23);
        let x_scale = x.iter().fold(0.0f32, |a, &v| a.max(v.abs())).max(1e-12) / 127.0;
        let w_scale = w.iter().fold(0.0f32, |a, &v| a.max(v.abs())).max(1e-12) / 127.0;
        let combined = vec![x_scale * w_scale; n];
        let run = || {
            let mut qx = vec![0i8; m * k];
            let mut qw = vec![0i8; n * k];
            simd::q8_quantize_slice(&x, 1.0 / x_scale, &mut qx);
            simd::q8_quantize_slice(&w, 1.0 / w_scale, &mut qw);
            let mut acc = vec![0i32; m * n];
            simd::q8_gemm_i32(&qx, &qw, k, n, &mut acc);
            let mut out = vec![0.0f32; m * n];
            simd::q8_dequant_bias_rows(&acc, &combined, &bias, &mut out);
            out
        };
        let scalar = with_backend(Backend::Scalar, run);
        let vect = with_backend(simd::default_backend(), run);
        prop_assert_eq!(&scalar, &vect);
        // Against the exact f32 product: per-element quantization error is
        // bounded by the two step sizes over the k-sum.
        for i in 0..m {
            for j in 0..n {
                let exact: f32 = (0..k).map(|p| x[i * k + p] * w[j * k + p]).sum::<f32>() + bias[j];
                let bound = (k as f32).sqrt() * 2.0 * 127.0 * x_scale * w_scale + 1e-4;
                prop_assert!(
                    (scalar[i * n + j] - exact).abs() <= bound,
                    "int8 result {} too far from f32 {exact} (bound {bound})",
                    scalar[i * n + j]
                );
            }
        }
    }
}

#[test]
fn q8_kernels_handle_deliberately_misaligned_slice_offsets() {
    let _g = lock();
    if !simd::default_backend().is_simd() {
        return;
    }
    // Sub-slices at byte offsets 0-3/7/13 relative to the allocation: every
    // q8 vector access must be an unaligned load/store, exactly like the f32
    // kernels.
    let (m, n, k) = (3usize, 5usize, 67usize);
    for off in [0usize, 1, 2, 3, 7, 13] {
        let abuf = q8_data(off + m * k, 3);
        let bbuf = q8_data(off + n * k, 4);
        let (a, bt) = (&abuf[off..], &bbuf[off..]);
        let mut scalar = vec![0i32; m * n];
        let mut vect = vec![0i32; m * n];
        with_backend(Backend::Scalar, || simd::q8_gemm_i32(a, bt, k, n, &mut scalar));
        with_backend(simd::default_backend(), || simd::q8_gemm_i32(a, bt, k, n, &mut vect));
        assert_eq!(scalar, vect, "q8_gemm_i32 diverged at offset {off}");

        let fbuf = data(off + m * k, 5);
        let src = &fbuf[off..];
        let mut qs = vec![0i8; off + m * k];
        let mut qv = vec![0i8; off + m * k];
        with_backend(Backend::Scalar, || {
            simd::q8_quantize_slice(src, 101.0, &mut qs[off..]);
        });
        with_backend(simd::default_backend(), || {
            simd::q8_quantize_slice(src, 101.0, &mut qv[off..]);
        });
        assert_eq!(qs, qv, "q8_quantize_slice diverged at offset {off}");
    }
}

#[test]
fn scalar_backend_matches_env_override() {
    let _g = lock();
    // `force_backend(Scalar)` and the `FAB_SIMD=scalar` startup path select
    // the same backend object; the CI scalar matrix leg runs the whole suite
    // under the env var, this test pins the in-process equivalent.
    with_backend(Backend::Scalar, || {
        assert_eq!(simd::backend(), Backend::Scalar);
        assert_eq!(simd::backend().name(), "scalar");
        assert_eq!(simd::backend().lanes(), 1);
    });
}

// -- lane-per-row butterfly engine ---------------------------------------------

/// Equal bits, or both NaN: which NaN payload survives `w1·a + w2·b` is the
/// one thing the compiler may decide differently per backend.
fn same_bits_or_both_nan(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// The values every kernel must carry through unharmed or combine the same
/// way on every backend.
const SPECIALS: [f32; 8] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    -0.0,
    0.0,
    1.0e-41,  // denormal
    -3.0e-39, // denormal
    f32::MAX,
];

/// `data` with the special values planted at scattered positions.
fn data_with_specials(n: usize, salt: usize) -> Vec<f32> {
    let mut v = data(n, salt);
    for (k, s) in SPECIALS.iter().enumerate() {
        if n > 0 {
            v[(k * 37 + salt * 5) % n] = *s;
        }
    }
    v
}

/// Tile widths on, below and beyond every backend's lane count, and
/// multiples of 16 beyond it (the AVX-512 arm's widths).
const WIDTHS: &[usize] = &[1, 3, 4, 7, 8, 9, 16, 24, 32, 48];
/// Offsets of the sub-slices the kernels are handed (4-byte alignment only).
const OFFSETS: &[usize] = &[0, 1, 3, 7];

#[test]
fn lane_transposes_match_their_index_definition_at_every_shape_and_offset() {
    let _g = lock();
    let bitrev4 = [0usize, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15];
    for backend in [Backend::Scalar, simd::default_backend()] {
        for &width in WIDTHS {
            for &off in OFFSETS {
                for rows in [0, 1, width / 2, width] {
                    for (cols, stride, perm) in
                        [(16usize, 16usize, &bitrev4[..]), (21, 29, &[][..]), (5, 5, &[][..])]
                    {
                        let src_back = data_with_specials(off + width * stride, width + off);
                        let src = &src_back[off..];
                        let mut dst_back = vec![7.0f32; off + cols * width];
                        with_backend(backend, || {
                            simd::rows_to_lanes(
                                src,
                                stride,
                                rows,
                                cols,
                                perm,
                                &mut dst_back[off..],
                                width,
                            )
                        });
                        let tile = &dst_back[off..];
                        for c in 0..cols {
                            let at = if perm.is_empty() { c } else { perm[c] };
                            for r in 0..width {
                                let want = if r < rows { src[r * stride + c] } else { 0.0 };
                                assert_eq!(
                                    tile[at * width + r].to_bits(),
                                    want.to_bits(),
                                    "rows_to_lanes width={width} rows={rows} cols={cols} off={off}"
                                );
                            }
                        }

                        // And back, with and without the epilogue.
                        let bias = data_with_specials(cols, 3);
                        for (bias, gelu) in
                            [(&[][..], false), (&bias[..], false), (&bias[..], true)]
                        {
                            let mut out_back = vec![7.0f32; off + width * stride];
                            with_backend(backend, || {
                                simd::lanes_to_rows(
                                    tile,
                                    width,
                                    rows,
                                    cols,
                                    bias,
                                    gelu,
                                    &mut out_back[off..],
                                    stride,
                                )
                            });
                            let out = &out_back[off..];
                            for r in 0..rows {
                                for c in 0..cols {
                                    let y = tile[c * width + r];
                                    let y = if bias.is_empty() { y } else { y + bias[c] };
                                    let want =
                                        if gelu { fab_tensor::fastmath::gelu_fast(y) } else { y };
                                    assert!(
                                        same_bits_or_both_nan(&[out[r * stride + c]], &[want]),
                                        "lanes_to_rows width={width} rows={rows} cols={cols} \
                                         off={off} gelu={gelu}: {} vs {want}",
                                        out[r * stride + c]
                                    );
                                }
                            }
                            // Nothing outside the `rows × cols` window is written.
                            for (i, v) in out.iter().enumerate() {
                                if i / stride >= rows || i % stride >= cols {
                                    assert_eq!(*v, 7.0, "lanes_to_rows wrote outside its window");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn butterfly_stage_lanes_is_the_per_vector_stage_in_every_column() {
    let _g = lock();
    for &width in WIDTHS {
        for &off in OFFSETS {
            for (pairs, half) in [(1usize, 1usize), (4, 1), (4, 2), (4, 4), (16, 4), (64, 16)] {
                let n = 2 * pairs;
                let w: Vec<Vec<f32>> =
                    (0..4).map(|k| data_with_specials(pairs, k + width)).collect();
                let back = data_with_specials(off + n * width, half + off);
                let run = |backend| {
                    let mut x = back.clone();
                    with_backend(backend, || {
                        simd::butterfly_stage_lanes(
                            half,
                            &w[0],
                            &w[1],
                            &w[2],
                            &w[3],
                            &mut x[off..],
                            width,
                        )
                    });
                    x
                };
                let (scalar, native) = (run(Backend::Scalar), run(simd::default_backend()));
                assert!(
                    same_bits_or_both_nan(&scalar, &native),
                    "backends diverged at width={width} pairs={pairs} half={half} off={off}"
                );
                // Column by column it is the existing per-vector stage kernel.
                for col in 0..width {
                    let mut v: Vec<f32> = (0..n).map(|i| back[off + i * width + col]).collect();
                    with_backend(Backend::Scalar, || {
                        simd::butterfly_stage_in_place(half, &w[0], &w[1], &w[2], &w[3], &mut v)
                    });
                    let got: Vec<f32> = (0..n).map(|i| native[off + i * width + col]).collect();
                    assert!(
                        same_bits_or_both_nan(&got, &v),
                        "column {col} diverged at width={width} pairs={pairs} half={half}"
                    );
                }
            }
        }
    }
}

/// The reverse stage against its definition, column by column: the four
/// `g · input` products added to the pair's accumulators in that column and
/// nowhere else, the gradient replaced by the transposed 2×2 map — on every
/// backend, width and offset, special values included.
#[test]
fn butterfly_stage_backward_lanes_is_the_per_pair_definition_in_every_column() {
    let _g = lock();
    for width in 1..=24 {
        for &off in OFFSETS {
            for (pairs, half) in [(1usize, 1usize), (4, 1), (4, 2), (4, 4), (16, 4), (64, 16)] {
                let n = 2 * pairs;
                let w: Vec<Vec<f32>> =
                    (0..4).map(|k| data_with_specials(pairs, k + width)).collect();
                let input = data_with_specials(off + n * width, half + off);
                let grad0 = data_with_specials(off + n * width, half + off + 1);
                let acc0 = data_with_specials(off + 2 * n * width, pairs + off);
                let run = |backend| {
                    let (mut grad, mut acc) = (grad0.clone(), acc0.clone());
                    with_backend(backend, || {
                        simd::butterfly_stage_backward_lanes(
                            half,
                            &w[0],
                            &w[1],
                            &w[2],
                            &w[3],
                            &input[off..],
                            &mut grad[off..],
                            &mut acc[off..],
                            width,
                        )
                    });
                    (grad, acc)
                };
                let (scalar, native) = (run(Backend::Scalar), run(simd::default_backend()));
                assert!(
                    same_bits_or_both_nan(&scalar.0, &native.0)
                        && same_bits_or_both_nan(&scalar.1, &native.1),
                    "backends diverged at width={width} pairs={pairs} half={half} off={off}"
                );
                let (mut want_grad, mut want_acc) = (grad0.clone(), acc0.clone());
                for p in 0..pairs {
                    let i1 = (p / half) * 2 * half + p % half;
                    let i2 = i1 + half;
                    for c in 0..width {
                        let (lo, hi) = (off + i1 * width + c, off + i2 * width + c);
                        let (a, b, g1, g2) = (input[lo], input[hi], grad0[lo], grad0[hi]);
                        for (k, product) in [g1 * a, g1 * b, g2 * a, g2 * b].into_iter().enumerate()
                        {
                            want_acc[off + (4 * p + k) * width + c] += product;
                        }
                        want_grad[lo] = w[0][p] * g1 + w[2][p] * g2;
                        want_grad[hi] = w[1][p] * g1 + w[3][p] * g2;
                    }
                }
                assert!(
                    same_bits_or_both_nan(&native.0, &want_grad)
                        && same_bits_or_both_nan(&native.1, &want_acc),
                    "definition mismatch at width={width} pairs={pairs} half={half} off={off}"
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "butterfly_stage_backward_lanes length mismatch")]
fn butterfly_stage_backward_lanes_rejects_short_accumulators() {
    let w = [0.0f32; 4];
    let (input, mut grad, mut acc) = ([0.0f32; 64], [0.0f32; 64], [0.0f32; 127]);
    simd::butterfly_stage_backward_lanes(2, &w, &w, &w, &w, &input, &mut grad, &mut acc, 8);
}

/// Stage-major twiddle tables of an `n`-point transform.
fn twiddles(n: usize) -> (Vec<f32>, Vec<f32>) {
    let (mut re, mut im) = (Vec::new(), Vec::new());
    let mut half = 1;
    while half < n {
        for k in 0..half {
            let theta = -std::f32::consts::PI * k as f32 / half as f32;
            re.push(theta.cos());
            im.push(theta.sin());
        }
        half *= 2;
    }
    (re, im)
}

fn bit_reverse(i: usize, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        i.reverse_bits() >> (usize::BITS - bits)
    }
}

/// The whole real-input pipeline of one column — pack, bit-reverse, stages,
/// split — against an `f64` DFT, on every backend, width and offset.
#[test]
fn fft_lane_kernels_compute_the_real_input_dft_of_every_column() {
    let _g = lock();
    for m in [1usize, 2, 4, 16, 64] {
        let (tw_re, tw_im) = twiddles(2 * m);
        for &width in WIDTHS {
            for &off in OFFSETS {
                let x: Vec<f32> = data(2 * m * width, m + width);
                let run = |backend| {
                    let mut re = vec![0.0f32; off + (m + 1) * width];
                    let mut im = re.clone();
                    for j in 0..m {
                        let src = 2 * bit_reverse(j, m.trailing_zeros());
                        for c in 0..width {
                            re[off + j * width + c] = x[src * width + c];
                            im[off + j * width + c] = x[(src + 1) * width + c];
                        }
                    }
                    with_backend(backend, || {
                        let (r, i) = (&mut re[off..], &mut im[off..]);
                        simd::fft_stages_lanes(
                            &tw_re,
                            &tw_im,
                            &mut r[..m * width],
                            &mut i[..m * width],
                            width,
                        );
                        simd::fft_real_split_lanes(&tw_re[m - 1..], &tw_im[m - 1..], r, i, width);
                    });
                    (re, im)
                };
                let scalar = run(Backend::Scalar);
                let native = run(simd::default_backend());
                assert!(scalar == native, "fft lanes diverged at m={m} width={width} off={off}");
                let scale = (2 * m) as f64;
                for c in 0..width {
                    for k in 0..=m {
                        let (mut er, mut ei) = (0.0f64, 0.0f64);
                        for j in 0..2 * m {
                            let theta = -std::f64::consts::PI * (k * j) as f64 / m as f64;
                            er += x[j * width + c] as f64 * theta.cos();
                            ei += x[j * width + c] as f64 * theta.sin();
                        }
                        let (gr, gi) =
                            (native.0[off + k * width + c], native.1[off + k * width + c]);
                        assert!(
                            (gr as f64 - er).abs() <= 1e-5 * scale
                                && (gi as f64 - ei).abs() <= 1e-5 * scale,
                            "m={m} width={width} column {c} bin {k}: ({gr}, {gi}) vs ({er}, {ei})"
                        );
                    }
                }
            }
        }
    }
}

/// Non-finite and denormal inputs through the FFT lanes: whatever comes
/// out, every backend agrees on it.
#[test]
fn fft_lane_kernels_agree_across_backends_on_special_values() {
    let _g = lock();
    let m = 8;
    let (tw_re, tw_im) = twiddles(2 * m);
    for &width in WIDTHS {
        let (re0, im0) =
            (data_with_specials((m + 1) * width, 1), data_with_specials((m + 1) * width, 2));
        let run = |backend| {
            let (mut re, mut im) = (re0.clone(), im0.clone());
            with_backend(backend, || {
                simd::fft_stages_lanes(
                    &tw_re,
                    &tw_im,
                    &mut re[..m * width],
                    &mut im[..m * width],
                    width,
                );
                simd::fft_real_split_lanes(
                    &tw_re[m - 1..],
                    &tw_im[m - 1..],
                    &mut re,
                    &mut im,
                    width,
                );
            });
            (re, im)
        };
        let (scalar, native) = (run(Backend::Scalar), run(simd::default_backend()));
        assert!(
            same_bits_or_both_nan(&scalar.0, &native.0)
                && same_bits_or_both_nan(&scalar.1, &native.1),
            "fft lanes diverged on special values at width={width}"
        );
    }
}

#[test]
#[should_panic(expected = "rows_to_lanes permutation out of range")]
fn rows_to_lanes_rejects_a_permutation_that_leaves_the_tile() {
    let mut dst = vec![0.0f32; 4 * 8];
    simd::rows_to_lanes(&[0.0; 32], 4, 8, 4, &[0, 1, 2, 4], &mut dst, 8);
}

#[test]
#[should_panic(expected = "lanes_to_rows dst too short")]
fn lanes_to_rows_rejects_a_short_destination() {
    let mut dst = vec![0.0f32; 8 * 4 - 1];
    simd::lanes_to_rows(&[0.0; 32], 8, 8, 4, &[], false, &mut dst, 4);
}
