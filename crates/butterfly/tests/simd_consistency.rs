//! SIMD consistency for the butterfly kernels: the batched forward and
//! backward must stay bit-identical to the seed reference kernels on every
//! backend (the lanes run mul-then-add in the same order as the scalar
//! loops), and the analytic gradients flowing through the lane backward must
//! survive gradcheck.
//!
//! Tests serialise on one lock because the forced backend is process-global.

use fab_butterfly::{butterfly_linear_op, butterfly_linear_padded_op, ButterflyMatrix};
use fab_tensor::simd::{self, with_backend, Backend};
use fab_tensor::{check_gradient, with_rayon_threads, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn filled(shape: &[usize], salt: usize) -> Tensor {
    let volume: usize = shape.iter().product();
    Tensor::from_vec(
        (0..volume).map(|i| (((i * 53 + salt * 19) % 331) as f32) * 0.009 - 1.5).collect(),
        shape,
    )
    .expect("valid shape")
}

/// Row counts on both sides of the backward's 16-row tile and of a chunk's
/// four tiles.
const ROWS: [usize; 8] = [1, 15, 16, 17, 31, 33, 64, 65];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `t` with every fifth value `+0.0` and every seventh `-0.0`.
fn signed_zeros(t: &Tensor) -> Tensor {
    let mut t = t.clone();
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        if i % 5 == 0 {
            *v = 0.0;
        } else if i % 7 == 0 {
            *v = -0.0;
        }
    }
    t
}

/// `backward_rows_padded_into` into zeroed buffers: `(dx, dw)`.
fn padded_backward(b: &ButterflyMatrix, x: &Tensor, g: &Tensor) -> (Vec<f32>, Vec<f32>) {
    let (mut dx, mut dw) = (vec![0.0f32; x.rows() * x.cols()], vec![0.0f32; b.num_params()]);
    b.backward_rows_padded_into(x, g, &mut dx, &mut dw);
    (dx, dw)
}

/// The padded backward's oracle: both pads materialised, the scalar per-row
/// reference, `dx` cut back to the `d_in` columns that exist.
fn padded_oracle(b: &ButterflyMatrix, x: &Tensor, g: &Tensor) -> (Vec<f32>, Vec<f32>) {
    let (n, rows) = (b.size(), x.rows());
    let pad = |t: &Tensor| {
        let mut p = Tensor::zeros(&[rows, n]);
        for (prow, row) in p.as_mut_slice().chunks_mut(n).zip(t.as_slice().chunks(t.cols())) {
            prow[..t.cols()].copy_from_slice(row);
        }
        p
    };
    let (gx, gw) = b.backward_rows_reference(&pad(x), &pad(g));
    let dx = gx.as_slice().chunks(n).flat_map(|row| row[..x.cols()].to_vec()).collect();
    (dx, gw.into_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn simd_forward_and_backward_are_bit_identical_to_scalar_and_reference(
        log_n in 1usize..13, rows in (0..ROWS.len()).prop_map(|i| ROWS[i]), seed in 0u64..500
    ) {
        let _g = lock();
        let n = 1 << log_n;
        let bfly = ButterflyMatrix::random(n, &mut StdRng::seed_from_u64(seed)).expect("size");
        let x = filled(&[rows, n], 1);
        let grad = filled(&[rows, n], 2);
        let run = |backend| {
            with_backend(backend, || {
                (bfly.forward_rows(&x), bfly.backward_rows(&x, &grad))
            })
        };
        let scalar = run(Backend::Scalar);
        let native = run(simd::default_backend());
        prop_assert!(scalar == native, "butterfly stages diverged across backends at n={n}");
        // And both match the seed reference kernels bit for bit.
        let reference = bfly.backward_rows_reference(&x, &grad);
        prop_assert!(native.1 == reference, "lane backward diverged from the seed oracle");
        // Padded and truncated, with signed zeros in the data and weights
        // that are not finite, on 1, 2 and 5 threads: the oracle's bits.
        let mut w = bfly.to_weight_tensor();
        let (stages, cols) = (w.rows(), w.cols());
        for (i, v) in [f32::INFINITY, f32::NEG_INFINITY, f32::from_bits(0xFFC0_0000)].into_iter().enumerate() {
            w.set((seed as usize + i) % stages, (seed as usize * 7 + 3 * i) % cols, v);
        }
        let wild = ButterflyMatrix::from_weight_tensor(&w).expect("same shape");
        let widths = [1, (n / 4).max(1), n / 4 + 1, n / 2 + 1, n];
        for (k, b) in [&bfly, &wild].into_iter().enumerate() {
            for (d_in, d_out) in widths.iter().zip(widths.iter().rev()).map(|(&i, &o)| (i.min(n), o.min(n))) {
                let x = signed_zeros(&filled(&[rows, d_in], 3 + k));
                let g = signed_zeros(&filled(&[rows, d_out], 4 + k));
                let oracle = padded_oracle(b, &x, &g);
                for backend in [Backend::Scalar, simd::default_backend()] {
                    for threads in [1, 2, 5] {
                        let got = with_backend(backend, || {
                            with_rayon_threads(threads, || padded_backward(b, &x, &g))
                        });
                        prop_assert!(
                            bits(&got.0) == bits(&oracle.0) && bits(&got.1) == bits(&oracle.1),
                            "n={n} rows={rows} {d_in}/{d_out} finite={} {} threads={threads}",
                            k == 0,
                            backend.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gradcheck_through_simd_backward_stages(log_n in 2usize..6, rows in 1usize..4) {
        let _g = lock();
        if !simd::default_backend().is_simd() { return Ok(()); }
        let n = 1 << log_n;
        let bfly = ButterflyMatrix::random(n, &mut StdRng::seed_from_u64(7)).expect("size");
        let w = bfly.to_weight_tensor();
        let x = filled(&[rows, n], 3);
        // d/dx through the lane backward.
        prop_assert!(check_gradient(
            |tape, v| {
                let wv = tape.leaf(w.clone());
                let y = butterfly_linear_op(tape, v, wv);
                tape.sum(y)
            },
            &x,
            1e-2
        ));
        // d/dw through the lane backward (weights as the checked leaf).
        prop_assert!(check_gradient(
            |tape, v| {
                let xv = tape.leaf(x.clone());
                let y = butterfly_linear_op(tape, xv, v);
                tape.sum(y)
            },
            &w,
            1e-2
        ));
    }
}

#[test]
fn gradcheck_through_simd_padded_butterfly() {
    let _g = lock();
    // The fused pad + truncate op drives the padded lane backward.
    let n = 16usize;
    let (d_in, d_out) = (11usize, 9usize);
    let bfly = ButterflyMatrix::random(n, &mut StdRng::seed_from_u64(11)).expect("size");
    let w = bfly.to_weight_tensor();
    let x = filled(&[3, d_in], 4);
    assert!(check_gradient(
        |tape, v| {
            let wv = tape.leaf(w.clone());
            let y = butterfly_linear_padded_op(tape, v, wv, d_out);
            tape.sum(y)
        },
        &x,
        1e-2
    ));
}

/// Finite differences through batches that cross tile boundaries (every 16
/// rows, the last tile partial) and a chunk boundary (64 rows per chunk at
/// n = 512), so the checked weight gradient is a fold of lane partials plus
/// a second chunk.
#[test]
fn gradcheck_across_tile_and_chunk_boundaries() {
    let _g = lock();
    for rows in [19usize, 67] {
        let (n, d_in, d_out) = (512usize, 5usize, 7usize);
        let bfly = ButterflyMatrix::random(n, &mut StdRng::seed_from_u64(13)).expect("size");
        let w = bfly.to_weight_tensor();
        let x = filled(&[rows, d_in], 5);
        let mask = filled(&[rows, d_out], 6);
        let loss = |tape: &fab_tensor::Tape, xv, wv| {
            let y = butterfly_linear_padded_op(tape, xv, wv, d_out);
            let m = tape.leaf(mask.clone());
            tape.sum(tape.mul(y, m))
        };
        assert!(check_gradient(|tape, v| loss(tape, v, tape.leaf(w.clone())), &x, 1e-2));
        assert!(check_gradient(|tape, v| loss(tape, tape.leaf(x.clone()), v), &w, 1e-2));
    }
}
