//! SIMD consistency for the butterfly kernels: the batched forward and
//! backward must stay bit-identical to the seed reference kernels on every
//! backend (the lanes run mul-then-add in the same order as the scalar
//! loops), and the analytic gradients flowing through the lane backward must
//! survive gradcheck.
//!
//! Tests serialise on one lock because the forced backend is process-global.

use fab_butterfly::{butterfly_linear_op, butterfly_linear_padded_op, ButterflyMatrix};
use fab_tensor::simd::{self, with_backend, Backend};
use fab_tensor::{check_gradient, Tensor};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn simd_forward_and_backward_are_bit_identical_to_scalar_and_reference(
        log_n in 1usize..8, rows in 1usize..9, seed in 0u64..500
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

/// Finite differences through a batch that crosses tile boundaries (rows 8
/// and 16) and a chunk boundary (16 rows per chunk at n = 512), so the
/// checked weight gradient is a fold of lane partials plus a second chunk.
#[test]
fn gradcheck_across_tile_and_chunk_boundaries() {
    let _g = lock();
    let (n, rows, d_in, d_out) = (512usize, 19usize, 5usize, 7usize);
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
