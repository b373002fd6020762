//! PR-1 property tests: the batched butterfly and FFT kernels must agree
//! with the per-vector seed path across odd row counts and worker-thread
//! counts, including `RAYON_NUM_THREADS=1`.

use fab_butterfly::fft::{fft, fft2_real};
use fab_butterfly::flops::{butterfly_linear_flops, fourier_mix_flops};
use fab_butterfly::{ButterflyMatrix, Complex};
use fab_tensor::{Tensor, PAR_GRAIN_OPS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serialises tests that mutate `RAYON_NUM_THREADS`, which is process-global.
static THREAD_ENV_LOCK: Mutex<()> = Mutex::new(());

fn filled(rows: usize, n: usize, salt: usize) -> Tensor {
    Tensor::from_vec(
        (0..rows * n).map(|i| (((i * 29 + salt * 13) % 991) as f32) * 0.011 - 5.4).collect(),
        &[rows, n],
    )
    .expect("valid shape")
}

/// An odd row count at which one size-`n` butterfly pass (the forward; the
/// backward counts three) reaches [`PAR_GRAIN_OPS`] — derived from the shared
/// constant so that moving the grain cannot silently turn the thread-count
/// comparisons below into serial-vs-serial.
fn grain_rows(n: usize) -> usize {
    (PAR_GRAIN_OPS.div_ceil(butterfly_linear_flops(1, n)) as usize) | 1
}

/// Reference 2-D real FFT built from 1-D transforms and an explicit strided
/// column walk (the seed's formulation).
fn fft2_real_reference(x: &[f32], seq: usize, hidden: usize) -> Vec<f32> {
    let mut grid: Vec<Complex> = x.iter().map(|&v| Complex::from(v)).collect();
    for r in 0..seq {
        let row: Vec<Complex> = fft(&grid[r * hidden..(r + 1) * hidden]);
        grid[r * hidden..(r + 1) * hidden].copy_from_slice(&row);
    }
    for c in 0..hidden {
        let col: Vec<Complex> = (0..seq).map(|r| grid[r * hidden + c]).collect();
        let col = fft(&col);
        for (r, v) in col.into_iter().enumerate() {
            grid[r * hidden + c] = v;
        }
    }
    grid.iter().map(|v| v.re).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batched_forward_rows_matches_per_vector_forward(rows in 1usize..33, log_n in 1u32..7, seed in 0u64..500) {
        let n = 1usize << log_n;
        let mut rng = StdRng::seed_from_u64(seed);
        let bfly = ButterflyMatrix::random(n, &mut rng).unwrap();
        let x = filled(rows, n, seed as usize);
        let batched = bfly.forward_rows(&x);
        for r in 0..rows {
            let row: Vec<f32> = x.as_slice()[r * n..(r + 1) * n].to_vec();
            let reference = bfly.forward(&row);
            let got = &batched.as_slice()[r * n..(r + 1) * n];
            prop_assert!(got == reference.as_slice(), "row {r} diverged for {rows}x{n}");
        }
    }

    #[test]
    fn batched_backward_rows_matches_per_vector_backward(rows in 1usize..17, log_n in 1u32..6, seed in 0u64..500) {
        let n = 1usize << log_n;
        let mut rng = StdRng::seed_from_u64(seed);
        let bfly = ButterflyMatrix::random(n, &mut rng).unwrap();
        let x = filled(rows, n, seed as usize);
        let g = filled(rows, n, seed as usize + 1);
        let (grad_x, grad_w) = bfly.backward_rows(&x, &g);
        let mut grad_w_reference = Tensor::zeros(&[bfly.num_stages(), 2 * n]);
        for r in 0..rows {
            let xrow = &x.as_slice()[r * n..(r + 1) * n];
            let grow = &g.as_slice()[r * n..(r + 1) * n];
            let (gx, gw) = bfly.backward(xrow, grow);
            prop_assert!(
                grad_x.as_slice()[r * n..(r + 1) * n] == gx[..],
                "input gradient row {r} diverged"
            );
            grad_w_reference = grad_w_reference.add(&gw);
        }
        // Weight gradients are reduced chunk-wise, so summation order (and
        // hence the last float bits) may differ from the running per-row sum.
        prop_assert!(grad_w.allclose(&grad_w_reference, 1e-4), "weight gradients diverged");
    }

    #[test]
    fn parallel_fft2_matches_strided_reference(log_seq in 2u32..6, log_hid in 1u32..6, seed in 0u64..200) {
        let (seq, hidden) = (1usize << log_seq, 1usize << log_hid);
        let x: Vec<f32> = (0..seq * hidden)
            .map(|i| (((i * 37 + seed as usize * 11) % 613) as f32) * 0.017 - 5.2)
            .collect();
        let fast = fft2_real(&x, seq, hidden);
        let reference = fft2_real_reference(&x, seq, hidden);
        for (a, b) in fast.iter().zip(reference.iter()) {
            prop_assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }
}

#[test]
fn large_batches_cross_the_parallel_threshold_and_stay_exact() {
    // Past the fan-out grain, with an odd, non-chunk-aligned row count.
    let mut rng = StdRng::seed_from_u64(99);
    let bfly = ButterflyMatrix::random(128, &mut rng).unwrap();
    let rows = grain_rows(128);
    let x = filled(rows, 128, 1);
    let batched = bfly.forward_rows(&x);
    for r in [0usize, 1, rows / 2, rows - 2, rows - 1] {
        let row = x.as_slice()[r * 128..(r + 1) * 128].to_vec();
        assert!(batched.as_slice()[r * 128..(r + 1) * 128] == bfly.forward(&row)[..]);
    }

    let mut seq = 128;
    while fourier_mix_flops(seq, 128) < PAR_GRAIN_OPS {
        seq *= 2;
    }
    let big: Vec<f32> = (0..seq * 128).map(|i| ((i % 331) as f32) * 0.01 - 1.6).collect();
    let fast = fft2_real(&big, seq, 128);
    let reference = fft2_real_reference(&big, seq, 128);
    for (a, b) in fast.iter().zip(reference.iter()) {
        assert!((a - b).abs() <= 1e-4 * (1.0 + b.abs()));
    }
}

#[test]
fn batched_kernels_match_with_a_single_rayon_thread() {
    let _guard = THREAD_ENV_LOCK.lock().expect("env lock");
    let mut rng = StdRng::seed_from_u64(7);
    let bfly = ButterflyMatrix::random(64, &mut rng).unwrap();
    let rows = grain_rows(64);
    let x = filled(rows, 64, 2);
    let g = filled(rows, 64, 3);

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let forward_serial = bfly.forward_rows(&x);
    let (gx_serial, gw_serial) = bfly.backward_rows(&x, &g);
    std::env::set_var("RAYON_NUM_THREADS", "5");
    let forward_parallel = bfly.forward_rows(&x);
    let (gx_parallel, gw_parallel) = bfly.backward_rows(&x, &g);
    std::env::remove_var("RAYON_NUM_THREADS");

    assert!(forward_serial == forward_parallel, "thread count changed forward_rows");
    assert!(gx_serial == gx_parallel, "thread count changed input gradients");
    // Chunk boundaries are thread-count independent, so even the reduced
    // weight gradients must match exactly.
    assert!(gw_serial == gw_parallel, "thread count changed weight gradients");
}
