//! Radix-2 Cooley–Tukey FFT and the FNet-style 2-D Fourier transform.
//!
//! The iterative decimation-in-time formulation used here mirrors the
//! butterfly dataflow executed by the accelerator's Butterfly Engines: stage
//! `s` pairs elements at distance `2^s` and applies a complex twiddle
//! multiply followed by an add/subtract — exactly the Fig. 7(c) datapath of
//! the paper.

use crate::{log2_exact, Complex};
use fab_tensor::PAR_GRAIN_OPS;
use rayon::prelude::*;

/// Returns the bit-reversal permutation of `0..n`.
///
/// # Panics
///
/// Panics when `n` is not a power of two.
pub fn bit_reverse_permutation(n: usize) -> Vec<usize> {
    let bits = log2_exact(n);
    (0..n)
        .map(|i| {
            let mut r = 0usize;
            for b in 0..bits {
                if i & (1 << b) != 0 {
                    r |= 1 << (bits - 1 - b);
                }
            }
            r
        })
        .collect()
}

/// A precomputed radix-2 FFT execution plan for one transform size.
///
/// Holds the bit-reversal permutation and the per-stage forward twiddle
/// factors, so repeated transforms of the same size (every row of a batch,
/// every column of a 2-D transform) pay the trigonometry exactly once — the
/// seed's `fft_in_place` recomputed `e^{iθ}` for every (block, k) pair of
/// every call.
///
/// # Example
///
/// ```rust
/// use fab_butterfly::fft::FftPlan;
/// use fab_butterfly::Complex;
/// let plan = FftPlan::new(8);
/// let mut data = vec![Complex::one(); 8];
/// plan.execute(&mut data, false);
/// assert!((data[0].re - 8.0).abs() < 1e-5);
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    perm: Vec<usize>,
    /// Forward twiddles, stage-major: stage with half-size `2^s` occupies
    /// `2^s` entries starting at offset `2^s - 1` (total `n - 1`).
    twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Builds a plan for transforms of size `n`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is not a power of two greater than or equal to 2.
    pub fn new(n: usize) -> Self {
        let _ = log2_exact(n);
        let perm = bit_reverse_permutation(n);
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut half = 1usize;
        while half < n {
            let step = -std::f32::consts::PI / half as f32;
            twiddles.extend((0..half).map(|k| Complex::from_polar(step * k as f32)));
            half *= 2;
        }
        Self { n, perm, twiddles }
    }

    /// Transform size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Executes the (inverse) transform in place, including the `1/n`
    /// normalisation for the inverse direction.
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` differs from the plan size.
    pub fn execute(&self, data: &mut [Complex], inverse: bool) {
        let n = self.n;
        assert_eq!(data.len(), n, "FFT plan size mismatch");
        // Bit-reversal reordering.
        for (i, &j) in self.perm.iter().enumerate() {
            if j > i {
                data.swap(i, j);
            }
        }
        // Butterfly stages: half = 1, 2, 4, ... n/2.
        let mut half = 1usize;
        while half < n {
            let stage_tw = &self.twiddles[half - 1..2 * half - 1];
            for block in data.chunks_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((l, h), &tw) in lo.iter_mut().zip(hi.iter_mut()).zip(stage_tw.iter()) {
                    let w = if inverse { tw.conj() } else { tw };
                    let a = *l;
                    let b = *h * w;
                    *l = a + b;
                    *h = a - b;
                }
            }
            half *= 2;
        }
        if inverse {
            let inv = 1.0 / n as f32;
            for v in data.iter_mut() {
                *v = *v * inv;
            }
        }
    }
}

/// In-place iterative radix-2 FFT (decimation in time).
///
/// When `inverse` is true the inverse transform is computed, including the
/// `1/n` normalisation. Builds a throwaway [`FftPlan`]; callers transforming
/// many same-sized vectors should build the plan once themselves.
///
/// # Panics
///
/// Panics when the length of `data` is not a power of two.
pub fn fft_in_place(data: &mut [Complex], inverse: bool) {
    FftPlan::new(data.len()).execute(data, inverse);
}

/// Forward FFT of a complex slice, returning a new vector.
///
/// # Panics
///
/// Panics when the length is not a power of two.
pub fn fft(data: &[Complex]) -> Vec<Complex> {
    let mut out = data.to_vec();
    fft_in_place(&mut out, false);
    out
}

/// Inverse FFT of a complex slice, returning a new vector.
///
/// # Panics
///
/// Panics when the length is not a power of two.
pub fn ifft(data: &[Complex]) -> Vec<Complex> {
    let mut out = data.to_vec();
    fft_in_place(&mut out, true);
    out
}

/// Forward FFT of a real slice.
///
/// # Panics
///
/// Panics when the length is not a power of two.
pub fn fft_real(data: &[f32]) -> Vec<Complex> {
    let complex: Vec<Complex> = data.iter().map(|&x| Complex::from(x)).collect();
    fft(&complex)
}

/// Naive `O(n^2)` DFT, used as a ground-truth oracle in tests and by the
/// baseline accelerator model (which implements Fourier layers as dense
/// matrix multiplications, as in the paper's Section VI-D).
///
/// # Panics
///
/// Panics when `data` is empty.
pub fn dft_naive(data: &[Complex]) -> Vec<Complex> {
    let n = data.len();
    assert!(n > 0, "dft of empty input");
    (0..n)
        .map(|k| {
            let mut acc = Complex::zero();
            for (j, &x) in data.iter().enumerate() {
                let theta = -2.0 * std::f32::consts::PI * (k * j) as f32 / n as f32;
                acc += x * Complex::from_polar(theta);
            }
            acc
        })
        .collect()
}

thread_local! {
    /// Per-thread memo of the plans `fft2_real` uses, keyed by transform
    /// size. Serving and training sweep the same few sequence/hidden sizes
    /// over and over; caching makes the twiddle trigonometry a one-time
    /// cost per thread instead of a per-call one.
    static PLAN_CACHE: std::cell::RefCell<Vec<std::rc::Rc<FftPlan>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Returns the per-thread cached plan of size `n`, building it on first use.
fn cached_plan(n: usize) -> std::rc::Rc<FftPlan> {
    PLAN_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(plan) = cache.iter().find(|p| p.size() == n) {
            return std::rc::Rc::clone(plan);
        }
        let plan = std::rc::Rc::new(FftPlan::new(n));
        cache.push(std::rc::Rc::clone(&plan));
        plan
    })
}

/// The real part of the 2-D discrete Fourier transform used by FNet and by
/// FABNet's FBfly block: a 1-D FFT along the hidden dimension followed by a
/// 1-D FFT along the sequence dimension, keeping only the real component.
///
/// `x` is row-major `[seq, hidden]`; both dimensions must be powers of two.
///
/// # Panics
///
/// Panics when `x.len() != seq * hidden` or a dimension is not a power of two.
pub fn fft2_real(x: &[f32], seq: usize, hidden: usize) -> Vec<f32> {
    assert_eq!(x.len(), seq * hidden, "fft2_real input length mismatch");
    let parallel = crate::flops::fourier_mix_flops(seq, hidden) >= PAR_GRAIN_OPS;
    let row_plan = cached_plan(hidden);
    let mut grid: Vec<Complex> = x.iter().map(|&v| Complex::from(v)).collect();
    // FFT along the hidden dimension (each row), rows fanned out in parallel.
    if parallel {
        let row_plan = &*row_plan;
        grid.par_chunks_mut(hidden).for_each(|row| row_plan.execute(row, false));
    } else {
        for row in grid.chunks_mut(hidden) {
            row_plan.execute(row, false);
        }
    }
    // FFT along the sequence dimension: transpose so columns become
    // contiguous rows (cache-friendly and parallelisable across the hidden
    // dimension), transform, and transpose back.
    let col_plan = cached_plan(seq);
    let mut t = transpose_grid(&grid, seq, hidden);
    if parallel {
        let col_plan = &*col_plan;
        t.par_chunks_mut(seq).for_each(|col| col_plan.execute(col, false));
    } else {
        for col in t.chunks_mut(seq) {
            col_plan.execute(col, false);
        }
    }
    let grid = transpose_grid(&t, hidden, seq);
    grid.iter().map(|v| v.re).collect()
}

/// Out-of-place transpose of a row-major `[rows, cols]` complex grid.
fn transpose_grid(grid: &[Complex], rows: usize, cols: usize) -> Vec<Complex> {
    const TILE: usize = 32;
    let mut out = vec![Complex::zero(); grid.len()];
    for ii in (0..rows).step_by(TILE) {
        let ib = TILE.min(rows - ii);
        for jj in (0..cols).step_by(TILE) {
            let jb = TILE.min(cols - jj);
            for di in 0..ib {
                let src = &grid[(ii + di) * cols + jj..(ii + di) * cols + jj + jb];
                for (dj, &v) in src.iter().enumerate() {
                    out[(jj + dj) * rows + ii + di] = v;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-3
    }

    #[test]
    fn bit_reversal_of_8() {
        assert_eq!(bit_reverse_permutation(8), vec![0, 4, 2, 6, 1, 5, 3, 7]);
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let out = fft_real(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        for v in out {
            assert!(close(v.re, 1.0) && close(v.im, 0.0));
        }
    }

    #[test]
    fn fft_matches_naive_dft() {
        let x: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()))
            .collect();
        let fast = fft(&x);
        let slow = dft_naive(&x);
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert!(close(a.re, b.re) && close(a.im, b.im), "{a} vs {b}");
        }
    }

    #[test]
    fn ifft_roundtrip() {
        let x: Vec<Complex> =
            (0..32).map(|i| Complex::new(i as f32 * 0.1, -(i as f32) * 0.05)).collect();
        let back = ifft(&fft(&x));
        for (a, b) in x.iter().zip(back.iter()) {
            assert!(close(a.re, b.re) && close(a.im, b.im));
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let x: Vec<Complex> = (0..64).map(|i| Complex::new((i as f32).cos(), 0.0)).collect();
        let y = fft(&x);
        let ex: f32 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f32 = y.iter().map(|v| v.norm_sqr()).sum::<f32>() / x.len() as f32;
        assert!((ex - ey).abs() / ex < 1e-3);
    }

    #[test]
    fn fft_of_pure_tone_has_single_bin() {
        let n = 32;
        let x: Vec<f32> = (0..n)
            .map(|i| (2.0 * std::f32::consts::PI * 4.0 * i as f32 / n as f32).cos())
            .collect();
        let y = fft_real(&x);
        let mags: Vec<f32> = y.iter().map(|v| v.abs()).collect();
        // Energy concentrated in bins 4 and n-4.
        assert!(mags[4] > 10.0 && mags[n - 4] > 10.0);
        for (i, &m) in mags.iter().enumerate() {
            if i != 4 && i != n - 4 {
                assert!(m < 1e-2, "unexpected energy at bin {i}: {m}");
            }
        }
    }

    #[test]
    fn fft2_real_is_linear() {
        let seq = 8;
        let hid = 4;
        let a: Vec<f32> = (0..seq * hid).map(|i| (i as f32 * 0.3).sin()).collect();
        let b: Vec<f32> = (0..seq * hid).map(|i| (i as f32 * 0.7).cos()).collect();
        let sum: Vec<f32> = a.iter().zip(b.iter()).map(|(x, y)| x + y).collect();
        let fa = fft2_real(&a, seq, hid);
        let fb = fft2_real(&b, seq, hid);
        let fsum = fft2_real(&sum, seq, hid);
        for i in 0..seq * hid {
            assert!(close(fa[i] + fb[i], fsum[i]));
        }
    }

    #[test]
    fn fft2_real_constant_input_concentrates_at_dc() {
        let seq = 4;
        let hid = 4;
        let x = vec![1.0f32; seq * hid];
        let y = fft2_real(&x, seq, hid);
        assert!(close(y[0], (seq * hid) as f32));
        for &v in &y[1..] {
            assert!(v.abs() < 1e-3);
        }
    }
}
