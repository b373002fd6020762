//! Radix-2 Cooley–Tukey FFT and the FNet-style 2-D Fourier transform.
//!
//! The iterative decimation-in-time formulation used here mirrors the
//! butterfly dataflow executed by the accelerator's Butterfly Engines: stage
//! `s` pairs elements at distance `2^s` and applies a complex twiddle
//! multiply followed by an add/subtract — exactly the Fig. 7(c) datapath of
//! the paper.
//!
//! [`FftPlan::execute`] is that formulation on one array-of-structs vector,
//! kept as the readable reference and the oracle of the tests. The hot
//! path, [`fft2_real`], runs on the lane-per-row engine of
//! [`fab_tensor::simd`] that the butterfly-linear forward uses too — the
//! same vertical stage loop with a complex twiddle as the pair operation, on
//! split real/imaginary planes:
//!
//! 1. **Sequence dimension, whole rows.** The input is real, so the
//!    `seq`-point transform of every column is one `seq/2`-point complex FFT
//!    of the packed rows `x[2j] + i·x[2j+1]` plus a split step, and it
//!    yields bins `0..=seq/2` only. The hidden dimension is the lane axis:
//!    a butterfly pair is two rows, so nothing is transposed. Columns are
//!    cut into strips of 16 — one 16-lane vector per row, and a full tile
//!    for the gather of step 2 — whose planes stay in L2 across the stages;
//!    strips are also the unit of the fan-out.
//! 2. **Hidden dimension, tiles of rows.** Each of the `seq/2 + 1` bin rows
//!    needs a complex `hidden`-point FFT; a tile of as many rows as the
//!    backend has lanes is transposed into lane layout (bit-reversal folded
//!    into the gather) and run through the same stages. Only the real part
//!    leaves the tile, and every row `s` also yields row `seq − s` by the
//!    mirror `Re Z[seq − s, h] = Re Z[s, (hidden − h) mod hidden]`.
//!
//! Plans are built once per size for the whole process; work buffers come
//! from a per-thread pool and are reused across calls.

use crate::flops::fourier_mix_flops;
use crate::{log2_exact, next_pow2, with_scratch, Complex};
use fab_tensor::{simd, PAR_GRAIN_OPS};
use std::sync::OnceLock;

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
/// let mut data = vec![Complex::new(1.0, 0.0); 8];
/// plan.execute(&mut data, false);
/// assert!((data[0].re - 8.0).abs() < 1e-5);
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    perm: Vec<usize>,
    /// Forward twiddles as split planes, stage-major: the stage with
    /// half-size `2^s` occupies `2^s` entries starting at offset `2^s - 1`
    /// (total `n - 1`) — the table layout of
    /// [`fab_tensor::simd::fft_stages_lanes`].
    tw_re: Vec<f32>,
    tw_im: Vec<f32>,
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
        let (mut tw_re, mut tw_im) = (Vec::with_capacity(n - 1), Vec::with_capacity(n - 1));
        let mut half = 1usize;
        while half < n {
            let step = -std::f32::consts::PI / half as f32;
            for k in 0..half {
                let w = Complex::from_polar(step * k as f32);
                tw_re.push(w.re);
                tw_im.push(w.im);
            }
            half *= 2;
        }
        Self { n, perm, tw_re, tw_im }
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
            let stage = half - 1..2 * half - 1;
            let stage_tw = self.tw_re[stage.clone()].iter().zip(&self.tw_im[stage]);
            for block in data.chunks_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((l, h), (&re, &im)) in lo.iter_mut().zip(hi.iter_mut()).zip(stage_tw.clone()) {
                    let tw = Complex::new(re, im);
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
pub(crate) fn fft_in_place(data: &mut [Complex], inverse: bool) {
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

/// Naive `O(n^2)` DFT, used as a ground-truth oracle in tests and by the
/// baseline accelerator model (which implements Fourier layers as dense
/// matrix multiplications, as in the paper's Section VI-D). The phase index
/// `k·j` is reduced modulo `n` before it becomes an angle, so the twiddles
/// stay accurate to an `f32` ulp of `2π` however large `n` is.
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
                let theta = -2.0 * std::f32::consts::PI * (k * j % n) as f32 / n as f32;
                acc += x * Complex::from_polar(theta);
            }
            acc
        })
        .collect()
}

/// One plan per transform size for the whole process (slot `log2 n`):
/// every thread of the pool reads the same tables.
static PLANS: [OnceLock<FftPlan>; usize::BITS as usize] =
    [const { OnceLock::new() }; usize::BITS as usize];

fn shared_plan(n: usize) -> &'static FftPlan {
    PLANS[log2_exact(n)].get_or_init(|| FftPlan::new(n))
}

/// Columns per strip of the sequence-dimension pass: a multiple of every
/// backend's lane count (one vector per row at 16 lanes, the stage loop's
/// tightest form), and as wide as pass 2's tile, so that pass's gather is a
/// full-tile register transpose. The two planes of a 1024-point strip
/// (64 KB) sit in L2 while the stages sweep them.
const STRIP: usize = 16;

/// The real part of the 2-D discrete Fourier transform used by FNet and by
/// FABNet's FBfly block, `Re(F_seq · X · F_hid)`; see the [module docs](self)
/// for how it is computed.
///
/// `x` is row-major `[seq, hidden]`; both dimensions must be powers of two.
///
/// # Panics
///
/// Panics when `x.len() != seq * hidden` or a dimension is not a power of two.
pub fn fft2_real(x: &[f32], seq: usize, hidden: usize) -> Vec<f32> {
    let _ = (log2_exact(seq), log2_exact(hidden));
    let mut out = vec![0.0f32; seq * hidden];
    fft2_real_padded_into(x, seq, hidden, &mut out);
    out
}

/// [`fft2_real`] of `x` zero-padded to the next power of two in each
/// dimension, truncated back to `[seq, hid]` on the way out. The padding
/// never exists in memory: pass 1 gathers zeros for the rows and columns
/// beyond `x`, pass 2 writes only the rows and columns of `out`.
///
/// # Panics
///
/// Panics when `x` or `out` does not hold `seq * hid` values.
pub(crate) fn fft2_real_padded_into(x: &[f32], seq: usize, hid: usize, out: &mut [f32]) {
    assert_eq!(x.len(), seq * hid, "fft2_real input length mismatch");
    assert_eq!(out.len(), seq * hid, "fft2_real output length mismatch");
    if out.is_empty() {
        return;
    }
    let (s, h) = (next_pow2(seq), next_pow2(hid));
    let m = s / 2;
    let (plan_s, plan_h) = (shared_plan(s), shared_plan(h));
    let w = h.min(STRIP);
    // A strip holds its real plane, then its imaginary plane, `m + 1` rows
    // of `w` columns each.
    let strip_len = 2 * (m + 1) * w;
    // The nominal count, as everywhere the grain is consulted.
    let parallel = fourier_mix_flops(s, h) >= PAR_GRAIN_OPS;
    let lanes = simd::backend().lanes();
    with_scratch(h / w * strip_len, |y| {
        let pass1 = |j: usize, strip: &mut [f32]| seq_pass(x, seq, hid, plan_s, j * w, w, strip);
        if parallel {
            rayon::fork_chunks_mut([(y, strip_len)], |j, [strip]| pass1(j, strip));
        } else {
            y.chunks_mut(strip_len).enumerate().for_each(|(j, strip)| pass1(j, strip));
        }

        let y = &*y;
        // A tile covers bin rows `a..b`: it writes those rows of `out`
        // (`direct`) and the mirror rows `s − s'` of its `s'` below `hi`.
        let tile = |(a, b, hi): (usize, usize, usize), direct: &mut [f32], mirror: &mut [f32]| {
            with_scratch(3 * h * lanes, |buf| {
                let (tre, buf) = buf.split_at_mut(h * lanes);
                let (tim, rows) = buf.split_at_mut(h * lanes);
                for (j, strip) in y.chunks(strip_len).enumerate() {
                    let (re, im) = strip.split_at((m + 1) * w);
                    let perm = &plan_h.perm[j * w..(j + 1) * w];
                    simd::rows_to_lanes(&re[a * w..], w, b - a, w, perm, tre, lanes);
                    simd::rows_to_lanes(&im[a * w..], w, b - a, w, perm, tim, lanes);
                }
                simd::fft_stages_lanes(&plan_h.tw_re, &plan_h.tw_im, tre, tim, lanes);
                simd::lanes_to_rows(tre, lanes, b - a, h, &[], rows, h);
                for (drow, z) in direct.chunks_mut(hid).zip(rows.chunks(h)) {
                    drow.copy_from_slice(&z[..hid]);
                }
                // Mirror rows ascend in `out` as their bin rows descend.
                for (i, mrow) in mirror.chunks_mut(hid).enumerate() {
                    let z = &rows[(hi - 1 - i - a) * h..][..h];
                    mrow[0] = z[0];
                    for (d, &v) in mrow[1..].iter_mut().zip(z[h + 1 - hid..].iter().rev()) {
                        *d = v;
                    }
                }
            });
        };
        // Direct rows are handed out from the front of `out`, mirror rows
        // from its back, so every tile gets two disjoint plain slices. The
        // mirror slices are not one slice cut at one length (the first
        // tiles' are short or empty), so a parallel call lists the tiles
        // first: its one allocation, which `forward_alloc` counts.
        let mut rest = out;
        let mut jobs = Vec::with_capacity(if parallel { (m + 1).div_ceil(lanes) } else { 0 });
        for a in (0..=m).step_by(lanes) {
            let b = (a + lanes).min(m + 1);
            // Bin rows 0 and `m` mirror onto themselves, and rows of the
            // padded grid beyond `seq` are not part of `out`.
            let (lo, hi) = (a.max(1).max(s - seq + 1), b.min(m));
            let (direct, tail) =
                std::mem::take(&mut rest).split_at_mut(b.min(seq).saturating_sub(a) * hid);
            let (middle, mirror) = tail.split_at_mut(tail.len() - hi.saturating_sub(lo) * hid);
            rest = middle;
            if parallel {
                jobs.push(((a, b, hi), direct, mirror));
            } else {
                tile((a, b, hi), direct, mirror);
            }
        }
        debug_assert!(rest.is_empty());
        if parallel {
            rayon::fork_chunks_mut([(&mut jobs, 1)], |_, [job]| {
                let (rows, direct, mirror) = &mut job[0];
                tile(*rows, direct, mirror);
            });
        }
    });
}

/// Pass 1 for the columns `c0 .. c0 + w`: the real-input FFT along the
/// sequence dimension, leaving bins `0..=m` in the strip's planes.
fn seq_pass(
    x: &[f32],
    seq: usize,
    hid: usize,
    plan: &FftPlan,
    c0: usize,
    w: usize,
    strip: &mut [f32],
) {
    let m = plan.n / 2;
    let (re, im) = strip.split_at_mut((m + 1) * w);
    // Packed row `j` is input rows `2j` (real plane) and `2j + 1`
    // (imaginary plane); the first `m` entries of the `2m`-point
    // bit-reversal are exactly the even rows in `m`-point reversed order.
    let cols = hid.saturating_sub(c0).min(w);
    for (j, &even) in plan.perm[..m].iter().enumerate() {
        for (plane, row) in [(&mut *re, even), (&mut *im, even + 1)] {
            let dst = &mut plane[j * w..(j + 1) * w];
            let real = if row < seq { cols } else { 0 };
            if real > 0 {
                dst[..real].copy_from_slice(&x[row * hid + c0..][..real]);
            }
            dst[real..].fill(0.0);
        }
    }
    simd::fft_stages_lanes(&plan.tw_re, &plan.tw_im, &mut re[..m * w], &mut im[..m * w], w);
    simd::fft_real_split_lanes(&plan.tw_re[m - 1..], &plan.tw_im[m - 1..], re, im, w);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forward FFT of a real slice.
    fn fft_real(data: &[f32]) -> Vec<Complex> {
        fft(&data.iter().map(|&x| Complex::from(x)).collect::<Vec<_>>())
    }

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
