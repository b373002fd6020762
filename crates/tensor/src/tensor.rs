use crate::TensorError;
use std::fmt;

// ---------------------------------------------------------------------------
// Compute-core tuning parameters.
//
// The hot kernels below are cache-blocked and parallelised over row bands
// with rayon, and dispatch their inner loops onto the `crate::simd` backend
// selected at startup. The constants are chosen for typical L1/L2 sizes
// (32 KiB / 256 KiB-1 MiB) and `f32` storage; they only affect performance,
// never results. On the scalar backend (`FAB_SIMD=scalar`) every
// blocked/parallel kernel is bit-compatible with its serial reference (see
// `matmul_reference` and the parallel-consistency tests); SIMD backends keep
// the matmul within ≤ 1e-5 of that oracle (FMA rounding) and the row-wise
// softmax/layer-norm within ≤ 1e-6 (lane-reordered reductions, fast
// exponentials), while element-wise and butterfly kernels remain
// bit-identical in every backend.
// ---------------------------------------------------------------------------

/// Rows of the output handled by one parallel task in `matmul`.
const MATMUL_BAND_ROWS: usize = 64;
/// Depth (`k`) block: how many lhs columns / rhs rows are swept per pass.
const MATMUL_KC: usize = 128;
/// Column (`j`) block: output/rhs columns touched per inner sweep, keeping
/// the active rhs panel (`MATMUL_KC x MATMUL_NC x 4 B = 256 KiB`) L2-resident
/// and the active output segment L1-resident.
const MATMUL_NC: usize = 512;
/// Tile edge for the blocked transpose.
const TRANSPOSE_TILE: usize = 32;
/// The workspace's one fan-out grain: a kernel call estimated at fewer
/// scalar operations than this runs on the calling thread.
///
/// Every kernel that can split its work over the worker pool (`rayon::fork`;
/// here, in `fab-butterfly`, `fab-nn` and `fab-serve`)
/// estimates the call's operations — multiply and add counted separately,
/// as in `fab_butterfly::flops` — and compares them with this constant. On
/// the 2-vCPU development host an empty pool call returns in 0.5 µs, and a
/// call a parked worker joins ends about 20 µs after a perfect two-way split
/// would (the wake-up; 40 µs of work split in two takes 36 µs, 200 µs takes
/// 120 µs). One core sustains 3 Gop/s (Fourier mixing, softmax) to ~130
/// Gop/s (the 16-lane FMA GEMM band; ~50 with 8 lanes), so this many
/// operations are 8–350 µs of work: a call at the grain breaks even at
/// best (a GEMM-only one loses), and what pays is few, large calls — which
/// is why the attention core fans out once over query-row bands, not once
/// per product (`fab_nn::frozen`).
pub const PAR_GRAIN_OPS: u64 = 1 << 20;

/// Runs `f` with `RAYON_NUM_THREADS` set to `threads`, then puts the
/// previous value back (or unsets it) — also when `f` panics, so a caller
/// running under `RAYON_NUM_THREADS=1` stays on one thread after it.
/// Intended for tests that compare results across thread counts; the
/// variable is process-global, so callers serialise themselves.
pub fn with_rayon_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<std::ffi::OsString>);
    impl Drop for Restore {
        fn drop(&mut self) {
            match self.0.take() {
                Some(previous) => std::env::set_var("RAYON_NUM_THREADS", previous),
                None => std::env::remove_var("RAYON_NUM_THREADS"),
            }
        }
    }
    let _restore = Restore(std::env::var_os("RAYON_NUM_THREADS"));
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    f()
}
/// Target elements per parallel chunk for row-wise and element-wise kernels.
const CHUNK_ELEMS: usize = 1 << 13;

/// Approximate operations per element of the transcendental and normalising
/// kernels, for [`chunked_op`]; plain arithmetic kernels count 1.
/// `Tensor::map` takes an opaque closure and counts 1 as well (its callers
/// are ReLU and add-scalar).
const SOFTMAX_OPS: u64 = 16; // max, exp, sum, divide
const LAYER_NORM_OPS: u64 = 8; // mean, variance, normalise, scale, shift
const GELU_OPS: u64 = 16; // rational tanh
const MAP_OPS: u64 = 1;

/// Runs `f(chunk_index, chunk)` over `out` cut into `chunk_len`-element
/// chunks — on the worker pool when the kernel, at about `ops_per_elem`
/// operations per output element, reaches [`PAR_GRAIN_OPS`], else as one
/// call `f(0, out)` on the calling thread. The one fan-out decision of
/// every kernel in this file; `f` must give the same result however `out`
/// is cut at chunk boundaries.
fn chunked_op(
    out: &mut [f32],
    chunk_len: usize,
    ops_per_elem: u64,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if (out.len() as u64) * ops_per_elem < PAR_GRAIN_OPS {
        f(0, out);
    } else {
        rayon::fork_chunks_mut([(out, chunk_len)], |c, [chunk]| f(c, chunk));
    }
}

/// [`chunked_op`] over row-aligned chunks of about [`CHUNK_ELEMS`] elements:
/// `f` receives `(first_row_of_chunk, chunk)` where every chunk holds a whole
/// number of `n`-element rows.
fn for_each_row_band(
    out: &mut [f32],
    n: usize,
    ops_per_elem: u64,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    debug_assert!(n > 0 && out.len().is_multiple_of(n));
    let rows_per_chunk = (CHUNK_ELEMS / n).max(1);
    chunked_op(out, rows_per_chunk * n, ops_per_elem, |c, chunk| f(c * rows_per_chunk, chunk));
}

/// [`chunked_op`] in [`CHUNK_ELEMS`] chunks for a slice kernel
/// `f(src_chunk, out_chunk)` — the shared chunking of every dispatched
/// element-wise kernel.
fn chunked_slice_op(
    src: &[f32],
    out: &mut [f32],
    ops_per_elem: u64,
    f: impl Fn(&[f32], &mut [f32]) + Sync,
) {
    debug_assert_eq!(src.len(), out.len());
    chunked_op(out, CHUNK_ELEMS, ops_per_elem, |c, chunk| {
        f(&src[c * CHUNK_ELEMS..c * CHUNK_ELEMS + chunk.len()], chunk)
    });
}

/// A dense, row-major, `f32` tensor.
///
/// Most neural-network operations in this workspace act on 2-D tensors
/// (matrices) shaped `[rows, cols]`; 1-D tensors are supported for biases and
/// labels. The type is intentionally simple: it owns its storage, is cheap to
/// clone only when necessary, and validates shapes eagerly.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` does not
    /// equal the product of `shape`, and [`TensorError::InvalidShape`] when
    /// the shape is empty.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        if shape.is_empty() {
            return Err(TensorError::InvalidShape { shape: shape.to_vec() });
        }
        let volume: usize = shape.iter().product();
        if volume != data.len() {
            return Err(TensorError::LengthMismatch { len: data.len(), expected: volume });
        }
        Ok(Self { shape: shape.to_vec(), data })
    }

    /// Creates a tensor filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "tensor shape must not be empty");
        let volume = shape.iter().product();
        Self { shape: shape.to_vec(), data: vec![0.0; volume] }
    }

    /// Creates a tensor filled with ones.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty.
    pub fn full(shape: &[usize], value: f32) -> Self {
        assert!(!shape.is_empty(), "tensor shape must not be empty");
        let volume = shape.iter().product();
        Self { shape: shape.to_vec(), data: vec![value; volume] }
    }

    /// Creates an `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Returns the shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Returns the number of rows, treating 1-D tensors as a single row.
    pub fn rows(&self) -> usize {
        if self.shape.len() == 1 {
            1
        } else {
            self.shape[0]
        }
    }

    /// Returns the number of columns, treating 1-D tensors as a single row.
    pub fn cols(&self) -> usize {
        if self.shape.len() == 1 {
            self.shape[0]
        } else {
            self.shape[1]
        }
    }

    /// Returns the total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Heap capacity of the underlying storage in `f32` elements. Used by the
    /// allocation-reuse tests to assert that steady-state training steps do
    /// not grow tape buffers.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns a view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Returns a mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its underlying storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns element `(r, c)` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the index is out of bounds.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert_eq!(self.shape.len(), 2, "Tensor::at requires a 2-D tensor");
        assert!(r < self.shape[0] && c < self.shape[1], "index ({r},{c}) out of bounds");
        self.data[r * self.shape[1] + c]
    }

    /// Sets element `(r, c)` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the index is out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert_eq!(self.shape.len(), 2, "Tensor::set requires a 2-D tensor");
        assert!(r < self.shape[0] && c < self.shape[1], "index ({r},{c}) out of bounds");
        self.data[r * self.shape[1] + c] = v;
    }

    /// Reshapes the tensor without copying data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the new shape has a
    /// different volume.
    pub fn reshape(mut self, shape: &[usize]) -> Result<Self, TensorError> {
        let volume: usize = shape.iter().product();
        if volume != self.data.len() || shape.is_empty() {
            return Err(TensorError::LengthMismatch { len: self.data.len(), expected: volume });
        }
        self.shape = shape.to_vec();
        Ok(self)
    }

    /// Reshapes the tensor in place, reusing the existing heap storage.
    ///
    /// Existing element values are unspecified afterwards (callers are
    /// expected to overwrite the whole buffer); the point of this method is
    /// that repeated reshapes to steady-state shapes never reallocate — the
    /// data `Vec` only grows, and the shape vector is rewritten in place.
    /// This is the building block of the allocation-free autodiff tape.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty.
    pub fn resize_to(&mut self, shape: &[usize]) {
        assert!(!shape.is_empty(), "tensor shape must not be empty");
        let volume: usize = shape.iter().product();
        self.data.resize(volume, 0.0);
        if self.shape.as_slice() != shape {
            self.shape.clear();
            self.shape.extend_from_slice(shape);
        }
    }

    /// Copies `src` (shape and data) into `self`, reusing storage.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.resize_to(&src.shape);
        self.data.copy_from_slice(&src.data);
    }

    /// [`Tensor::resize_to`] with every element zeroed — exactly one pass
    /// over the buffer regardless of whether it grows (a plain `resize_to` +
    /// `fill(0.0)` would zero freshly grown storage twice).
    pub fn resize_zeroed(&mut self, shape: &[usize]) {
        assert!(!shape.is_empty(), "tensor shape must not be empty");
        let volume: usize = shape.iter().product();
        self.data.clear();
        self.data.resize(volume, 0.0);
        if self.shape.as_slice() != shape {
            self.shape.clear();
            self.shape.extend_from_slice(shape);
        }
    }

    /// Matrix multiplication `self × rhs` for 2-D tensors.
    ///
    /// The kernel is cache-blocked (`i`-`k`-`j` loop order with
    /// 128 × 512 rhs panels) and parallelised over 64-row output bands. On
    /// the scalar [`crate::simd`] backend, per output element the
    /// accumulation order is identical to [`Tensor::matmul_reference`], so
    /// the two kernels produce bit-identical results. On a SIMD backend the inner loops run as FMA
    /// register tiles: the `p` sweep stays ascending and zero lhs terms are
    /// still skipped, but fused multiply-adds legitimately change rounding —
    /// results stay within ≤ 1e-5 of the scalar oracle relative to the
    /// output magnitude.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul`] writing into `out` (resized and overwritten in
    /// place, no allocation once `out`'s capacity suffices). Results are
    /// bit-identical to `matmul`.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul_into(&self, rhs: &Tensor, out_t: &mut Tensor) {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
        out_t.resize_zeroed(&[m, n]);
        let out = out_t.data.as_mut_slice();
        let simd_on = crate::simd::backend().is_simd();
        let band = |i0: usize, dst: &mut [f32]| {
            if simd_on {
                crate::simd::matmul_band(&self.data, k, &rhs.data, n, i0, dst);
                return;
            }
            for kk in (0..k).step_by(MATMUL_KC) {
                let kb = MATMUL_KC.min(k - kk);
                for jj in (0..n).step_by(MATMUL_NC) {
                    let jb = MATMUL_NC.min(n - jj);
                    for (i, drow) in dst.chunks_mut(n).enumerate() {
                        let arow = &self.data[(i0 + i) * k + kk..(i0 + i) * k + kk + kb];
                        let dseg = &mut drow[jj..jj + jb];
                        // 4-way unroll over the depth dimension: the output
                        // segment is loaded/stored once per four rhs rows.
                        // The per-element adds stay in ascending-p order, and
                        // groups containing any zero lhs element fall back to
                        // the scalar loop with its per-term zero skip, so
                        // results remain bit-identical to `matmul_reference`
                        // even when the rhs holds non-finite values (where
                        // `0.0 * inf` would otherwise inject NaN).
                        let kb4 = kb & !3;
                        for pg in (0..kb4).step_by(4) {
                            let (a0, a1, a2, a3) =
                                (arow[pg], arow[pg + 1], arow[pg + 2], arow[pg + 3]);
                            if a0 == 0.0 || a1 == 0.0 || a2 == 0.0 || a3 == 0.0 {
                                for (p, &a) in arow.iter().enumerate().skip(pg).take(4) {
                                    if a == 0.0 {
                                        continue;
                                    }
                                    let base = (kk + p) * n + jj;
                                    let bseg = &rhs.data[base..base + jb];
                                    for (d, &b) in dseg.iter_mut().zip(bseg.iter()) {
                                        *d += a * b;
                                    }
                                }
                                continue;
                            }
                            let base = (kk + pg) * n + jj;
                            let b0 = &rhs.data[base..base + jb];
                            let b1 = &rhs.data[base + n..base + n + jb];
                            let b2 = &rhs.data[base + 2 * n..base + 2 * n + jb];
                            let b3 = &rhs.data[base + 3 * n..base + 3 * n + jb];
                            for ((((d, &v0), &v1), &v2), &v3) in
                                dseg.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                            {
                                *d += a0 * v0;
                                *d += a1 * v1;
                                *d += a2 * v2;
                                *d += a3 * v3;
                            }
                        }
                        for (p, &a) in arow.iter().enumerate().skip(kb4) {
                            if a == 0.0 {
                                continue;
                            }
                            let bseg = &rhs.data[(kk + p) * n + jj..(kk + p) * n + jj + jb];
                            for (d, &b) in dseg.iter_mut().zip(bseg.iter()) {
                                *d += a * b;
                            }
                        }
                    }
                }
            }
        };
        chunked_op(out, MATMUL_BAND_ROWS * n, 2 * k as u64, |c, chunk| {
            band(c * MATMUL_BAND_ROWS, chunk)
        });
    }

    /// Accumulates `selfᵀ × rhs` into `out`: `out[p][j] += Σ_i self[i][p] ·
    /// rhs[i][j]` with `self` shaped `[m, k]`, `rhs` shaped `[m, n]` and
    /// `out` holding `k · n` elements.
    ///
    /// This is the matmul-backward weight-gradient kernel `dB += Aᵀ · g`.
    /// On the scalar backend the partial product is staged in `scratch`
    /// without materialising the transpose, with the same ascending-`i`
    /// rank-1 accumulation order as `self.transpose().matmul(&rhs)`; on a
    /// SIMD backend the transpose is staged in `scratch` and multiplied
    /// through the same FMA band kernel as [`Tensor::matmul_into`]. Either
    /// way the result is bit-identical to the transpose-materialising
    /// reference on the same backend.
    ///
    /// # Panics
    ///
    /// Panics when shapes disagree.
    pub fn matmul_tn_acc(&self, rhs: &Tensor, scratch: &mut Vec<f32>, out: &mut [f32]) {
        assert_eq!(self.shape.len(), 2, "matmul_tn_acc lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "matmul_tn_acc rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (m2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(m, m2, "matmul_tn_acc outer dimension mismatch: {m} vs {m2}");
        assert_eq!(out.len(), k * n, "matmul_tn_acc output length mismatch");
        if crate::simd::backend().is_simd() {
            // Stage selfᵀ and the product in the scratch buffer and run the
            // same FMA band kernel `matmul_into` uses: per element this is
            // the exact operation sequence of `transpose().matmul(rhs)`, so
            // the fused dW gradient stays bit-identical to the reference
            // backward under every SIMD backend. Steady-state allocation-free
            // once the scratch capacity covers `k·m + k·n`.
            scratch.clear();
            scratch.resize(k * m + k * n, 0.0);
            let (t, prod) = scratch.split_at_mut(k * m);
            self.transpose_acc(t);
            let t = &*t;
            chunked_op(prod, MATMUL_BAND_ROWS * n, 2 * m as u64, |c, chunk| {
                crate::simd::matmul_band(t, m, &rhs.data, n, c * MATMUL_BAND_ROWS, chunk)
            });
            crate::simd::add_acc(out, prod);
            return;
        }
        scratch.clear();
        scratch.resize(k * n, 0.0);
        let band = |p0: usize, dst: &mut [f32]| {
            let rows = dst.len() / n;
            for i in 0..m {
                let grow = &rhs.data[i * n..(i + 1) * n];
                for (pi, drow) in dst.chunks_mut(n).enumerate().take(rows) {
                    let a = self.data[i * k + p0 + pi];
                    if a == 0.0 {
                        continue;
                    }
                    for (d, &g) in drow.iter_mut().zip(grow.iter()) {
                        *d += a * g;
                    }
                }
            }
        };
        chunked_op(scratch, MATMUL_BAND_ROWS * n, 2 * m as u64, |c, chunk| {
            band(c * MATMUL_BAND_ROWS, chunk)
        });
        for (d, &s) in out.iter_mut().zip(scratch.iter()) {
            *d += s;
        }
    }

    /// The seed's naive triple-loop matmul, kept as the ground-truth oracle
    /// for the blocked/parallel kernel (tests assert bit-compatibility) and
    /// as the serial baseline for the PR-1 benches.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul_reference(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let row = &rhs.data[p * n..(p + 1) * n];
                let dst = &mut out[i * n..(i + 1) * n];
                for (d, &b) in dst.iter_mut().zip(row.iter()) {
                    *d += a * b;
                }
            }
        }
        Tensor { shape: vec![m, n], data: out }
    }

    /// Returns the transpose of a 2-D tensor.
    ///
    /// Works in 32 × 32 tiles so both the read and the write side
    /// stay cache-resident, with the tile rows fanned out in parallel for
    /// large matrices.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::default();
        self.transpose_into(&mut out);
        out
    }

    /// [`Tensor::transpose`] writing into `out` (resized in place, no
    /// allocation once `out`'s capacity suffices).
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D.
    pub fn transpose_into(&self, out_t: &mut Tensor) {
        assert_eq!(self.shape.len(), 2, "transpose requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        out_t.resize_to(&[n, m]);
        let out = out_t.data.as_mut_slice();
        let tile_band = |j0: usize, dst: &mut [f32]| {
            // `dst` holds whole output rows, i.e. input columns starting at j0.
            for ii in (0..m).step_by(TRANSPOSE_TILE) {
                let ib = TRANSPOSE_TILE.min(m - ii);
                for (dj, drow) in dst.chunks_mut(m).enumerate() {
                    let j = j0 + dj;
                    for (di, d) in drow[ii..ii + ib].iter_mut().enumerate() {
                        *d = self.data[(ii + di) * n + j];
                    }
                }
            }
        };
        chunked_op(out, TRANSPOSE_TILE * m, 1, |c, chunk| tile_band(c * TRANSPOSE_TILE, chunk));
    }

    /// Accumulates the transpose of `self` (shape `[m, n]`) into `out`
    /// (holding `n · m` elements): `out[j][i] += self[i][j]`. Used by the
    /// tape's allocation-free transpose backward.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D or `out` has the wrong length.
    pub fn transpose_acc(&self, out: &mut [f32]) {
        assert_eq!(self.shape.len(), 2, "transpose_acc requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        assert_eq!(out.len(), m * n, "transpose_acc output length mismatch");
        for jj in (0..n).step_by(TRANSPOSE_TILE) {
            let jb = TRANSPOSE_TILE.min(n - jj);
            for ii in (0..m).step_by(TRANSPOSE_TILE) {
                let ib = TRANSPOSE_TILE.min(m - ii);
                for dj in 0..jb {
                    let orow = &mut out[(jj + dj) * m + ii..(jj + dj) * m + ii + ib];
                    for (di, d) in orow.iter_mut().enumerate() {
                        *d += self.data[(ii + di) * n + jj + dj];
                    }
                }
            }
        }
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, "add", crate::simd::BinOp::Add)
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, "sub", crate::simd::BinOp::Sub)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, "mul", crate::simd::BinOp::Mul)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, c: f32) -> Tensor {
        let mut out = Tensor::default();
        self.scale_into(c, &mut out);
        out
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        self.map(|x| x + c)
    }

    /// Applies `f` element-wise, returning a new tensor.
    ///
    /// Large tensors are processed in parallel chunks; `f` must therefore be
    /// [`Sync`] (pure element-wise closures always are).
    pub fn map<F: Fn(f32) -> f32 + Sync>(&self, f: F) -> Tensor {
        let mut out = Tensor::default();
        self.map_into(f, &mut out);
        out
    }

    /// Adds a `[1, cols]` (or 1-D `[cols]`) row vector to every row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics when the column counts differ.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.add_row_broadcast_into(row, &mut out);
        out
    }

    /// [`Tensor::add_row_broadcast`] writing into `out` (resized in place).
    ///
    /// # Panics
    ///
    /// Panics when the column counts differ.
    pub fn add_row_broadcast_into(&self, row: &Tensor, out_t: &mut Tensor) {
        out_t.copy_from(self);
        out_t.add_row_broadcast_in_place(row);
    }

    /// [`Tensor::add_row_broadcast`] on `self` itself: the bias epilogue of
    /// a `matmul_into` whose output needs no second buffer.
    ///
    /// # Panics
    ///
    /// Panics when the column counts differ.
    pub fn add_row_broadcast_in_place(&mut self, row: &Tensor) {
        assert_eq!(self.shape.len(), 2, "add_row_broadcast requires a 2-D tensor");
        let n = self.shape[1];
        assert_eq!(row.len(), n, "broadcast row length {} != cols {}", row.len(), n);
        for_each_row_band(&mut self.data, n, 1, |_, chunk| {
            for orow in chunk.chunks_mut(n) {
                for (d, &b) in orow.iter_mut().zip(row.data.iter()) {
                    *d += b;
                }
            }
        });
    }

    /// Row-wise numerically-stable softmax of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = Tensor::default();
        self.softmax_rows_into(&mut out);
        out
    }

    /// [`Tensor::softmax_rows`] writing into `out` (resized in place).
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D.
    pub fn softmax_rows_into(&self, out_t: &mut Tensor) {
        assert_eq!(self.shape.len(), 2, "softmax_rows requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        out_t.resize_to(&[m, n]);
        let out = out_t.data.as_mut_slice();
        for_each_row_band(out, n, SOFTMAX_OPS, |r0, chunk| {
            for (i, orow) in chunk.chunks_mut(n).enumerate() {
                let row = &self.data[(r0 + i) * n..(r0 + i + 1) * n];
                crate::simd::softmax_row(row, orow);
            }
        });
    }

    /// Row-wise log-softmax of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D.
    pub fn log_softmax_rows(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "log_softmax_rows requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for_each_row_band(&mut out, n, SOFTMAX_OPS, |r0, chunk| {
            for (i, orow) in chunk.chunks_mut(n).enumerate() {
                let row = &self.data[(r0 + i) * n..(r0 + i + 1) * n];
                crate::simd::log_softmax_row(row, orow);
            }
        });
        Tensor { shape: vec![m, n], data: out }
    }

    /// Fused `(self + rhs)` followed by row-wise layer normalisation: the
    /// residual-shortcut pattern of every encoder block. One pass, one
    /// output allocation; each element goes through exactly the same `a + b`
    /// then normalise arithmetic as `self.add(rhs).layer_norm_rows(...)`,
    /// so results are bit-identical to the unfused pair.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ, the tensors are not 2-D, or parameter
    /// lengths differ from `cols`.
    pub fn add_layer_norm_rows(
        &self,
        rhs: &Tensor,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> Tensor {
        let mut out = Tensor::default();
        self.add_layer_norm_rows_into(rhs, gamma, beta, eps, &mut out);
        out
    }

    /// [`Tensor::add_layer_norm_rows`] writing into `out` (resized in place).
    ///
    /// # Panics
    ///
    /// Panics when shapes differ, the tensors are not 2-D, or parameter
    /// lengths differ from `cols`.
    pub fn add_layer_norm_rows_into(
        &self,
        rhs: &Tensor,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
        out_t: &mut Tensor,
    ) {
        assert_eq!(self.shape.len(), 2, "add_layer_norm_rows requires 2-D tensors");
        assert_eq!(self.shape, rhs.shape, "shape mismatch in add_layer_norm_rows");
        let n = self.shape[1];
        assert_eq!(gamma.len(), n, "gamma length mismatch");
        assert_eq!(beta.len(), n, "beta length mismatch");
        out_t.resize_to(&self.shape);
        for_each_row_band(&mut out_t.data, n, LAYER_NORM_OPS, |r0, chunk| {
            for (i, orow) in chunk.chunks_mut(n).enumerate() {
                let a = &self.data[(r0 + i) * n..(r0 + i + 1) * n];
                let b = &rhs.data[(r0 + i) * n..(r0 + i + 1) * n];
                crate::simd::add_layer_norm_row(a, b, &gamma.data, &beta.data, eps, orow);
            }
        });
    }

    /// Row-wise layer normalization with learned `gamma`/`beta` of length `cols`.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D or parameter lengths differ from `cols`.
    pub fn layer_norm_rows(&self, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
        let mut out = Tensor::default();
        self.layer_norm_rows_into(gamma, beta, eps, &mut out);
        out
    }

    /// [`Tensor::layer_norm_rows`] writing into `out` (resized in place).
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D or parameter lengths differ from `cols`.
    pub fn layer_norm_rows_into(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
        out_t: &mut Tensor,
    ) {
        assert_eq!(self.shape.len(), 2, "layer_norm_rows requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        assert_eq!(gamma.len(), n, "gamma length mismatch");
        assert_eq!(beta.len(), n, "beta length mismatch");
        out_t.resize_to(&[m, n]);
        let out = out_t.data.as_mut_slice();
        for_each_row_band(out, n, LAYER_NORM_OPS, |r0, chunk| {
            for (i, orow) in chunk.chunks_mut(n).enumerate() {
                let row = &self.data[(r0 + i) * n..(r0 + i + 1) * n];
                crate::simd::layer_norm_row(row, &gamma.data, &beta.data, eps, orow);
            }
        });
    }

    /// Gaussian error linear unit (tanh approximation, as used by BERT),
    /// lane-parallel on the active [`crate::simd`] backend (SIMD lanes are
    /// bit-identical to the scalar kernel).
    pub fn gelu(&self) -> Tensor {
        let mut out = Tensor::default();
        self.gelu_into(&mut out);
        out
    }

    /// [`Tensor::gelu`] writing into `out` (resized in place).
    pub fn gelu_into(&self, out_t: &mut Tensor) {
        out_t.resize_to(&self.shape);
        chunked_slice_op(&self.data, &mut out_t.data, GELU_OPS, crate::simd::gelu_slice);
    }

    /// [`Tensor::gelu`] on `self` itself, bit-identical to it. The slice
    /// kernel reads one buffer and writes another, so each chunk goes
    /// through a stack block small enough to stay in L1.
    pub fn gelu_in_place(&mut self) {
        const BLOCK: usize = 256;
        chunked_op(&mut self.data, CHUNK_ELEMS, GELU_OPS, |_, chunk| {
            let mut block = [0.0f32; BLOCK];
            for part in chunk.chunks_mut(BLOCK) {
                let src = &mut block[..part.len()];
                src.copy_from_slice(part);
                crate::simd::gelu_slice(src, part);
            }
        });
    }

    /// GELU on [`crate::fastmath::gelu_fast`]. Since PR 3 the canonical
    /// [`Tensor::gelu`] is built on the same fast-tanh kernel — the two are
    /// now the identical dispatched slice kernel; the method is kept for the
    /// serving path's explicit fast-math surface.
    pub fn gelu_fastmath(&self) -> Tensor {
        self.gelu()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is empty.
    pub fn mean(&self) -> f32 {
        assert!(!self.data.is_empty(), "mean of empty tensor");
        self.sum() / self.data.len() as f32
    }

    /// Mean over rows of a 2-D tensor, producing a `[1, cols]` tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D.
    pub fn mean_rows(&self) -> Tensor {
        let mut out = Tensor::default();
        self.mean_rows_into(&mut out);
        out
    }

    /// [`Tensor::mean_rows`] writing into `out` (resized in place).
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D.
    pub fn mean_rows_into(&self, out_t: &mut Tensor) {
        assert_eq!(self.shape.len(), 2, "mean_rows requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        out_t.resize_zeroed(&[1, n]);
        let out = out_t.data.as_mut_slice();
        for row in self.data.chunks(n) {
            for (o, &v) in out.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
        for v in out.iter_mut() {
            *v /= m as f32;
        }
    }

    /// Index of the maximum element of each row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.len(), 2, "argmax_rows requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        assert!(n > 0, "argmax_rows requires at least one column");
        (0..m)
            .map(|i| {
                let row = &self.data[i * n..(i + 1) * n];
                row.iter()
                    .enumerate()
                    .fold(
                        (0usize, f32::NEG_INFINITY),
                        |acc, (j, &v)| if v > acc.1 { (j, v) } else { acc },
                    )
                    .0
            })
            .collect()
    }

    /// Extracts columns `[start, end)` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics when the range is invalid for the tensor.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        let mut out = Tensor::default();
        self.slice_cols_into(start, end, &mut out);
        out
    }

    /// [`Tensor::slice_cols`] writing into `out` (resized in place).
    ///
    /// # Panics
    ///
    /// Panics when the range is invalid for the tensor.
    pub fn slice_cols_into(&self, start: usize, end: usize, out_t: &mut Tensor) {
        assert_eq!(self.shape.len(), 2, "slice_cols requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        assert!(start < end && end <= n, "invalid column range {start}..{end} for {n} cols");
        let w = end - start;
        out_t.resize_to(&[m, w]);
        let out = out_t.data.as_mut_slice();
        for i in 0..m {
            out[i * w..(i + 1) * w].copy_from_slice(&self.data[i * n + start..i * n + end]);
        }
    }

    /// Extracts rows `[start, end)` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics when the range is invalid for the tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert_eq!(self.shape.len(), 2, "slice_rows requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        assert!(start < end && end <= m, "invalid row range {start}..{end} for {m} rows");
        Tensor { shape: vec![end - start, n], data: self.data[start * n..end * n].to_vec() }
    }

    /// Concatenates 2-D tensors along the column axis.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        let mut out = Tensor::default();
        Self::concat_cols_into(parts, &mut out);
        out
    }

    /// [`Tensor::concat_cols`] writing into `out` (resized in place).
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or row counts differ.
    pub fn concat_cols_into(parts: &[&Tensor], out_t: &mut Tensor) {
        assert!(!parts.is_empty(), "concat_cols requires at least one tensor");
        let m = parts[0].shape[0];
        for p in parts {
            assert_eq!(p.shape.len(), 2, "concat_cols requires 2-D tensors");
            assert_eq!(p.shape[0], m, "concat_cols row count mismatch");
        }
        let total: usize = parts.iter().map(|p| p.shape[1]).sum();
        out_t.resize_to(&[m, total]);
        let out = out_t.data.as_mut_slice();
        for i in 0..m {
            let mut off = 0;
            for p in parts {
                let n = p.shape[1];
                out[i * total + off..i * total + off + n]
                    .copy_from_slice(&p.data[i * n..(i + 1) * n]);
                off += n;
            }
        }
    }

    /// Frobenius norm of the tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Returns `true` when every element of `self` is within `tol` of the
    /// corresponding element of `other` and shapes match.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self.data.iter().zip(other.data.iter()).all(|(a, b)| (a - b).abs() <= tol)
    }

    /// [`Tensor::add`] writing into `out` (resized in place).
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn add_into(&self, rhs: &Tensor, out: &mut Tensor) {
        self.zip_into(rhs, "add", crate::simd::BinOp::Add, out);
    }

    /// [`Tensor::sub`] writing into `out` (resized in place).
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn sub_into(&self, rhs: &Tensor, out: &mut Tensor) {
        self.zip_into(rhs, "sub", crate::simd::BinOp::Sub, out);
    }

    /// [`Tensor::mul`] writing into `out` (resized in place).
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn mul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        self.zip_into(rhs, "mul", crate::simd::BinOp::Mul, out);
    }

    /// [`Tensor::scale`] writing into `out` (resized in place).
    pub fn scale_into(&self, c: f32, out_t: &mut Tensor) {
        out_t.resize_to(&self.shape);
        chunked_slice_op(&self.data, &mut out_t.data, 1, |s, d| crate::simd::scale_slice(s, c, d));
    }

    /// [`Tensor::map`] writing into `out` (resized in place).
    pub fn map_into<F: Fn(f32) -> f32 + Sync>(&self, f: F, out_t: &mut Tensor) {
        out_t.resize_to(&self.shape);
        chunked_slice_op(&self.data, &mut out_t.data, MAP_OPS, |src, dst| {
            for (d, &x) in dst.iter_mut().zip(src.iter()) {
                *d = f(x);
            }
        });
    }

    fn zip_into(
        &self,
        rhs: &Tensor,
        op: &'static str,
        kind: crate::simd::BinOp,
        out_t: &mut Tensor,
    ) {
        assert_eq!(
            self.shape, rhs.shape,
            "shape mismatch in {op}: {:?} vs {:?}",
            self.shape, rhs.shape
        );
        out_t.resize_to(&self.shape);
        chunked_op(&mut out_t.data, CHUNK_ELEMS, 1, |c, chunk| {
            let span = c * CHUNK_ELEMS..c * CHUNK_ELEMS + chunk.len();
            crate::simd::binary_slice(kind, &self.data[span.clone()], &rhs.data[span], chunk);
        });
    }

    fn zip_with(&self, rhs: &Tensor, op: &'static str, kind: crate::simd::BinOp) -> Tensor {
        let mut out = Tensor::default();
        self.zip_into(rhs, op, kind, &mut out);
        out
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[1])
    }
}

/// Derivative of the tanh-approximated GELU ([`crate::fastmath::gelu_fast`],
/// the canonical forward of [`Tensor::gelu`] and the tape op) with respect to
/// its input, differentiating the same
/// [`crate::fastmath::tanh_fast`]-based forward. The lane-parallel backward
/// in [`crate::simd`] evaluates the identical operation sequence, so both
/// are bit-identical.
pub(crate) fn gelu_grad_scalar(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    let inner = SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x);
    let t = crate::fastmath::tanh_fast(inner);
    let dinner = SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[2, 2]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 4], &[2, 2]).is_ok());
        assert!(Tensor::from_vec(vec![], &[]).is_err());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let i = Tensor::eye(4);
        assert!(a.matmul(&i).allclose(&a, 1e-6));
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), &[3, 2]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = a.softmax_rows();
        for i in 0..2 {
            let sum: f32 = (0..3).map(|j| s.at(i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let b = a.add_scalar(100.0);
        assert!(a.softmax_rows().allclose(&b.softmax_rows(), 1e-5));
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let a = Tensor::from_vec(vec![0.3, -1.2, 2.0, 0.7], &[2, 2]).unwrap();
        let ls = a.log_softmax_rows();
        let s = a.softmax_rows().map(|x| x.ln());
        assert!(ls.allclose(&s, 1e-5));
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &[2, 4]).unwrap();
        let gamma = Tensor::ones(&[4]);
        let beta = Tensor::zeros(&[4]);
        let out = a.layer_norm_rows(&gamma, &beta, 1e-5);
        for i in 0..2 {
            let mean: f32 = (0..4).map(|j| out.at(i, j)).sum::<f32>() / 4.0;
            let var: f32 = (0..4).map(|j| (out.at(i, j) - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn mean_rows_and_argmax() {
        let a = Tensor::from_vec(vec![1.0, 5.0, 3.0, 3.0], &[2, 2]).unwrap();
        let m = a.mean_rows();
        assert_eq!(m.shape(), &[1, 2]);
        assert!((m.at(0, 0) - 2.0).abs() < 1e-6);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn slice_and_concat_roundtrip() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let left = a.slice_cols(0, 2);
        let right = a.slice_cols(2, 4);
        let back = Tensor::concat_cols(&[&left, &right]);
        assert_eq!(back, a);
    }

    #[test]
    fn slice_rows_extracts_contiguous_block() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]).unwrap();
        let mid = a.slice_rows(1, 3);
        assert_eq!(mid.shape(), &[2, 3]);
        assert_eq!(mid.at(0, 0), 3.0);
    }

    #[test]
    fn gelu_basic_properties() {
        let a = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[1, 3]).unwrap();
        let g = a.gelu();
        assert!(g.at(0, 0) < 0.0 && g.at(0, 0) > -0.2);
        assert!((g.at(0, 2) - 2.0).abs() < 0.1);
    }

    #[test]
    fn add_row_broadcast_adds_bias() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let out = a.add_row_broadcast(&b);
        assert_eq!(out.at(1, 2), 3.0);
    }

    #[test]
    fn in_place_and_into_forms_match_the_value_returning_ops() {
        // Compares row-kernel bits: no backend switch in between.
        let _g = crate::simd::tests::guard();
        let a =
            Tensor::from_vec((0..600).map(|i| (i as f32 * 0.37).sin() * 3.0).collect(), &[2, 300])
                .unwrap();
        let b =
            Tensor::from_vec((0..300).map(|i| (i as f32 * 0.11).cos()).collect(), &[300]).unwrap();
        // Stale contents and a stale shape must not show through.
        let mut out = Tensor::full(&[7, 5], f32::NAN);
        let (gamma, beta) = (b.scale(0.5), b.scale(-0.25));
        a.add_layer_norm_rows_into(&a.scale(0.3), &gamma, &beta, 1e-5, &mut out);
        assert_eq!(out, a.add_layer_norm_rows(&a.scale(0.3), &gamma, &beta, 1e-5));
        let mut y = a.clone();
        y.add_row_broadcast_in_place(&b);
        assert_eq!(y, a.add_row_broadcast(&b));
        y.gelu_in_place();
        assert_eq!(y, a.add_row_broadcast(&b).gelu());
    }

    #[test]
    fn display_never_empty() {
        let t = Tensor::zeros(&[1]);
        assert!(!format!("{t}").is_empty());
        assert!(!format!("{t:?}").is_empty());
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_panics_on_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }
}
