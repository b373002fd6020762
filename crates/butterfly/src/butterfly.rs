//! Learnable butterfly factor matrices and the butterfly linear transform.
//!
//! A butterfly matrix of size `N = 2^L` is the product of `L` sparse butterfly
//! factor matrices; factor `s` (with half-block size `2^s`) pairs elements at
//! distance `2^s` inside blocks of size `2^{s+1}` and mixes each pair through
//! a trainable 2×2 matrix (the paper's Section II-B). Multiplying a vector by
//! the full butterfly matrix therefore costs `O(N log N)` instead of `O(N^2)`.
//!
//! Two routes run the stages. A single vector ([`ButterflyMatrix::forward`])
//! goes through [`ButterflyStage::apply_in_place`], SIMD lanes along the
//! vector. Everything batched — [`ButterflyMatrix::forward_rows_fused_into`]
//! and the gradients of [`ButterflyMatrix::backward_rows_padded_into`] — runs
//! the lanes across independent rows instead: the engine of
//! [`fab_tensor::simd`] that the 2-D FFT of [`crate::fft`] runs on as well,
//! there with a complex twiddle as the pair operation. The two routes agree
//! bit for bit.

use crate::{log2_exact, ButterflyError};
use fab_tensor::simd;
use fab_tensor::{Tensor, PAR_GRAIN_OPS};
use rand::rngs::StdRng;
use rand::Rng;

/// Target elements per parallel row chunk.
const CHUNK_ELEMS: usize = 1 << 13;

/// Rows per tile of the batched backward, and partial sums per chunk of its
/// weight gradient: one `f32x16` per lane row on AVX-512, two `f32x8` on
/// AVX2, sixteen one-lane columns on the scalar backend. Fixed on every
/// backend rather than taken from [`simd::Backend::lanes`]: the weight
/// gradient sums across rows, so the tile width is part of the result.
const GRAD_TILE: usize = 16;

/// Fewest tiles per chunk of the batched backward. Each stage of a chunk
/// fills and folds `2 · n · GRAD_TILE` accumulators once, whatever the
/// chunk's tiles, so the fold stays a small share of the stage work at
/// every `n` — the per-chunk cost that one-tile chunks at large `n` made a
/// cliff.
const GRAD_CHUNK_TILES: usize = 4;

/// Rows per chunk of the batched backward: whole tiles, `CHUNK_ELEMS / n`
/// rows or [`GRAD_CHUNK_TILES`] tiles, whichever is more — a function of
/// `n` alone, so the weight gradient's summation order is the same at every
/// thread count.
fn grad_chunk_rows(n: usize) -> usize {
    (CHUNK_ELEMS / n).max(GRAD_CHUNK_TILES * GRAD_TILE).next_multiple_of(GRAD_TILE)
}

/// Rows per parallel chunk of a pass over `[n][lanes]` tiles: about
/// [`CHUNK_ELEMS`] values of tile, in whole tiles.
pub(crate) fn lane_chunk_rows(n: usize, lanes: usize) -> usize {
    (CHUNK_ELEMS / n).max(1).next_multiple_of(lanes)
}

/// One butterfly factor (stage): a block-diagonal matrix of 2×2 blocks of
/// diagonal matrices with half-block size `half`, viewed in place in one
/// `[w1 | w2 | w3 | w4]` row of its matrix's weights.
///
/// For pair index `p`, the paired element indices are
/// `i1 = (p / half) * 2 * half + (p % half)` and `i2 = i1 + half`, and the
/// stage computes
///
/// ```text
/// out[i1] = w1[p] * in[i1] + w2[p] * in[i2]
/// out[i2] = w3[p] * in[i1] + w4[p] * in[i2]
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ButterflyStage<'a> {
    half: usize,
    w1: &'a [f32],
    w2: &'a [f32],
    w3: &'a [f32],
    w4: &'a [f32],
}

impl<'a> ButterflyStage<'a> {
    /// The stage with half-block size `half` over one weight row, its four
    /// quarters being `w1`, `w2`, `w3` and `w4`.
    fn new(half: usize, row: &'a [f32]) -> Self {
        let pairs = row.len() / 4;
        let (w1, rest) = row.split_at(pairs);
        let (w2, rest) = rest.split_at(pairs);
        let (w3, w4) = rest.split_at(pairs);
        Self { half, w1, w2, w3, w4 }
    }

    /// Number of butterfly pairs in this stage.
    pub fn pairs(&self) -> usize {
        self.w1.len()
    }

    /// Returns the `(i1, i2)` element indices paired by butterfly `p`.
    pub fn pair_indices(&self, p: usize) -> (usize, usize) {
        let block = p / self.half;
        let offset = p % self.half;
        let i1 = block * 2 * self.half + offset;
        (i1, i1 + self.half)
    }

    /// Returns the four twiddle weights of pair `p` as `(w1, w2, w3, w4)`.
    pub fn weights(&self, p: usize) -> (f32, f32, f32, f32) {
        (self.w1[p], self.w2[p], self.w3[p], self.w4[p])
    }

    /// Applies the stage to a vector in place.
    ///
    /// Walks the blocks with `split_at_mut` slices instead of computing
    /// `pair_indices` per pair, so the inner loop is branch- and
    /// division-free, and runs each block through the dispatched
    /// [`fab_tensor::simd`] pair kernel (vector lanes for `half` at or above
    /// the backend width, identical scalar arithmetic below it). The first
    /// two stages (`half` of 1 and 2), whose blocks are too small to
    /// amortise per-block slicing, use dedicated unrolled loops — the
    /// arithmetic per pair is identical in every path, so results are
    /// bit-equal across backends and block sizes.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != 2 * pairs`.
    pub(crate) fn apply_in_place(&self, x: &mut [f32]) {
        assert_eq!(x.len(), 2 * self.pairs(), "stage input length mismatch");
        let half = self.half;
        match half {
            1 => {
                for (p, pair) in x.chunks_exact_mut(2).enumerate() {
                    let (a, b) = (pair[0], pair[1]);
                    pair[0] = self.w1[p] * a + self.w2[p] * b;
                    pair[1] = self.w3[p] * a + self.w4[p] * b;
                }
            }
            2 => {
                for (block, quad) in x.chunks_exact_mut(4).enumerate() {
                    let p = 2 * block;
                    let (a0, b0) = (quad[0], quad[2]);
                    let (a1, b1) = (quad[1], quad[3]);
                    quad[0] = self.w1[p] * a0 + self.w2[p] * b0;
                    quad[2] = self.w3[p] * a0 + self.w4[p] * b0;
                    quad[1] = self.w1[p + 1] * a1 + self.w2[p + 1] * b1;
                    quad[3] = self.w3[p + 1] * a1 + self.w4[p + 1] * b1;
                }
            }
            _ => {
                // SoA pair update over contiguous lo/hi halves — the ideal
                // SIMD shape. The whole stage (block loop included) runs in
                // one dispatched kernel; its scalar arm and its tail for
                // `half` below the vector width run the identical
                // mul-then-add arithmetic, so results are bit-equal across
                // backends and to the seed loop.
                simd::butterfly_stage_in_place(half, self.w1, self.w2, self.w3, self.w4, x);
            }
        }
    }

    /// The stage over the rows `from..from + buf.len() / lanes` of a
    /// `[n][lanes]` tile, `from` a multiple of the block size.
    fn lanes(&self, from: usize, buf: &mut [f32], lanes: usize) {
        let (p0, p1) = (from / 2, (from + buf.len() / lanes) / 2);
        let (w1, w2, w3, w4) =
            (&self.w1[p0..p1], &self.w2[p0..p1], &self.w3[p0..p1], &self.w4[p0..p1]);
        simd::butterfly_stage_lanes(self.half, w1, w2, w3, w4, buf, lanes);
    }

    /// The seed's generic out-of-place stage application, kept verbatim as
    /// part of the reference backward path (the seed's backward recomputed
    /// activations through exactly this loop). Bit-identical to
    /// [`ButterflyStage::apply_in_place`].
    fn apply_into_reference(&self, src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), 2 * self.pairs(), "stage input length mismatch");
        assert_eq!(dst.len(), src.len(), "stage output length mismatch");
        let half = self.half;
        let mut p = 0;
        for (sblock, dblock) in src.chunks(2 * half).zip(dst.chunks_mut(2 * half)) {
            let (slo, shi) = sblock.split_at(half);
            let (dlo, dhi) = dblock.split_at_mut(half);
            let (w1, w2) = (&self.w1[p..p + half], &self.w2[p..p + half]);
            let (w3, w4) = (&self.w3[p..p + half], &self.w4[p..p + half]);
            for (i, ((&a, &b), (l, h))) in
                slo.iter().zip(shi.iter()).zip(dlo.iter_mut().zip(dhi.iter_mut())).enumerate()
            {
                *l = w1[i] * a + w2[i] * b;
                *h = w3[i] * a + w4[i] * b;
            }
            p += half;
        }
    }
}

/// A trainable butterfly matrix of power-of-two size `n`, stored as its
/// `[log2 n, 2 n]` weight rows: row `s` is stage `s`'s `[w1 | w2 | w3 | w4]`,
/// `n / 2` values each — the layout of the training parameter, of
/// [`ButterflyMatrix::to_weight_tensor`] and of the stored model, so no
/// conversion sits between them.
///
/// `W` holds the rows: an owned `Vec<f32>` by default, or a borrowed
/// `&[f32]` (`ButterflyMatrix::view`) that runs the kernels on a weight
/// tensor in place, as the tape operators of [`crate::butterfly_linear_op`]
/// do.
///
/// # Example
///
/// ```rust
/// use fab_butterfly::ButterflyMatrix;
/// let b = ButterflyMatrix::identity(8);
/// let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
/// assert_eq!(b.forward(&x), x);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ButterflyMatrix<W = Vec<f32>> {
    n: usize,
    w: W,
}

/// The transform size `n` of a `[log2 n, 2 n]` weight shape.
fn weight_size(shape: &[usize]) -> Result<usize, ButterflyError> {
    let &[stages, cols] = shape else {
        return Err(ButterflyError::WeightShapeMismatch {
            expected: vec![0, 0],
            got: shape.to_vec(),
        });
    };
    let n = cols / 2;
    if n >= 2 && n.is_power_of_two() && cols == 2 * n && log2_exact(n) == stages {
        Ok(n)
    } else {
        Err(ButterflyError::WeightShapeMismatch {
            expected: vec![stages, 2 * n],
            got: shape.to_vec(),
        })
    }
}

impl ButterflyMatrix {
    /// Creates the identity butterfly matrix of size `n`.
    ///
    /// # Errors
    ///
    /// Returns [`ButterflyError::NotPowerOfTwo`] when `n` is not a power of
    /// two greater than or equal to 2.
    pub(crate) fn try_identity(n: usize) -> Result<Self, ButterflyError> {
        if n < 2 || !n.is_power_of_two() {
            return Err(ButterflyError::NotPowerOfTwo { size: n });
        }
        let mut w = vec![0.0; log2_exact(n) * 2 * n];
        for row in w.chunks_exact_mut(2 * n) {
            row[..n / 2].fill(1.0);
            row[3 * n / 2..].fill(1.0);
        }
        Ok(Self { n, w })
    }

    /// Creates the identity butterfly matrix of size `n`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is not a power of two greater than or equal to 2.
    pub fn identity(n: usize) -> Self {
        Self::try_identity(n).expect("butterfly size must be a power of two")
    }

    /// Creates a random butterfly matrix whose expansion approximately
    /// preserves activation scale (each 2×2 block is sampled near a rotation).
    ///
    /// # Errors
    ///
    /// Returns [`ButterflyError::NotPowerOfTwo`] when `n` is invalid.
    pub fn random(n: usize, rng: &mut StdRng) -> Result<Self, ButterflyError> {
        let mut m = Self::try_identity(n)?;
        let half_n = n / 2;
        for row in m.w.chunks_exact_mut(2 * n) {
            for p in 0..half_n {
                // Sample close to an orthonormal 2x2 block: rotation plus noise.
                let theta: f32 = rng.gen_range(-std::f32::consts::PI..std::f32::consts::PI);
                let noise = 0.05f32;
                row[p] = theta.cos() + rng.gen_range(-noise..noise);
                row[half_n + p] = -theta.sin() + rng.gen_range(-noise..noise);
                row[2 * half_n + p] = theta.sin() + rng.gen_range(-noise..noise);
                row[3 * half_n + p] = theta.cos() + rng.gen_range(-noise..noise);
            }
        }
        Ok(m)
    }

    /// Reconstructs a butterfly matrix from a `[log2 n, 2 n]` weight tensor:
    /// a copy of its data.
    ///
    /// # Errors
    ///
    /// Returns [`ButterflyError::WeightShapeMismatch`] when the tensor shape
    /// does not correspond to a valid power-of-two butterfly layout.
    pub fn from_weight_tensor(w: &Tensor) -> Result<Self, ButterflyError> {
        Self::try_from(w.clone())
    }
}

/// Takes a `[log2 n, 2 n]` weight tensor's data without copying it.
impl TryFrom<Tensor> for ButterflyMatrix {
    type Error = ButterflyError;

    fn try_from(w: Tensor) -> Result<Self, ButterflyError> {
        Ok(Self { n: weight_size(w.shape())?, w: w.into_vec() })
    }
}

impl<'a> ButterflyMatrix<&'a [f32]> {
    /// Borrows a `[log2 n, 2 n]` weight tensor as a butterfly matrix, in
    /// place.
    ///
    /// # Errors
    ///
    /// Returns [`ButterflyError::WeightShapeMismatch`] exactly like
    /// [`ButterflyMatrix::from_weight_tensor`].
    pub(crate) fn view(w: &'a Tensor) -> Result<Self, ButterflyError> {
        Ok(Self { n: weight_size(w.shape())?, w: w.as_slice() })
    }
}

impl<W: AsRef<[f32]> + Sync> ButterflyMatrix<W> {
    /// Transform size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Number of butterfly stages (`log2 n`).
    pub fn num_stages(&self) -> usize {
        self.n.trailing_zeros() as usize
    }

    /// Whether `passes` butterfly transforms of `rows` rows (1 for a
    /// forward, 3 for a backward: the input gradient plus the two weight
    /// gradient products per stage) reach the workspace fan-out grain.
    pub(crate) fn fans_out(&self, rows: usize, passes: u64) -> bool {
        passes * crate::flops::butterfly_linear_flops(rows, self.n) >= PAR_GRAIN_OPS
    }

    /// Stage `s`, the butterfly factor with half-block size `2^s`.
    ///
    /// # Panics
    ///
    /// Panics when `s >= num_stages()`.
    pub fn stage(&self, s: usize) -> ButterflyStage<'_> {
        let row = 2 * self.n;
        ButterflyStage::new(1 << s, &self.w.as_ref()[s * row..(s + 1) * row])
    }

    /// The individual butterfly factors, ordered from smallest to largest
    /// half-block size (application order).
    pub fn stages(
        &self,
    ) -> impl DoubleEndedIterator<Item = ButterflyStage<'_>> + ExactSizeIterator + '_ {
        (0..self.num_stages()).map(|s| self.stage(s))
    }

    /// The weights in their `[log2 n, 2 n]` row layout, the data of
    /// [`ButterflyMatrix::to_weight_tensor`].
    pub fn as_slice(&self) -> &[f32] {
        self.w.as_ref()
    }

    /// Total number of trainable parameters: `2 n log2 n`.
    pub fn num_params(&self) -> usize {
        2 * self.n * self.num_stages()
    }

    /// Applies the butterfly matrix to a vector.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.size()`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.n, "butterfly input length mismatch");
        let mut v = x.to_vec();
        for stage in self.stages() {
            stage.apply_in_place(&mut v);
        }
        v
    }

    /// Applies the butterfly matrix to every row of a `[rows, n]` tensor
    /// ([`ButterflyMatrix::forward_rows_into`] into a fresh tensor).
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D with `n` columns.
    pub fn forward_rows(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.forward_rows_into(x, &mut out);
        out
    }

    /// [`ButterflyMatrix::forward_rows`] writing into `out` (resized in
    /// place; no allocation once `out`'s capacity suffices). Row `r` of the
    /// result is bit-identical to `forward(row r)`.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D with `n` columns.
    pub fn forward_rows_into(&self, x: &Tensor, out: &mut Tensor) {
        assert_eq!(x.cols(), self.n, "butterfly row width mismatch");
        self.forward_rows_fused_into(x, self.n, &[], out);
    }

    /// The whole butterfly linear layer over rows, the one batched forward
    /// route of this type: `out[r] = (B · pad(x[r]))[..d_out] + bias` for a
    /// `[rows, d_in]` input with `d_in <= n`, where an empty `bias` adds
    /// nothing. It collapses the `concat → butterfly → slice → bias` chain
    /// of the padded butterfly layer into one kernel, bit-identical to
    /// zero-padding, [`ButterflyMatrix::forward`] per row, slicing and
    /// adding the bias. (A butterfly FFN, whose first layer ends in GELU,
    /// runs as [`crate::ButterflyFfn`] instead.)
    ///
    /// Rows are processed in tiles of as many rows as the SIMD backend has
    /// lanes ([`simd::Backend::lanes`]: 16 where the CPU has `avx512f`, so a
    /// 512-point tile is 32 KB): a tile is transposed to `[n][lanes]`, every
    /// stage is then one
    /// vertical `w1·a + w2·b` / `w3·a + w4·b` with the pair's weights loaded
    /// once and broadcast ([`simd::butterfly_stage_lanes`] — stages with
    /// `half` 1, 2 and 4 are no different), and bias and truncation are
    /// applied while the tile is transposed back
    /// ([`simd::lanes_to_rows`]). Batches that reach the fan-out grain are
    /// split on tile boundaries; no split changes any output bit.
    ///
    /// The padding is not transformed row by row. With `live` the next
    /// power of two at or above `d_in`, tile rows `live..n` do not depend on
    /// `x` until the stage that pairs them with a live row: before the stage
    /// with `half = h >= live`, rows `h..2h` hold what the earlier stages
    /// make of zeros — signed zeros, or NaN where a weight is not finite —
    /// the same in every tile. Those rows are computed once per call, by
    /// the same stage kernel over a zero tile, each stage runs on the rows
    /// that are live by then (the prefix form of the stage kernel), and
    /// rows `h..2h` are copied in just before stage `h`. With `d_in == n`
    /// there is nothing to copy and every stage covers the tile.
    ///
    /// # Panics
    ///
    /// Panics when `d_in` or `d_out` exceed the transform size, `d_out` is
    /// zero, or `bias` is neither empty nor `d_out` long.
    pub fn forward_rows_fused_into(
        &self,
        x: &Tensor,
        d_out: usize,
        bias: &[f32],
        out: &mut Tensor,
    ) {
        let n = self.n;
        let (rows, d_in) = (x.rows(), x.cols());
        assert!(d_in <= n, "butterfly pad width {d_in} exceeds transform size {n}");
        assert!((1..=n).contains(&d_out), "butterfly output width {d_out} outside 1..={n}");
        assert!(bias.is_empty() || bias.len() == d_out, "butterfly bias length mismatch");
        out.resize_to(&[rows, d_out]);
        let lanes = simd::backend().lanes();
        crate::with_scratch(self.padding_values(d_in, lanes), |pad| {
            self.padding_lanes(d_in, pad, lanes);
            let pad = &*pad;
            let xs = x.as_slice();
            let run_rows = |r0: usize, chunk: &mut [f32]| {
                crate::with_scratch(n * lanes, |tile| {
                    for (t, orows) in chunk.chunks_mut(lanes * d_out).enumerate() {
                        let (r, nr) = (r0 + t * lanes, orows.len() / d_out);
                        simd::rows_to_lanes(&xs[r * d_in..], d_in, nr, d_in, &[], tile, lanes);
                        self.stages_lanes(d_in, pad, tile, lanes);
                        simd::lanes_to_rows(tile, lanes, nr, d_out, bias, orows, d_out);
                    }
                });
            };
            let data = out.as_mut_slice();
            if !self.fans_out(rows, 1) {
                run_rows(0, data);
            } else {
                let rows_per_chunk = lane_chunk_rows(n, lanes);
                rayon::fork_chunks_mut([(data, rows_per_chunk * d_out)], |c, [chunk]| {
                    run_rows(c * rows_per_chunk, chunk)
                });
            }
        });
    }

    /// Values of the padding rows [`ButterflyMatrix::padding_lanes`] writes
    /// for a `d_in`-wide input: tile rows `live..n`, `lanes` wide.
    pub(crate) fn padding_values(&self, d_in: usize, lanes: usize) -> usize {
        (self.n - d_in.next_power_of_two()) * lanes
    }

    /// Tile rows `live..n` of an all-zero `d_in`-wide input, `lanes` wide,
    /// into `pad` ([`ButterflyMatrix::padding_values`] long): a stage below
    /// `live` advances all of them; the stage with half `h` leaves rows
    /// `h..2h` as the tiles need them and advances the rest.
    pub(crate) fn padding_lanes(&self, d_in: usize, pad: &mut [f32], lanes: usize) {
        let live = d_in.next_power_of_two();
        pad.fill(0.0);
        for s in self.stages() {
            let from = live.max(2 * s.half);
            if from < self.n {
                s.lanes(from, &mut pad[(from - live) * lanes..], lanes);
            }
        }
    }

    /// Every stage on a `[n][lanes]` tile whose rows `0..d_in` hold the
    /// input, the rest anything: rows `d_in..live` are zeroed, and the
    /// padding rows `h..2h` of `pad` ([`ButterflyMatrix::padding_lanes`])
    /// are copied in just before the stage with half `h` pairs them with
    /// live rows. Each stage runs on the rows that are live by then.
    pub(crate) fn stages_lanes(&self, d_in: usize, pad: &[f32], tile: &mut [f32], lanes: usize) {
        let live = d_in.next_power_of_two();
        tile[d_in * lanes..live * lanes].fill(0.0);
        for s in self.stages() {
            let (h, m) = (s.half, live.max(2 * s.half));
            if h >= live {
                tile[h * lanes..m * lanes]
                    .copy_from_slice(&pad[(h - live) * lanes..(m - live) * lanes]);
            }
            s.lanes(0, &mut tile[..m * lanes], lanes);
        }
    }

    /// Backward pass for one vector: given the gradient with respect to the
    /// output, returns the gradient with respect to the input and the
    /// gradient with respect to the weight tensor (same layout as
    /// [`ButterflyMatrix::to_weight_tensor`]) — a one-row
    /// [`ButterflyMatrix::backward_rows`].
    ///
    /// # Panics
    ///
    /// Panics when `x` or `grad_out` are not `n` long.
    pub fn backward(&self, x: &[f32], grad_out: &[f32]) -> (Vec<f32>, Tensor) {
        let row = |v: &[f32]| {
            assert_eq!(v.len(), self.n, "butterfly vector length mismatch");
            Tensor::from_vec(v.to_vec(), &[1, self.n]).expect("one row of n values")
        };
        let (grad_x, grad_w) = self.backward_rows(&row(x), &row(grad_out));
        (grad_x.into_vec(), grad_w)
    }

    /// Batched backward pass over every row of `x` (shape `[rows, n]`) given
    /// the output gradients `grad_out` (same shape): returns `(grad_x,
    /// grad_w)` where `grad_x` has the shape of `x` and `grad_w` the
    /// `[log2 n, 2 n]` weight layout, summed over rows
    /// (`ButterflyMatrix::backward_rows_into` into fresh tensors).
    ///
    /// # Panics
    ///
    /// Panics when shapes do not match the butterfly size.
    pub fn backward_rows(&self, x: &Tensor, grad_out: &Tensor) -> (Tensor, Tensor) {
        let mut grad_x = Tensor::zeros(&[x.rows(), self.n]);
        let mut grad_w = Tensor::zeros(&[self.num_stages(), 2 * self.n]);
        self.backward_rows_into(x, grad_out, grad_x.as_mut_slice(), grad_w.as_mut_slice());
        (grad_x, grad_w)
    }

    /// [`ButterflyMatrix::backward_rows`] accumulating into caller-provided
    /// buffers: `grad_x` (length `rows · n`) and `grad_w` (length
    /// `log2 n · 2 n`) both receive `+=` contributions, so the kernel can
    /// write straight into the autodiff tape's reusable gradient buffers.
    /// The unpadded case of [`ButterflyMatrix::backward_rows_padded_into`].
    ///
    /// # Panics
    ///
    /// Panics when shapes do not match the butterfly size.
    pub(crate) fn backward_rows_into(
        &self,
        x: &Tensor,
        grad_out: &Tensor,
        grad_x: &mut [f32],
        grad_w: &mut [f32],
    ) {
        assert_eq!(x.cols(), self.n, "butterfly row width mismatch");
        assert_eq!(grad_out.shape(), x.shape(), "gradient shape mismatch");
        self.backward_rows_padded_into(x, grad_out, grad_x, grad_w);
    }

    /// The gradients of [`ButterflyMatrix::forward_rows_fused_into`] without
    /// its bias and activation, and the one batched backward route of this
    /// type: `x` is `[rows, d_in]` (implicitly zero-padded to the transform
    /// size), `grad_out` is `[rows, d_out]` (the truncated output columns
    /// receive zero gradient). The `[rows, d_in]` input gradient is added
    /// into `grad_x` and the `[log2 n, 2 n]` weight gradient into `grad_w`;
    /// neither padded tensor is ever materialised.
    ///
    /// Rows go through the lane engine in tiles of 16 on every backend
    /// (`GRAD_TILE`: one `f32x16` per lane row on AVX-512, two `f32x8` on
    /// AVX2, sixteen one-lane columns on the scalar backend), the tiles of a
    /// chunk side by side in each lane row so that every stage is one call
    /// over all of them. The forward is recomputed as
    /// [`ButterflyMatrix::forward_rows_fused_into`] computes it, keeping
    /// every stage's input: each stage runs out of place
    /// ([`simd::butterfly_stage_lanes_into`]) on the rows that are live by
    /// then, and the padding rows of the stage inputs — what the stages
    /// make of the zero columns `d_in..n` before they pair them with a live
    /// row, the same in every tile — are computed once per call and copied
    /// into the rows a stage pairs with live ones. The stages then run in
    /// reverse ([`simd::butterfly_stage_backward_lanes`], padding rows read
    /// from the first tile), each turning the gradient of its output into
    /// that of its input and adding its `g · input` products to per-lane
    /// accumulators. Row `r`'s input gradient involves no other row and is
    /// bit-identical to [`ButterflyMatrix::backward`] of that row. (The
    /// backward stages skip nothing: a product `g · 0` is NaN when `g` is
    /// not finite, so no pair is structurally zero there without reading
    /// it.)
    ///
    /// The weight gradient is a sum over rows, and this is **the** order it
    /// is taken in, on every backend, at every `RAYON_NUM_THREADS` and
    /// whether or not the call fans out: rows are cut into chunks of whole
    /// tiles whose size depends on `n` alone (`CHUNK_ELEMS / n` rows, at
    /// least four tiles); inside a chunk the row at offset `i` adds its
    /// products to partial sum `i mod 16`, rows in ascending order; the
    /// chunk's gradient is the sixteen partials folded by halves — `q_k =
    /// p_k + p_{k+8}`, `r_k = q_k + q_{k+4}`, `s_k = r_k + r_{k+2}`, `s_0 +
    /// s_1` ([`simd::fold_lanes16`]); and the chunks are added to `grad_w`
    /// in ascending order. `ButterflyMatrix::backward_rows_reference_into`
    /// spells the same sum out on plain scalar loops. A partial last tile's
    /// unused lanes add nothing, also where a weight is not finite.
    ///
    /// # Panics
    ///
    /// Panics when widths exceed the transform size, row counts differ, or
    /// a gradient buffer has the wrong length.
    pub fn backward_rows_padded_into(
        &self,
        x: &Tensor,
        grad_out: &Tensor,
        grad_x: &mut [f32],
        grad_w: &mut [f32],
    ) {
        let n = self.n;
        let (rows, d_in, d_out) = (x.rows(), x.cols(), grad_out.cols());
        assert!(d_in <= n, "butterfly pad width {d_in} exceeds transform size {n}");
        assert!(d_out <= n, "butterfly gradient width {d_out} exceeds transform size {n}");
        assert_eq!(grad_out.rows(), rows, "gradient row count mismatch");
        assert_eq!(grad_x.len(), rows * d_in, "input gradient length mismatch");
        let gw_len = self.num_stages() * 2 * n;
        assert_eq!(grad_w.len(), gw_len, "weight gradient length mismatch");
        let rows_per_chunk = grad_chunk_rows(n);
        let gx_len = rows_per_chunk * d_in;
        crate::with_scratch(self.num_stages() * n * GRAD_TILE, |pad| {
            self.pad_stage_inputs(d_in, pad);
            let pad = &*pad;
            if !self.fans_out(rows, 3) {
                for (c, gx) in grad_x.chunks_mut(gx_len).enumerate() {
                    self.backward_chunk(x, grad_out, c * rows_per_chunk, gx, pad, grad_w, true);
                }
                return;
            }
            crate::with_scratch(grad_x.len().div_ceil(gx_len) * gw_len, |partials| {
                rayon::fork_chunks_mut(
                    [(grad_x, gx_len), (partials, gw_len)],
                    |c, [gx, partial]| {
                        let r0 = c * rows_per_chunk;
                        self.backward_chunk(x, grad_out, r0, gx, pad, partial, false);
                    },
                );
                for partial in partials.chunks(gw_len) {
                    simd::add_acc(grad_w, partial);
                }
            });
        });
    }

    /// Computes the padding of every stage input of one tile, `[stages][n][T]`
    /// (other rows untouched): rows `d_in..n` of stage 0's input are zero,
    /// and with `live` the next power of two at or above `d_in`, rows
    /// `live.max(2 · half)..n` of the input of the stage after the one with
    /// `half` are that stage applied to the same rows of its own input. They
    /// are the same in every tile; [`ButterflyMatrix::padding_from`] gives
    /// where they start.
    fn pad_stage_inputs(&self, d_in: usize, pad: &mut [f32]) {
        const T: usize = GRAD_TILE;
        let (n, tile) = (self.n, self.n * T);
        let live = d_in.next_power_of_two();
        pad[d_in * T..tile].fill(0.0);
        for (s, stage) in self.stages().take(self.num_stages() - 1).enumerate() {
            let from = live.max(2 * stage.half);
            if from < n {
                let (seen, next) = pad[s * tile..].split_at_mut(tile);
                let p = from / 2;
                let (w1, w2, w3, w4) =
                    (&stage.w1[p..], &stage.w2[p..], &stage.w3[p..], &stage.w4[p..]);
                let (src, dst) = (&seen[from * T..], &mut next[from * T..tile]);
                simd::butterfly_stage_lanes_into(stage.half, w1, w2, w3, w4, src, dst, T);
            }
        }
    }

    /// The first padding row of stage `s`'s input for an input `d_in`
    /// wide: `d_in` for the first stage, else `live.max(2 · half)` of the
    /// stage before, `live` being the next power of two at or above `d_in`.
    fn padding_from(&self, s: usize, d_in: usize) -> usize {
        match s {
            0 => d_in,
            _ => d_in.next_power_of_two().max(2 * self.stage(s - 1).half),
        }
    }

    /// One chunk of [`ButterflyMatrix::backward_rows_padded_into`]: the rows
    /// from `r0` on that `gx` has room for, with the stage inputs' padding
    /// rows from [`ButterflyMatrix::pad_stage_inputs`]. Adds their input
    /// gradients into `gx`, and the chunk's weight gradient into `gw`
    /// (`add`) or over it.
    ///
    /// The chunk's tiles sit side by side: row `i` of every buffer holds
    /// element `i` of all the chunk's rows, `tiles · T` lanes, so that each
    /// stage, forward or backward, is one call over every tile.
    #[allow(clippy::too_many_arguments)]
    fn backward_chunk(
        &self,
        x: &Tensor,
        grad_out: &Tensor,
        r0: usize,
        gx: &mut [f32],
        pad: &[f32],
        gw: &mut [f32],
        add: bool,
    ) {
        const T: usize = GRAD_TILE;
        let n = self.n;
        let (d_in, d_out) = (x.cols(), grad_out.cols());
        let (xs, gs) = (x.as_slice(), grad_out.as_slice());
        let stages = self.num_stages();
        let live = d_in.next_power_of_two();
        let rows = gx.len() / d_in;
        let width = rows.next_multiple_of(T);
        // `[stages][n][width]` stage inputs, the `[n][width]` gradient, and
        // one stage's `[4][pairs][T]` accumulators.
        let slab = n * width;
        crate::with_scratch((stages + 1) * slab + 2 * n * T + rows * d_in + 2 * n, |buf| {
            let (inputs, buf) = buf.split_at_mut(stages * slab);
            let (grad, buf) = buf.split_at_mut(slab);
            let (acc, buf) = buf.split_at_mut(2 * n * T);
            let (dx, sums) = buf.split_at_mut(rows * d_in);
            // Recompute the forward on the live rows, out of place, keeping
            // the input of every stage.
            simd::rows_to_lanes(&xs[r0 * d_in..], d_in, rows, d_in, &[], inputs, width);
            for (s, stage) in self.stages().enumerate() {
                // Rows `from..m` are padding the stage pairs with live rows,
                // wanted in every tile; rows `m..n` stay padding through it
                // and are read from the first tile only.
                let last = s + 1 == stages;
                let from = self.padding_from(s, d_in);
                let m = if last { from } else { live.max(2 * stage.half) };
                let (seen, next) = inputs[s * slab..].split_at_mut(slab);
                let pad = &pad[s * n * T..(s + 1) * n * T];
                for (i, row) in seen.chunks_exact_mut(width).enumerate().skip(from) {
                    let values = &pad[i * T..(i + 1) * T];
                    let tiles = if i < m { width } else { T };
                    for lanes in row[..tiles].chunks_exact_mut(T) {
                        lanes.copy_from_slice(values);
                    }
                }
                if !last {
                    let p = m / 2;
                    let (w1, w2, w3, w4) =
                        (&stage.w1[..p], &stage.w2[..p], &stage.w3[..p], &stage.w4[..p]);
                    let (src, dst) = (&seen[..m * width], &mut next[..m * width]);
                    simd::butterfly_stage_lanes_into(stage.half, w1, w2, w3, w4, src, dst, width);
                }
            }
            simd::rows_to_lanes(&gs[r0 * d_out..], d_out, rows, d_out, &[], grad, width);
            grad[d_out * width..].fill(0.0);
            // The stages in reverse, every tile at once; the lanes past
            // `rows` (a partial last tile's) add nothing.
            for (s, stage) in self.stages().enumerate().rev() {
                acc.fill(0.0);
                simd::butterfly_stage_backward_lanes(
                    stage.half,
                    stage.w1,
                    stage.w2,
                    stage.w3,
                    stage.w4,
                    &inputs[s * slab..(s + 1) * slab],
                    grad,
                    acc,
                    T,
                    rows,
                    self.padding_from(s, d_in),
                );
                // Fold each accumulator's lanes by halves.
                let gw_stage = &mut gw[s * 2 * n..(s + 1) * 2 * n];
                if add {
                    simd::fold_lanes16(acc, sums);
                    simd::add_acc(gw_stage, sums);
                } else {
                    simd::fold_lanes16(acc, gw_stage);
                }
            }
            simd::lanes_to_rows(grad, width, rows, d_in, &[], dx, d_in);
            simd::add_acc(gx, dx);
        });
    }

    /// [`ButterflyMatrix::backward_rows_into`] on the seed's scalar per-row
    /// stage loops, one row at a time and allocating as it goes — the oracle
    /// the lane route is validated against, and the baseline kernel of the
    /// training benches. Row `r`'s input gradient is the seed's arithmetic
    /// unchanged; its weight-gradient products land in the partial sum the
    /// order documented on [`ButterflyMatrix::backward_rows_padded_into`]
    /// assigns it.
    ///
    /// # Panics
    ///
    /// Panics when shapes do not match the butterfly size.
    pub(crate) fn backward_rows_reference_into(
        &self,
        x: &Tensor,
        grad_out: &Tensor,
        grad_x: &mut [f32],
        grad_w: &mut [f32],
    ) {
        let n = self.n;
        assert_eq!(x.cols(), n, "butterfly row width mismatch");
        assert_eq!(grad_out.shape(), x.shape(), "gradient shape mismatch");
        assert_eq!(grad_x.len(), x.rows() * n, "input gradient length mismatch");
        let stages = self.num_stages();
        let gw_len = stages * 2 * n;
        assert_eq!(grad_w.len(), gw_len, "weight gradient length mismatch");
        let mut states = vec![0.0f32; stages * n];
        let (mut grad, mut grad_tmp) = (vec![0.0f32; n], vec![0.0f32; n]);
        let mut partials = vec![0.0f32; GRAD_TILE * gw_len];
        let rows_per_chunk = grad_chunk_rows(n);
        let (xs, gs) = (x.as_slice(), grad_out.as_slice());
        for (c, gx_chunk) in grad_x.chunks_mut(rows_per_chunk * n).enumerate() {
            partials.fill(0.0);
            for (i, gx_row) in gx_chunk.chunks_mut(n).enumerate() {
                let r = c * rows_per_chunk + i;
                let (x_row, go_row) = (&xs[r * n..(r + 1) * n], &gs[r * n..(r + 1) * n]);
                let partial = i % GRAD_TILE;
                let gw = &mut partials[partial * gw_len..(partial + 1) * gw_len];
                self.backward_row_reference(
                    x_row,
                    go_row,
                    &mut states,
                    &mut grad,
                    &mut grad_tmp,
                    gw,
                );
                for (d, &v) in gx_row.iter_mut().zip(grad.iter()) {
                    *d += v;
                }
            }
            for (i, d) in grad_w.iter_mut().enumerate() {
                let mut p: [f32; GRAD_TILE] = std::array::from_fn(|k| partials[k * gw_len + i]);
                let mut half = GRAD_TILE / 2;
                while half > 0 {
                    for k in 0..half {
                        p[k] += p[k + half];
                    }
                    half /= 2;
                }
                *d += p[0];
            }
        }
    }

    /// [`ButterflyMatrix::backward_rows`] on the seed reference kernel.
    pub fn backward_rows_reference(&self, x: &Tensor, grad_out: &Tensor) -> (Tensor, Tensor) {
        let mut grad_x = Tensor::zeros(&[x.rows(), self.n]);
        let mut grad_w = Tensor::zeros(&[self.num_stages(), 2 * self.n]);
        self.backward_rows_reference_into(
            x,
            grad_out,
            grad_x.as_mut_slice(),
            grad_w.as_mut_slice(),
        );
        (grad_x, grad_w)
    }

    /// The seed's backward for one row, loops verbatim: recomputes the
    /// activations through [`ButterflyStage::apply_into_reference`] (slot `s`
    /// of `states` is the input of stage `s`), then walks the stages in
    /// reverse, adding the weight-gradient products into `gw` and leaving
    /// the input gradient in `grad`.
    fn backward_row_reference(
        &self,
        x: &[f32],
        grad_out: &[f32],
        states: &mut [f32],
        grad: &mut Vec<f32>,
        grad_tmp: &mut Vec<f32>,
        gw: &mut [f32],
    ) {
        let n = self.n;
        states[..n].copy_from_slice(x);
        for (s, stage) in self.stages().take(self.num_stages() - 1).enumerate() {
            let (src, rest) = states[s * n..].split_at_mut(n);
            stage.apply_into_reference(src, &mut rest[..n]);
        }
        grad.copy_from_slice(grad_out);
        let half_n = n / 2;
        for (s, stage) in self.stages().enumerate().rev() {
            let input = &states[s * n..(s + 1) * n];
            let gw = &mut gw[s * 2 * n..(s + 1) * 2 * n];
            let half = stage.half;
            let grad_in = &mut *grad_tmp;
            let mut p = 0;
            for block_start in (0..n).step_by(2 * half) {
                for off in 0..half {
                    let (i1, i2) = (block_start + off, block_start + off + half);
                    let (g1, g2) = (grad[i1], grad[i2]);
                    let (a, b) = (input[i1], input[i2]);
                    let pi = p + off;
                    gw[pi] += g1 * a;
                    gw[half_n + pi] += g1 * b;
                    gw[2 * half_n + pi] += g2 * a;
                    gw[3 * half_n + pi] += g2 * b;
                    let (w1, w2, w3, w4) = (stage.w1[pi], stage.w2[pi], stage.w3[pi], stage.w4[pi]);
                    grad_in[i1] = w1 * g1 + w3 * g2;
                    grad_in[i2] = w2 * g1 + w4 * g2;
                }
                p += half;
            }
            std::mem::swap(grad, grad_tmp);
        }
    }

    /// Expands the butterfly factorisation into a dense `n × n` matrix `B`
    /// such that `forward(x) = B x`.
    pub fn to_dense(&self) -> Tensor {
        let mut dense = Tensor::zeros(&[self.n, self.n]);
        for j in 0..self.n {
            let mut e = vec![0.0f32; self.n];
            e[j] = 1.0;
            let col = self.forward(&e);
            for (i, &v) in col.iter().enumerate() {
                dense.set(i, j, v);
            }
        }
        dense
    }

    /// Serialises the weights to a `[log2 n, 2 n]` tensor. Row `s` stores
    /// `[w1 | w2 | w3 | w4]`, each of length `n / 2`.
    pub fn to_weight_tensor(&self) -> Tensor {
        Tensor::from_vec(self.as_slice().to_vec(), &[self.num_stages(), 2 * self.n])
            .expect("log2 n rows of 2 n weights")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn identity_forward_is_noop() {
        let b = ButterflyMatrix::identity(16);
        let x: Vec<f32> = (0..16).map(|i| i as f32).collect();
        assert_eq!(b.forward(&x), x);
    }

    #[test]
    fn invalid_sizes_are_rejected() {
        assert!(ButterflyMatrix::try_identity(12).is_err());
        assert!(ButterflyMatrix::try_identity(0).is_err());
        assert!(ButterflyMatrix::try_identity(1).is_err());
        assert!(ButterflyMatrix::try_identity(2).is_ok());
    }

    #[test]
    fn parameter_count_is_2n_logn() {
        let b = ButterflyMatrix::identity(64);
        assert_eq!(b.num_params(), 2 * 64 * 6);
    }

    #[test]
    fn forward_matches_dense_expansion() {
        let mut rng = StdRng::seed_from_u64(11);
        let b = ButterflyMatrix::random(16, &mut rng).unwrap();
        let dense = b.to_dense();
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.17).sin()).collect();
        let fast = b.forward(&x);
        // dense * x (column-vector convention)
        for (i, &f) in fast.iter().enumerate() {
            let slow: f32 = (0..16).map(|j| dense.at(i, j) * x[j]).sum();
            assert!((slow - f).abs() < 1e-4, "row {i}: {slow} vs {f}");
        }
    }

    #[test]
    fn dense_expansion_is_not_low_rank_trivial() {
        // The butterfly product of log2(n) sparse factors should produce a
        // dense matrix (global connectivity), not a block-diagonal one.
        let mut rng = StdRng::seed_from_u64(3);
        let b = ButterflyMatrix::random(8, &mut rng).unwrap();
        let dense = b.to_dense();
        // Element coupling position 0 with position 7 must be reachable.
        assert!(dense.at(7, 0).abs() > 1e-8 || dense.at(0, 7).abs() > 1e-8);
    }

    #[test]
    fn weight_tensor_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let b = ButterflyMatrix::random(32, &mut rng).unwrap();
        let w = b.to_weight_tensor();
        assert_eq!(w.shape(), &[5, 64]);
        let b2 = ButterflyMatrix::from_weight_tensor(&w).unwrap();
        assert_eq!(b, b2);
    }

    #[test]
    fn from_weight_tensor_rejects_bad_shapes() {
        let w = Tensor::zeros(&[3, 10]);
        assert!(ButterflyMatrix::from_weight_tensor(&w).is_err());
        let w = Tensor::zeros(&[4, 16]); // implies n=8 but log2(8)=3 != 4
        assert!(ButterflyMatrix::from_weight_tensor(&w).is_err());
    }

    #[test]
    fn backward_input_gradient_matches_dense_transpose() {
        let mut rng = StdRng::seed_from_u64(17);
        let b = ButterflyMatrix::random(8, &mut rng).unwrap();
        let x: Vec<f32> = (0..8).map(|i| (i as f32 * 0.29).cos()).collect();
        let g: Vec<f32> = (0..8).map(|i| (i as f32 * 0.53).sin()).collect();
        let (grad_x, _) = b.backward(&x, &g);
        let dense = b.to_dense();
        for (j, &gx) in grad_x.iter().enumerate() {
            let expected: f32 = (0..8).map(|i| dense.at(i, j) * g[i]).sum();
            assert!((expected - gx).abs() < 1e-4);
        }
    }

    #[test]
    fn backward_weight_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(23);
        let b = ButterflyMatrix::random(8, &mut rng).unwrap();
        let x: Vec<f32> = (0..8).map(|i| (i as f32 * 0.41).sin()).collect();
        let g = vec![1.0f32; 8]; // loss = sum of outputs
        let (_, grad_w) = b.backward(&x, &g);
        let w = b.to_weight_tensor();
        let eps = 1e-3f32;
        for s in 0..w.rows() {
            for c in 0..w.cols() {
                let mut wp = w.clone();
                wp.set(s, c, w.at(s, c) + eps);
                let mut wm = w.clone();
                wm.set(s, c, w.at(s, c) - eps);
                let fp: f32 =
                    ButterflyMatrix::from_weight_tensor(&wp).unwrap().forward(&x).iter().sum();
                let fm: f32 =
                    ButterflyMatrix::from_weight_tensor(&wm).unwrap().forward(&x).iter().sum();
                let numeric = (fp - fm) / (2.0 * eps);
                let analytic = grad_w.at(s, c);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "stage {s} col {c}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn forward_rows_applies_per_row() {
        let mut rng = StdRng::seed_from_u64(7);
        let b = ButterflyMatrix::random(4, &mut rng).unwrap();
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0], &[2, 4]).unwrap();
        let y = b.forward_rows(&x);
        let r0 = b.forward(&[1.0, 0.0, 0.0, 0.0]);
        let r1 = b.forward(&[0.0, 1.0, 0.0, 0.0]);
        for c in 0..4 {
            assert!((y.at(0, c) - r0[c]).abs() < 1e-6);
            assert!((y.at(1, c) - r1[c]).abs() < 1e-6);
        }
    }

    /// The layer the rows kernel fuses, spelled out on the retained seed
    /// stage loop: pad, every stage through `apply_into_reference`,
    /// truncate, add the bias, apply GELU.
    fn reference_layer(b: &ButterflyMatrix, x: &Tensor, d_out: usize, bias: &[f32]) -> Vec<f32> {
        let n = b.size();
        let mut out = Vec::with_capacity(x.rows() * d_out);
        for row in x.as_slice().chunks(x.cols()) {
            let mut cur = row.to_vec();
            cur.resize(n, 0.0);
            let mut next = vec![0.0f32; n];
            for stage in b.stages() {
                stage.apply_into_reference(&cur, &mut next);
                std::mem::swap(&mut cur, &mut next);
            }
            for (c, &v) in cur[..d_out].iter().enumerate() {
                out.push(if bias.is_empty() { v } else { v + bias[c] });
            }
        }
        out
    }

    #[test]
    fn rows_kernel_is_bit_equal_to_the_reference_stage_chain() {
        let lanes = simd::backend().lanes();
        let mut rng = StdRng::seed_from_u64(41);
        for log_n in 1..=9 {
            let n = 1usize << log_n;
            let b = ButterflyMatrix::random(n, &mut rng).unwrap();
            let bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            // Whole, padded, truncated, and both at once.
            let widths = [(n, n), (n - n / 4, n), (n, n / 2 + 1), ((n / 3).max(1), (n / 5).max(1))];
            for rows in [1, lanes - 1, lanes, lanes + 1, 1023] {
                if rows == 0 {
                    continue;
                }
                for (d_in, d_out) in widths {
                    let x = Tensor::from_vec(
                        (0..rows * d_in).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
                        &[rows, d_in],
                    )
                    .unwrap();
                    for bias in [&[][..], &bias[..d_out]] {
                        let mut out = Tensor::default();
                        b.forward_rows_fused_into(&x, d_out, bias, &mut out);
                        let expected = reference_layer(&b, &x, d_out, bias);
                        assert!(
                            out.as_slice()
                                .iter()
                                .map(|v| v.to_bits())
                                .eq(expected.iter().map(|v| v.to_bits())),
                            "n={n} rows={rows} d_in={d_in} d_out={d_out} bias={}",
                            !bias.is_empty()
                        );
                    }
                }
            }
        }
    }

    /// The padding rows are replayed from a zero tile, not transformed. At
    /// every pad width, with signed zeros in the input, the bits are those
    /// of the kernel over the explicitly padded rows (`d_in == n`, where
    /// every stage covers the whole tile) — also where a weight that is not
    /// finite turns the padding into NaN — and, for finite weights, those of
    /// the seed's stage chain.
    #[test]
    fn padded_rows_are_bit_equal_to_explicit_padding_at_every_pad_width() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let rows = simd::backend().lanes() + 1;
        let mut rng = StdRng::seed_from_u64(43);
        for log_n in 1..=9 {
            let n = 1usize << log_n;
            let finite = ButterflyMatrix::random(n, &mut rng).unwrap();
            let mut wild = finite.clone();
            let h = n / 2;
            for row in wild.w.chunks_exact_mut(2 * n) {
                let p = rng.gen_range(0..h);
                row[p] = f32::INFINITY;
                row[3 * h + (p + 1) % h] = f32::NAN;
                row[h + (p + 2) % h] = f32::NEG_INFINITY;
            }
            for d_in in 1..=n {
                let mut padded = Tensor::zeros(&[rows, n]);
                for row in padded.as_mut_slice().chunks_mut(n) {
                    for (i, v) in row[..d_in].iter_mut().enumerate() {
                        *v = match i % 5 {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.gen_range(-2.0f32..2.0),
                        };
                    }
                }
                let x = padded.slice_cols(0, d_in);
                for b in [&finite, &wild] {
                    let (mut out, mut whole) = (Tensor::default(), Tensor::default());
                    b.forward_rows_fused_into(&x, n, &[], &mut out);
                    b.forward_rows_fused_into(&padded, n, &[], &mut whole);
                    assert_eq!(bits(out.as_slice()), bits(whole.as_slice()), "n={n} d_in={d_in}");
                }
                let mut out = Tensor::default();
                finite.forward_rows_fused_into(&x, n, &[], &mut out);
                let expected = reference_layer(&finite, &x, n, &[]);
                assert_eq!(bits(out.as_slice()), bits(&expected), "n={n} d_in={d_in}");
            }
        }
    }

    #[test]
    fn stage_pairing_matches_fft_pattern() {
        // Stage 0 pairs adjacent elements, the final stage pairs elements n/2 apart.
        let b = ButterflyMatrix::identity(16);
        assert_eq!(b.stage(0).pair_indices(0), (0, 1));
        assert_eq!(b.stage(3).pair_indices(0), (0, 8));
        assert_eq!(b.stage(3).pair_indices(1), (1, 9));
    }

    /// Which draw of `random` lands in which weight — stage by stage, pair
    /// by pair, `w1..w4` — pinned to literal bits: seeded models, and every
    /// result trained from them, depend on it.
    #[test]
    fn random_draw_order_is_pinned() {
        #[rustfmt::skip]
        const BITS: [u32; 48] = [
            0x3ee1320a, 0xbf74b864, 0x3eb3b5e0, 0x3f52a9e9, 0x3f60d030, 0x3e27540a, 0x3f611e19, 0x3f0c26ea,
            0xbf70e9ed, 0xbe18f3af, 0xbf75a5db, 0xbf1a723f, 0x3ee6fb8e, 0xbf8461fa, 0x3eb3b22e, 0x3f4cf4b8,
            0x3e070538, 0x3f2f1778, 0xbc1f0bb8, 0xbe91f135, 0x3f708f2c, 0x3f355770, 0x3f7c3a11, 0x3f6cacff,
            0xbf811085, 0xbf271238, 0xbf76c0fd, 0xbf6fdddd, 0x3e262040, 0x3f2cbe44, 0x3d1f3c25, 0xbea2dd70,
            0x3f665cb4, 0xbee2f7c8, 0x3f5b83f2, 0xbddb26aa, 0xbed06515, 0x3f6065e4, 0xbefa53a5, 0xbf7e0cf9,
            0x3eb1c85b, 0xbf6f792a, 0x3ef6a617, 0x3f78eb22, 0x3f5f9d2e, 0xbed8035a, 0x3f4ed1e3, 0xbded8dae,
        ];
        let w =
            ButterflyMatrix::random(8, &mut StdRng::seed_from_u64(0)).unwrap().to_weight_tensor();
        assert_eq!(w.shape(), &[3, 16]);
        assert!(w.as_slice().iter().map(|v| v.to_bits()).eq(BITS));
    }
}
