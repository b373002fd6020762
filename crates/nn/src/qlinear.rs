//! Int8 linear maps and embedding tables: the storage and kernels behind
//! [`crate::FrozenLinear::Int8`] and [`crate::FrozenEmbedding::Int8`].

use fab_butterfly::flops::dense_linear_flops;
use fab_tensor::{simd, Tensor, PAR_GRAIN_OPS};
use rayon::prelude::*;
use std::cell::RefCell;

/// Rows per band of the int8 GEMM (each band is an independent exact
/// computation, so the split never changes results).
const PAR_BAND_ROWS: usize = 64;

thread_local! {
    /// The i32 accumulator of the band this thread is running. It sits here
    /// and not in the frozen forward's workspace because the bands of a
    /// fanned-out GEMM run on pool threads, one accumulator each, and a
    /// band's worth (`PAR_BAND_ROWS · d_out`) is all any thread ever needs.
    static BAND_ACC: RefCell<Vec<i32>> = const { RefCell::new(Vec::new()) };
}

/// Floor for weight/activation scales (keeps `1 / scale` finite on
/// degenerate all-zero tensors).
const MIN_SCALE: f32 = 1e-30;

/// Quantizes one f32 row symmetrically: returns the per-row scale and
/// writes int8 values in `[-127, 127]`.
fn quantize_row(row: &[f32], dst: &mut [i8]) -> f32 {
    let amax = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale = (amax / 127.0).max(MIN_SCALE);
    simd::q8_quantize_slice(row, 1.0 / scale, dst);
    scale
}

/// A dense linear map quantized for int8 inference: int8 weights stored
/// transposed (`[d_out, d_in]`, one contiguous row per output feature) with
/// **per-output-row** symmetric scales, an f32 bias, and the calibrated
/// per-tensor input activation scale.
///
/// The forward path is `quantize(x) → q8_gemm → fused dequant+bias(+GELU)`
/// through the dispatched [`fab_tensor::simd`] `q8_*` kernels. Every step
/// is element-wise or per-row, so outputs for a row never depend on the
/// surrounding batch.
#[derive(Debug, Clone)]
pub struct QuantLinear {
    /// `[d_out, d_in]` int8 weights (transposed relative to the f32 layout),
    /// prepared for the GEMM.
    qw: simd::Q8Rhs,
    /// Per-output-row weight scales, `[d_out]`.
    w_scale: Vec<f32>,
    /// Precomputed `in_scale · w_scale[j]`, the dequantization multiplier.
    combined: Vec<f32>,
    /// f32 bias, `[d_out]`.
    bias: Vec<f32>,
    /// Calibrated per-tensor input activation scale.
    in_scale: f32,
    d_in: usize,
    d_out: usize,
}

impl QuantLinear {
    /// Quantizes a dense `[d_in, d_out]` weight matrix and `[d_out]` bias,
    /// binding the calibrated input activation scale.
    ///
    /// # Panics
    ///
    /// Panics when the shapes are inconsistent or `in_scale` is not
    /// positive.
    pub fn from_dense(w: &Tensor, b: &Tensor, in_scale: f32) -> Self {
        assert!(in_scale > 0.0, "input scale must be positive");
        let (d_in, d_out) = (w.rows(), w.cols());
        assert_eq!(b.len(), d_out, "bias length mismatch");
        // Transpose to [d_out, d_in] so each output feature's weights are one
        // contiguous k-vector, then quantize per output row.
        let wt = w.transpose();
        let mut qw = vec![0i8; d_out * d_in];
        let mut w_scale = vec![0.0f32; d_out];
        for ((qrow, frow), s) in
            qw.chunks_mut(d_in).zip(wt.as_slice().chunks(d_in)).zip(w_scale.iter_mut())
        {
            *s = quantize_row(frow, qrow);
        }
        let combined: Vec<f32> = w_scale.iter().map(|&s| s * in_scale).collect();
        let qw = simd::Q8Rhs::new(qw, d_in, d_out);
        Self { qw, w_scale, combined, bias: b.as_slice().to_vec(), in_scale, d_in, d_out }
    }

    /// Reassembles a quantized linear from its stored parts (snapshot
    /// restore): `[d_out, d_in]` transposed int8 weights, `[d_out]` per-row
    /// weight scales and bias, and the calibrated input scale. The derived
    /// dequantization multipliers and the GEMM's prepared rhs are rebuilt,
    /// never persisted, so a restored layer is field-for-field identical to
    /// the freshly-quantized one.
    ///
    /// # Panics
    ///
    /// Panics when the lengths are inconsistent or `in_scale` is not
    /// positive.
    pub fn from_parts(
        qw: Vec<i8>,
        w_scale: Vec<f32>,
        bias: Vec<f32>,
        in_scale: f32,
        d_in: usize,
        d_out: usize,
    ) -> Self {
        assert!(in_scale > 0.0, "input scale must be positive");
        assert_eq!(qw.len(), d_out * d_in, "quantized weight length mismatch");
        assert_eq!(w_scale.len(), d_out, "weight scale length mismatch");
        assert_eq!(bias.len(), d_out, "bias length mismatch");
        let combined: Vec<f32> = w_scale.iter().map(|&s| s * in_scale).collect();
        let qw = simd::Q8Rhs::new(qw, d_in, d_out);
        Self { qw, w_scale, combined, bias, in_scale, d_in, d_out }
    }

    /// Input feature dimension.
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Output feature dimension.
    pub fn d_out(&self) -> usize {
        self.d_out
    }

    /// The calibrated per-tensor input activation scale.
    pub fn in_scale(&self) -> f32 {
        self.in_scale
    }

    /// Per-output-row weight scales.
    pub fn w_scales(&self) -> &[f32] {
        &self.w_scale
    }

    /// `[d_out, d_in]` transposed int8 weights (snapshot serialization).
    pub fn qw(&self) -> &[i8] {
        self.qw.rows()
    }

    /// `[d_out]` f32 bias (snapshot serialization).
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Applies the quantized map to a `[rows, d_in]` tensor, optionally
    /// fusing the serving GELU into the dequantization epilogue.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not have `d_in` columns.
    pub fn forward(&self, x: &Tensor, gelu: bool) -> Tensor {
        let mut out = Tensor::default();
        self.forward_into(x, gelu, &mut Vec::new(), &mut out);
        out
    }

    /// [`QuantLinear::forward`] writing into `out` (resized in place), the
    /// quantized input staged in `qx`.
    pub(crate) fn forward_into(&self, x: &Tensor, gelu: bool, qx: &mut Vec<i8>, out: &mut Tensor) {
        self.quantize_input(x, qx);
        self.forward_prequantized_into(qx, x.rows(), gelu, out);
    }

    /// Quantizes a `[rows, d_in]` activation batch with this layer's input
    /// scale, for use with [`QuantLinear::forward_prequantized`]. Layers
    /// sharing one calibrated input scale (e.g. attention q/k/v) quantize
    /// the batch once and reuse the int8 buffer.
    pub fn quantize_input(&self, x: &Tensor, qx: &mut Vec<i8>) {
        assert_eq!(x.cols(), self.d_in, "quantized linear input width mismatch");
        qx.clear();
        qx.resize(x.len(), 0);
        simd::q8_quantize_slice(x.as_slice(), 1.0 / self.in_scale, qx);
    }

    /// [`QuantLinear::forward`] over an already-quantized input batch (as
    /// produced by [`QuantLinear::quantize_input`] with the same
    /// `in_scale`).
    ///
    /// # Panics
    ///
    /// Panics when `qx` is not `rows · d_in` long.
    pub fn forward_prequantized(&self, qx: &[i8], rows: usize, gelu: bool) -> Tensor {
        let mut out = Tensor::default();
        self.forward_prequantized_into(qx, rows, gelu, &mut out);
        out
    }

    /// [`QuantLinear::forward_prequantized`] writing into `out` (resized in
    /// place). Rows go through the GEMM in bands of [`PAR_BAND_ROWS`],
    /// whether or not the call fans out: a band is an independent exact
    /// computation, so the split is bit-identical to one sweep at any thread
    /// count, and its i32 accumulator is the running thread's [`BAND_ACC`].
    pub(crate) fn forward_prequantized_into(
        &self,
        qx: &[i8],
        rows: usize,
        gelu: bool,
        out: &mut Tensor,
    ) {
        assert_eq!(qx.len(), rows * self.d_in, "prequantized input length mismatch");
        out.resize_to(&[rows, self.d_out]);
        let run_band = |(b, out_band): (usize, &mut [f32])| {
            let r0 = b * PAR_BAND_ROWS;
            let qx_band = &qx[r0 * self.d_in..(r0 + out_band.len() / self.d_out) * self.d_in];
            BAND_ACC.with(|acc| {
                let mut acc = acc.borrow_mut();
                acc.resize(out_band.len(), 0);
                simd::q8_gemm_prepared(qx_band, &self.qw, &mut acc);
                if gelu {
                    simd::q8_dequant_bias_gelu_rows(&acc, &self.combined, &self.bias, out_band);
                } else {
                    simd::q8_dequant_bias_rows(&acc, &self.combined, &self.bias, out_band);
                }
            });
        };
        let band_len = PAR_BAND_ROWS * self.d_out;
        if dense_linear_flops(rows, self.d_in, self.d_out) < PAR_GRAIN_OPS {
            out.as_mut_slice().chunks_mut(band_len).enumerate().for_each(run_band);
        } else {
            out.as_mut_slice().par_chunks_mut(band_len).enumerate().for_each(run_band);
        }
    }

    /// Bytes of the `[d_out, d_in]` int8 weights (the f32 layout would be
    /// 4x). A CPU with the VNNI GEMM arm also holds their packed copy, as
    /// large again (depth padded to a multiple of 4), plus `4 · d_out` bytes.
    pub fn weight_bytes(&self) -> usize {
        self.qw.rows().len()
    }
}

/// An embedding table quantized to int8 with per-row symmetric scales;
/// rows are dequantized on gather.
#[derive(Debug, Clone)]
pub struct QuantEmbedding {
    q: Vec<i8>,
    scale: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl QuantEmbedding {
    /// Quantizes a `[rows, cols]` embedding table row by row.
    pub fn from_table(t: &Tensor) -> Self {
        let (rows, cols) = (t.rows(), t.cols());
        let mut q = vec![0i8; rows * cols];
        let mut scale = vec![0.0f32; rows];
        for ((qrow, frow), s) in
            q.chunks_mut(cols).zip(t.as_slice().chunks(cols)).zip(scale.iter_mut())
        {
            *s = quantize_row(frow, qrow);
        }
        Self { q, scale, rows, cols }
    }

    /// Reassembles a quantized embedding table from its stored parts
    /// (snapshot restore).
    ///
    /// # Panics
    ///
    /// Panics when the lengths are inconsistent.
    pub fn from_parts(q: Vec<i8>, scale: Vec<f32>, rows: usize, cols: usize) -> Self {
        assert_eq!(q.len(), rows * cols, "quantized table length mismatch");
        assert_eq!(scale.len(), rows, "table scale length mismatch");
        Self { q, scale, rows, cols }
    }

    /// Number of table rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Dequantized gather-add: `dst[d] += table[r][d]` in f32.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range or `dst` is not `cols` long.
    pub fn add_row_into(&self, r: usize, dst: &mut [f32]) {
        assert!(r < self.rows, "embedding row {r} out of range for {} rows", self.rows);
        assert_eq!(dst.len(), self.cols, "embedding gather width mismatch");
        let s = self.scale[r];
        for (d, &qv) in dst.iter_mut().zip(self.q[r * self.cols..(r + 1) * self.cols].iter()) {
            *d += qv as f32 * s;
        }
    }

    /// `[rows, cols]` raw int8 table values (snapshot serialization).
    pub fn q(&self) -> &[i8] {
        &self.q
    }

    /// Per-row dequantization scales (snapshot serialization).
    pub fn scales(&self) -> &[f32] {
        &self.scale
    }

    /// Bytes of int8 table storage.
    pub fn table_bytes(&self) -> usize {
        self.q.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize, salt: usize) -> Vec<f32> {
        (0..n).map(|i| (((i * 97 + salt * 13) % 401) as f32) * 0.005 - 1.0).collect()
    }

    #[test]
    fn quant_linear_approximates_the_dense_map() {
        let (d_in, d_out, rows) = (24usize, 10usize, 5usize);
        let w = Tensor::from_vec(data(d_in * d_out, 1), &[d_in, d_out]).expect("w");
        let b = Tensor::from_vec(data(d_out, 2), &[d_out]).expect("b");
        let x = Tensor::from_vec(data(rows * d_in, 3), &[rows, d_in]).expect("x");
        let in_scale = x.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-12) / 127.0;
        let q = QuantLinear::from_dense(&w, &b, in_scale);
        let exact = x.matmul(&w).add_row_broadcast(&b);
        let quant = q.forward(&x, false);
        let max_diff = exact
            .as_slice()
            .iter()
            .zip(quant.as_slice().iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        // Quantization noise bound: a couple of steps over the k-sum.
        assert!(max_diff < 0.05, "int8 linear drifted {max_diff} from f32");
    }

    #[test]
    fn gelu_epilogue_matches_unfused_gelu() {
        let (d_in, d_out, rows) = (16usize, 8usize, 3usize);
        let w = Tensor::from_vec(data(d_in * d_out, 4), &[d_in, d_out]).expect("w");
        let b = Tensor::from_vec(data(d_out, 5), &[d_out]).expect("b");
        let x = Tensor::from_vec(data(rows * d_in, 6), &[rows, d_in]).expect("x");
        let q = QuantLinear::from_dense(&w, &b, 0.01);
        let fused = q.forward(&x, true);
        let unfused = q.forward(&x, false).gelu_fastmath();
        assert_eq!(fused.as_slice(), unfused.as_slice());
    }

    #[test]
    fn forward_rows_are_independent_of_the_batch() {
        let (d_in, d_out) = (32usize, 12usize);
        let w = Tensor::from_vec(data(d_in * d_out, 7), &[d_in, d_out]).expect("w");
        let b = Tensor::from_vec(data(d_out, 8), &[d_out]).expect("b");
        let q = QuantLinear::from_dense(&w, &b, 0.02);
        let full = Tensor::from_vec(data(6 * d_in, 9), &[6, d_in]).expect("x");
        let batched = q.forward(&full, false);
        for r in 0..6 {
            let alone = q.forward(&full.slice_rows(r, r + 1), false);
            assert_eq!(
                alone.as_slice(),
                &batched.as_slice()[r * d_out..(r + 1) * d_out],
                "row {r} changed with batch composition"
            );
        }
    }

    #[test]
    fn quant_embedding_round_trips_within_row_scale() {
        let t = Tensor::from_vec(data(7 * 9, 10), &[7, 9]).expect("table");
        let q = QuantEmbedding::from_table(&t);
        for r in 0..7 {
            let mut row = vec![0.0f32; 9];
            q.add_row_into(r, &mut row);
            let frow = &t.as_slice()[r * 9..(r + 1) * 9];
            let amax = frow.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            for (a, b) in row.iter().zip(frow.iter()) {
                assert!((a - b).abs() <= amax / 127.0 + 1e-7, "row {r} drifted: {a} vs {b}");
            }
        }
    }
}
