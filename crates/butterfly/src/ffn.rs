//! FABNet's feed-forward half as one pass over lane tiles.
//!
//! A butterfly FFN is `down(gelu(up(x)))`, both maps butterfly-factorised.
//! Run as two [`ButterflyMatrix::forward_rows_fused_into`] calls with a
//! GELU between them it moves a tile into lane layout and back twice and
//! writes a `[rows, ffn]` intermediate; inside an encoder block the two
//! residual layer norms around it are two more row-major passes. [`ButterflyFfn`]
//! takes a tile of as many rows as the SIMD backend has lanes into lane
//! layout once and keeps it there through every step: the first layer
//! norm, both maps' stages, bias and GELU, the second bias, residual and
//! layer norm. The intermediate never leaves the tile, and each step gives
//! the bits of its row-major counterpart ([`simd::add_layer_norm_lanes`],
//! [`simd::bias_gelu_lanes`]), so the pass equals the composition bit for
//! bit.

use crate::ButterflyMatrix;
use fab_tensor::{simd, Tensor};

/// A layer normalisation's learned per-feature scale and shift and its
/// variance epsilon.
#[derive(Debug, Clone, Copy)]
pub struct LayerNorm<'a> {
    /// Per-feature scale.
    pub gamma: &'a [f32],
    /// Per-feature shift.
    pub beta: &'a [f32],
    /// Variance epsilon.
    pub eps: f32,
}

/// A feed-forward network whose two linear maps are butterfly-factorised:
/// `down(gelu(up(x) + up_bias)) + down_bias`, `hidden → ffn → hidden`, each
/// map zero-padding its input to its transform size and truncating its
/// output as [`ButterflyMatrix::forward_rows_fused_into`] does.
#[derive(Debug, Clone, Copy)]
pub struct ButterflyFfn<'a> {
    up: &'a ButterflyMatrix,
    up_bias: &'a [f32],
    down: &'a ButterflyMatrix,
    down_bias: &'a [f32],
}

/// An encoder block's token-mixing output and the two layer norms around
/// its FFN: what turns the FFN of `x` into the block's second half.
#[derive(Clone, Copy)]
struct Residual<'a> {
    mixed: &'a [f32],
    ln1: LayerNorm<'a>,
    ln2: LayerNorm<'a>,
}

impl<'a> ButterflyFfn<'a> {
    /// The FFN with expanding map `up` (bias `up_bias`, `ffn` long) and
    /// contracting map `down` (bias `down_bias`, `hidden` long).
    ///
    /// # Panics
    ///
    /// Panics when a bias is empty or either width exceeds a transform
    /// size.
    pub fn new(
        up: &'a ButterflyMatrix,
        up_bias: &'a [f32],
        down: &'a ButterflyMatrix,
        down_bias: &'a [f32],
    ) -> Self {
        let (hidden, ffn) = (down_bias.len(), up_bias.len());
        assert!(hidden > 0 && ffn > 0, "butterfly FFN widths must be nonzero");
        assert!(hidden.max(ffn) <= up.size().min(down.size()), "butterfly FFN wider than its maps");
        Self { up, up_bias, down, down_bias }
    }

    /// Input and output width.
    fn hidden(&self) -> usize {
        self.down_bias.len()
    }

    /// Width of the intermediate.
    fn ffn(&self) -> usize {
        self.up_bias.len()
    }

    /// The FFN of every row of a `[rows, hidden]` tensor into `out`
    /// (resized in place): bit-identical to `up`'s
    /// [`ButterflyMatrix::forward_rows_fused_into`], `Tensor::gelu`, then
    /// `down`'s [`ButterflyMatrix::forward_rows_fused_into`].
    ///
    /// # Panics
    ///
    /// Panics when `x` does not have `hidden` columns.
    pub fn forward_rows_into(&self, x: &Tensor, out: &mut Tensor) {
        assert_eq!(x.cols(), self.hidden(), "butterfly FFN input width mismatch");
        out.resize_to(&[x.rows(), self.hidden()]);
        self.run(x.as_slice(), None, out.as_mut_slice());
    }

    /// An encoder block's FFN half on `[rows, hidden]` activations `x`
    /// whose token mixing gave `mixed`, into `out` (resized in place):
    /// `y = ln1(x + mixed)`, then `out = ln2(y + ffn(y))` — bit-identical
    /// to [`Tensor::add_layer_norm_rows_into`],
    /// [`ButterflyFfn::forward_rows_into`] and
    /// [`Tensor::add_layer_norm_rows_into`] again, with no `[rows, ffn]` or
    /// `y` tensor.
    ///
    /// The output is not written over `x`: in place, each tile's stores
    /// to the rows of `x` it read meet the next tile's loads from rows
    /// 4 KB-aliased with them, and on rows that do not start on a cache line
    /// (a `Vec`'s 16-byte alignment) that cost the pass a third more time.
    ///
    /// # Panics
    ///
    /// Panics when `x` and `mixed` differ in shape or do not have `hidden`
    /// columns, or a layer norm's parameters are not `hidden` long.
    pub fn block_rows_into(
        &self,
        x: &Tensor,
        mixed: &Tensor,
        ln1: LayerNorm<'_>,
        ln2: LayerNorm<'_>,
        out: &mut Tensor,
    ) {
        let hidden = self.hidden();
        assert_eq!(x.shape(), mixed.shape(), "butterfly FFN block shape mismatch");
        assert_eq!(x.cols(), hidden, "butterfly FFN input width mismatch");
        for ln in [ln1, ln2] {
            assert!(ln.gamma.len() == hidden && ln.beta.len() == hidden, "layer norm width");
        }
        out.resize_to(x.shape());
        let residual = Residual { mixed: mixed.as_slice(), ln1, ln2 };
        self.run(x.as_slice(), Some(residual), out.as_mut_slice());
    }

    /// The FFN of the rows of `x` into `out`, inside a block's second half
    /// when `residual` is given: one lane tile at a time; batches that
    /// reach the fan-out grain split on tile boundaries, which changes no
    /// bit.
    fn run(&self, x: &[f32], residual: Option<Residual<'_>>, out: &mut [f32]) {
        let Self { up, up_bias, down, down_bias } = *self;
        let (hidden, ffn) = (self.hidden(), self.ffn());
        let rows = out.len() / hidden;
        let lanes = simd::backend().lanes();
        let n = up.size().max(down.size());
        let up_pad = up.padding_values(hidden, lanes);
        crate::with_scratch(up_pad + down.padding_values(ffn, lanes), |pad| {
            let (up_pad, down_pad) = pad.split_at_mut(up_pad);
            up.padding_lanes(hidden, up_pad, lanes);
            down.padding_lanes(ffn, down_pad, lanes);
            let (up_pad, down_pad) = (&*up_pad, &*down_pad);
            let norm = |a: &[f32], b: &mut [f32], ln: LayerNorm<'_>| {
                simd::add_layer_norm_lanes(a, b, ln.gamma, ln.beta, ln.eps, lanes)
            };
            let run_rows = |r0: usize, chunk: &mut [f32]| {
                // One `[n][lanes]` tile, and `y`'s `[hidden][lanes]` beside it.
                crate::with_scratch((n + hidden) * lanes, |buf| {
                    let (tile, y) = buf.split_at_mut(n * lanes);
                    let h = hidden * lanes;
                    for (t, orows) in chunk.chunks_mut(lanes * hidden).enumerate() {
                        let (r, nr) = (r0 + t * lanes, orows.len() / hidden);
                        let rows_in = |src: &[f32], dst: &mut [f32]| {
                            simd::rows_to_lanes(
                                &src[r * hidden..],
                                hidden,
                                nr,
                                hidden,
                                &[],
                                dst,
                                lanes,
                            )
                        };
                        rows_in(x, tile);
                        if let Some(Residual { mixed, ln1, .. }) = residual {
                            rows_in(mixed, y);
                            norm(&tile[..h], y, ln1);
                            tile[..h].copy_from_slice(y);
                        }
                        up.stages_lanes(hidden, up_pad, &mut tile[..up.size() * lanes], lanes);
                        simd::bias_gelu_lanes(&mut tile[..ffn * lanes], up_bias, true, lanes);
                        down.stages_lanes(ffn, down_pad, &mut tile[..down.size() * lanes], lanes);
                        let bias = match residual {
                            None => down_bias,
                            Some(Residual { ln2, .. }) => {
                                simd::bias_gelu_lanes(&mut tile[..h], down_bias, false, lanes);
                                norm(y, &mut tile[..h], ln2);
                                &[]
                            }
                        };
                        simd::lanes_to_rows(tile, lanes, nr, hidden, bias, orows, hidden);
                    }
                });
            };
            if !up.fans_out(rows, 2) {
                run_rows(0, out);
            } else {
                let rows_per_chunk = crate::butterfly::lane_chunk_rows(n, lanes);
                rayon::fork_chunks_mut([(out, rows_per_chunk * hidden)], |c, [chunk]| {
                    run_rows(c * rows_per_chunk, chunk)
                });
            }
        });
    }
}
