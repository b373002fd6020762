//! Tape-free frozen inference: a trained [`crate::Model`] snapshotted into
//! plain weight tensors with one tape-free forward over a single sequence.
//!
//! The training path records every operation on the autodiff
//! [`Tape`](fab_tensor::Tape), which clones activations into graph nodes and
//! keeps backward closures alive — exactly the bookkeeping a serving runtime
//! must not pay per request.
//! [`Model::freeze`](crate::Model::freeze) copies the current parameter
//! values out of their `Rc<RefCell<_>>` cells into a [`FrozenModel`]: an
//! immutable, `Send + Sync` snapshot whose forward pass calls the PR-1
//! batched kernels (`Tensor::matmul_into`,
//! `ButterflyMatrix::forward_rows_fused_into`, `fourier_mix_into`, the
//! row-parallel softmax/layer-norm) directly.
//!
//! # Per-sequence execution and exactness
//!
//! A batch is a list of independently evaluated sequences. There is one
//! forward, over one sequence's `[len, hidden]` activations: embed, the
//! block stack, mean-pool, classifier head. [`FrozenModel::logits`] runs
//! it; [`FrozenModel::logits_batch`] and [`FrozenModel::logits_batch_flat`]
//! run it once per sequence and read no padding slot. A request's logits
//! are therefore **bit-identical** whatever batch it rides in and whatever
//! length that batch was padded to — by construction, not by a property
//! every kernel has to keep — and, because every kernel invoked here is
//! bit-compatible with its serial reference, whatever the worker-thread
//! count. For an all-f32 model without fast math they also equal the
//! single-request tape path bit for bit.
//!
//! # Memory
//!
//! Once warm, a forward allocates nothing of its own but the logits it
//! returns. Every activation — the gathered embeddings, q/k/v, the mixed
//! heads, the residual layer norms, the FFN intermediate, the pooled state —
//! is a buffer of a workspace that only grows ([`Tensor::resize_to`]); every
//! op writes into its output in place of returning one. (A kernel call that
//! reaches [`PAR_GRAIN_OPS`] goes to the worker pool, and the rayon shim
//! allocates its per-call bookkeeping, about ten small blocks: no such call
//! for a short sequence, twenty for a two-layer Transformer at 1024
//! tokens.) A forward takes the most recently used idle workspace of the
//! process for its duration, so there are as many as forwards have run at
//! once (a batch fanned out over the worker pool has one per worker), and
//! the model itself stays immutable and `Send + Sync`. Attention never
//! holds a `[len, len]` matrix: the query rows are cut into at most eight
//! bands — the items of the core's one pool call — and a band computes one
//! head's scores sixteen rows at a time, so the score memory is
//! `O(128 · len)`. Nothing here is configurable, and no value depends on
//! what a buffer held before: every op overwrites the whole of its output.
//!
//! [`FrozenModel::logits_observed`] is the same forward with a tap: a
//! callback handed the activation tensors that feed the quantizable GEMMs
//! ([`Tap`]). `fab-quant` calibrates through it, so the scales describe
//! exactly the activations the served forward produces. Without a tap the
//! callback is a no-op closure the compiler removes.
//!
//! [`FrozenModel::with_fast_math`] additionally swaps GELU (and the
//! attention score scaling order) for the serving-grade
//! [`fab_tensor::fastmath`] kernels: logits then differ from the tape path
//! by at most ~1e-6 but remain deterministic, and batching cannot change a
//! fast-math answer either.
//!
//! # Int8
//!
//! Post-training quantization (`fab-quant`) does not build a second model:
//! it swaps parts of this one. A dense linear becomes
//! [`FrozenLinear::Int8`] (int8 weights, per-output-row scales, a
//! calibrated input scale; `quantize → i8×i8→i32 GEMM → fused
//! dequant + bias (+ GELU)`), and the two embedding tables become
//! [`FrozenEmbedding::Int8`] (per-row scales, dequantized on gather).
//! Everything else stays f32 and runs the code above unchanged:
//! butterfly-factorised linears, layer norms, softmax and the attention
//! core, the Fourier mix, mean pooling. Int8 scales are static, so the
//! batch-invariance guarantee holds bit for bit for a quantized model too.
//! A model with int8 tables always runs with fast math off.

use crate::config::{ModelConfig, ModelKind};
use crate::qlinear::{QuantEmbedding, QuantLinear};
use fab_butterfly::flops::attention_core_flops;
use fab_butterfly::{fourier_mix_into, ButterflyMatrix};
use fab_tensor::{simd, Tensor, PAR_GRAIN_OPS};
use rayon::prelude::*;
use std::sync::{Mutex, PoisonError};

/// A frozen (inference-only) linear map: the tape-free counterpart of the
/// [`crate::Linear`] layer implementations.
#[derive(Debug, Clone)]
pub enum FrozenLinear {
    /// Dense `y = x W + b`.
    Dense {
        /// `[d_in, d_out]` weight matrix.
        w: Tensor,
        /// `[d_out]` bias.
        b: Tensor,
    },
    /// Butterfly-factorised map with zero-padding to the power-of-two
    /// transform size and truncation back to `d_out`, exactly as in
    /// [`crate::ButterflyLinear`].
    Butterfly {
        /// The factorised butterfly matrix of size `n`.
        bfly: ButterflyMatrix,
        /// `[d_out]` bias.
        b: Tensor,
        /// Input feature dimension (before padding).
        d_in: usize,
        /// Output feature dimension (after truncation).
        d_out: usize,
    },
    /// A dense map quantized to int8 (see [`QuantLinear`]).
    Int8(QuantLinear),
}

impl FrozenLinear {
    /// Applies the map to a `[rows, d_in]` tensor, returning `[rows, d_out]`.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not have `d_in` columns.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = Tensor::default();
        self.forward_into(x, false, &mut Vec::new(), &mut y);
        y
    }

    /// [`FrozenLinear::forward`], followed by GELU when `gelu` is set,
    /// writing into `out` (resized in place); `qx` stages the int8 map's
    /// quantized input. No arm makes a second pass through a second buffer:
    /// the dense map adds its bias and applies the activation in place on
    /// the product, the butterfly map applies padding, bias, activation and
    /// truncation inside its own tile loop
    /// ([`ButterflyMatrix::forward_rows_fused_into`]) and the int8 map
    /// inside its dequantization epilogue — all bit-identical to
    /// `matmul`, `add_row_broadcast`, `gelu` one after the other.
    fn forward_into(&self, x: &Tensor, gelu: bool, qx: &mut Vec<i8>, out: &mut Tensor) {
        match self {
            FrozenLinear::Dense { w, b } => {
                x.matmul_into(w, out);
                out.add_row_broadcast_in_place(b);
                if gelu {
                    out.gelu_in_place();
                }
            }
            FrozenLinear::Butterfly { bfly, b, d_in, d_out } => {
                assert_eq!(x.cols(), *d_in, "frozen butterfly input width mismatch");
                bfly.forward_rows_fused_into(x, *d_out, b.as_slice(), gelu, out);
            }
            FrozenLinear::Int8(q) => q.forward_into(x, gelu, qx, out),
        }
    }

    /// Output feature dimension.
    pub fn d_out(&self) -> usize {
        match self {
            FrozenLinear::Dense { w, .. } => w.cols(),
            FrozenLinear::Butterfly { d_out, .. } => *d_out,
            FrozenLinear::Int8(q) => q.d_out(),
        }
    }
}

/// Frozen layer normalisation (learned scale/shift, fixed epsilon).
#[derive(Debug, Clone)]
pub struct FrozenLayerNorm {
    pub(crate) gamma: Tensor,
    pub(crate) beta: Tensor,
    pub(crate) eps: f32,
}

impl FrozenLayerNorm {
    /// Reassembles a frozen layer norm from its parts (the inverse of the
    /// accessors, used by snapshot restore).
    ///
    /// # Panics
    ///
    /// Panics when `gamma` and `beta` differ in length or `eps` is not
    /// finite and positive.
    pub fn new(gamma: Tensor, beta: Tensor, eps: f32) -> Self {
        assert_eq!(gamma.len(), beta.len(), "layer norm gamma/beta length mismatch");
        assert!(eps.is_finite() && eps > 0.0, "layer norm epsilon must be finite and positive");
        Self { gamma, beta, eps }
    }

    /// Learned per-feature scale.
    pub fn gamma(&self) -> &Tensor {
        &self.gamma
    }

    /// Learned per-feature shift.
    pub fn beta(&self) -> &Tensor {
        &self.beta
    }

    /// Variance epsilon.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Normalises each row of `x`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        x.layer_norm_rows(&self.gamma, &self.beta, self.eps)
    }

    /// Fused residual shortcut: normalises each row of `x + fx`
    /// (bit-identical to `forward(&x.add(fx))`, one pass).
    pub fn forward_residual(&self, x: &Tensor, fx: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.forward_residual_into(x, fx, &mut out);
        out
    }

    /// [`FrozenLayerNorm::forward_residual`] writing into `out` (resized in
    /// place).
    fn forward_residual_into(&self, x: &Tensor, fx: &Tensor, out: &mut Tensor) {
        x.add_layer_norm_rows_into(fx, &self.gamma, &self.beta, self.eps, out);
    }
}

/// Frozen two-layer feed-forward network with GELU activation.
#[derive(Debug, Clone)]
pub struct FrozenFeedForward {
    pub(crate) lin1: FrozenLinear,
    pub(crate) lin2: FrozenLinear,
}

impl FrozenFeedForward {
    /// Reassembles a frozen FFN from its two linear maps (snapshot restore).
    pub fn new(lin1: FrozenLinear, lin2: FrozenLinear) -> Self {
        Self { lin1, lin2 }
    }

    /// The expanding linear map (`hidden → ffn`).
    pub fn lin1(&self) -> &FrozenLinear {
        &self.lin1
    }

    /// The contracting linear map (`ffn → hidden`).
    pub fn lin2(&self) -> &FrozenLinear {
        &self.lin2
    }

    /// Applies `lin2(gelu(lin1(x)))` to `[rows, hidden]` activations, the
    /// GELU fused into `lin1`'s epilogue. `fast_math` changes nothing
    /// here: since PR 3 the exact and the serving-grade GELU are the same
    /// kernel ([`fab_tensor::fastmath`]).
    pub fn forward(&self, x: &Tensor, _fast_math: bool) -> Tensor {
        let mut out = Tensor::default();
        self.forward_into(x, &mut Tensor::default(), &mut Vec::new(), &mut out, |_| {});
        out
    }

    /// [`FrozenFeedForward::forward`] writing into `out`, with `lin2`'s
    /// input (the post-GELU activations) left in `act` and shown to
    /// `observe` on the way.
    fn forward_into(
        &self,
        x: &Tensor,
        act: &mut Tensor,
        qx: &mut Vec<i8>,
        out: &mut Tensor,
        observe: impl FnOnce(&[f32]),
    ) {
        self.lin1.forward_into(x, true, qx, act);
        observe(act.as_slice());
        self.lin2.forward_into(act, false, qx, out);
    }
}

/// Frozen multi-head self-attention.
#[derive(Debug, Clone)]
pub struct FrozenAttention {
    pub(crate) wq: FrozenLinear,
    pub(crate) wk: FrozenLinear,
    pub(crate) wv: FrozenLinear,
    pub(crate) wo: FrozenLinear,
    pub(crate) dim: usize,
    pub(crate) num_heads: usize,
}

impl FrozenAttention {
    /// Reassembles frozen attention from its four projections (snapshot
    /// restore).
    ///
    /// # Panics
    ///
    /// Panics when `num_heads` does not divide `dim`.
    pub fn new(
        wq: FrozenLinear,
        wk: FrozenLinear,
        wv: FrozenLinear,
        wo: FrozenLinear,
        dim: usize,
        num_heads: usize,
    ) -> Self {
        assert!(
            num_heads > 0 && dim.is_multiple_of(num_heads),
            "heads must divide the feature dimension"
        );
        Self { wq, wk, wv, wo, dim, num_heads }
    }

    /// The query projection.
    pub fn wq(&self) -> &FrozenLinear {
        &self.wq
    }

    /// The key projection.
    pub fn wk(&self) -> &FrozenLinear {
        &self.wk
    }

    /// The value projection.
    pub fn wv(&self) -> &FrozenLinear {
        &self.wv
    }

    /// The output projection.
    pub fn wo(&self) -> &FrozenLinear {
        &self.wo
    }

    /// Model (embedding) dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Applies self-attention to one sequence's `[len, dim]` activations,
    /// writing into `out` and showing the output projection's input (the
    /// mixed heads) to `observe` on the way.
    fn forward_into(
        &self,
        x: &Tensor,
        fast_math: bool,
        bufs: &mut AttentionBuffers,
        qx: &mut Vec<i8>,
        out: &mut Tensor,
        observe: impl FnOnce(&[f32]),
    ) {
        let AttentionBuffers { q, k, v, mixed, core } = bufs;
        match (&self.wq, &self.wk, &self.wv) {
            // Calibration gives q/k/v one input scale, so the input is
            // quantized once and the int8 buffer reused across the three
            // projections (bit-identical to three independent forwards).
            (FrozenLinear::Int8(wq), FrozenLinear::Int8(wk), FrozenLinear::Int8(wv))
                if wq.in_scale() == wk.in_scale() && wq.in_scale() == wv.in_scale() =>
            {
                wq.quantize_input(x, qx);
                wq.forward_prequantized_into(qx, x.rows(), false, q);
                wk.forward_prequantized_into(qx, x.rows(), false, k);
                wv.forward_prequantized_into(qx, x.rows(), false, v);
            }
            _ => {
                self.wq.forward_into(x, false, qx, q);
                self.wk.forward_into(x, false, qx, k);
                self.wv.forward_into(x, false, qx, v);
            }
        }
        // Fast-math mode pre-scales Q once (`(c·q)·kᵀ` instead of
        // `c·(q·kᵀ)`): same value up to rounding, but the scaling pass runs
        // over `[len, dim]` instead of every `[len, len]` score matrix. The
        // scaled copy lands in `mixed`, which the core overwrites anyway,
        // and the two buffers trade places.
        if fast_math {
            let head_scale = 1.0 / ((self.dim / self.num_heads) as f32).sqrt();
            q.scale_into(head_scale, mixed);
            std::mem::swap(q, mixed);
        }
        mixed.resize_to(&[x.rows(), self.dim]);
        attention_core(q, k, v, self.num_heads, fast_math, mixed.as_mut_slice(), core);
        observe(mixed.as_slice());
        self.wo.forward_into(mixed, false, qx, out);
    }
}

/// Query rows a band of the attention core computes at a time, for one
/// head: its scores are `[ATTN_SUB_ROWS, len]` — 64 KiB at `len` 1024 — so
/// they are still in L1/L2 when the softmax and the product with V read
/// what the product with Kᵀ wrote.
const ATTN_SUB_ROWS: usize = 16;

/// Most bands the core cuts a sequence's query rows into — the items of its
/// one pool call, and the slots of its scratch: `ATTN_MAX_BANDS` sub-tiles
/// of scores and as many of probabilities, `2 · 128 · len · 4` bytes.
const ATTN_MAX_BANDS: usize = 8;

/// Query rows per band of the attention core for a `len`-row sequence: a
/// whole number of sub-tiles, at most [`ATTN_MAX_BANDS`] bands. A function
/// of `len` alone — never of the thread count — although no value could
/// tell: a row of scores, its softmax and its product with V never involve
/// another row.
fn attention_band_rows(len: usize) -> usize {
    len.div_ceil(ATTN_MAX_BANDS).next_multiple_of(ATTN_SUB_ROWS)
}

/// The f32 `softmax(QKᵀ)·V` attention core on one example's projected
/// `[len, dim]` q/k/v, scattering the mixed heads into `out` (`len · dim`
/// values, the layout a `concat_cols` would produce).
///
/// `prescaled` says the query was already multiplied by `1/√head_dim` (the
/// fast-math path's `(c·q)·kᵀ` ordering); otherwise the raw scores are
/// scaled. One transpose of K per example; head `h`'s transposed slice is
/// then a contiguous row range of `kt`, with exactly the values
/// `slice_cols(kh).transpose()` would produce — the per-head matmul stays
/// bit-identical to the tape path's. The query rows are cut into bands
/// (`attention_band_rows`) that share nothing but the read-only `kt` and
/// V: one pool call over the bands when the core reaches
/// [`PAR_GRAIN_OPS`], a plain loop below it. Neither the cut nor the fan-out
/// is part of the value or the API. The work buffers are an idle
/// workspace's, so a warm call allocates nothing below the grain and the
/// pool call's bookkeeping above it. Public so a per-component profile can
/// time the core on its own (the benchmark's `nn.share.*` replay does).
///
/// # Panics
///
/// Panics when the shapes are inconsistent or `num_heads` does not divide
/// the feature dimension.
pub fn attention_mix_rows(
    qi: &Tensor,
    ki: &Tensor,
    vi: &Tensor,
    num_heads: usize,
    prescaled: bool,
    out: &mut [f32],
) {
    with_workspace(|ws| {
        attention_core(qi, ki, vi, num_heads, prescaled, out, &mut ws.attention.core)
    });
}

/// [`attention_mix_rows`] on the caller's buffers.
fn attention_core(
    qi: &Tensor,
    ki: &Tensor,
    vi: &Tensor,
    num_heads: usize,
    prescaled: bool,
    out: &mut [f32],
    bufs: &mut CoreBuffers,
) {
    let dim = qi.cols();
    let len = qi.rows();
    assert!(
        num_heads > 0 && dim.is_multiple_of(num_heads),
        "heads must divide the feature dimension"
    );
    assert_eq!((ki.rows(), ki.cols()), (len, dim), "attention key shape mismatch");
    assert_eq!((vi.rows(), vi.cols()), (len, dim), "attention value shape mismatch");
    assert_eq!(out.len(), len * dim, "attention output chunk length mismatch");
    let head_dim = dim / num_heads;
    let CoreBuffers { kt, v_heads, q_tile, scores, probs, head } = bufs;
    ki.transpose_into(kt);
    // V head-major, `[num_heads][len, head_dim]`: each head's columns as the
    // contiguous right-hand side its product needs.
    v_heads.resize_to(&[num_heads * len, head_dim]);
    for (h, vh) in v_heads.as_mut_slice().chunks_mut(len * head_dim).enumerate() {
        for (dst, row) in vh.chunks_mut(head_dim).zip(vi.as_slice().chunks(dim)) {
            dst.copy_from_slice(&row[h * head_dim..(h + 1) * head_dim]);
        }
    }
    let band_rows = attention_band_rows(len);
    let bands = len.div_ceil(band_rows);
    for (buf, width) in [(&mut *scores, len), (probs, len), (q_tile, head_dim), (head, head_dim)] {
        buf.resize_to(&[bands * ATTN_SUB_ROWS, width]);
    }
    let inputs = BandInputs {
        q: qi.as_slice(),
        kt: kt.as_slice(),
        v_heads: v_heads.as_slice(),
        len,
        dim,
        head_dim,
        scale: (!prescaled).then(|| 1.0 / (head_dim as f32).sqrt()),
    };
    // Band `b` owns rows `b · band_rows ..` of `out` and slot `b` of every
    // scratch buffer.
    let slots = out
        .chunks_mut(band_rows * dim)
        .zip(scores.as_mut_slice().chunks_mut(ATTN_SUB_ROWS * len))
        .zip(probs.as_mut_slice().chunks_mut(ATTN_SUB_ROWS * len))
        .zip(q_tile.as_mut_slice().chunks_mut(ATTN_SUB_ROWS * head_dim))
        .zip(head.as_mut_slice().chunks_mut(ATTN_SUB_ROWS * head_dim))
        .enumerate();
    let run = |(b, ((((out, scores), probs), q_tile), head))| {
        inputs.mix_band(b * band_rows, out, scores, probs, q_tile, head)
    };
    if attention_core_flops(len, dim) < PAR_GRAIN_OPS {
        slots.for_each(run);
    } else {
        slots.collect::<Vec<_>>().into_par_iter().for_each(run);
    }
}

/// What every band of one [`attention_core`] call reads.
struct BandInputs<'a> {
    /// The query, `[len, dim]`.
    q: &'a [f32],
    /// `kᵀ`, `[dim, len]`.
    kt: &'a [f32],
    /// V head-major, `[num_heads][len, head_dim]`.
    v_heads: &'a [f32],
    len: usize,
    dim: usize,
    head_dim: usize,
    /// `1/√head_dim` when the scores still have to be scaled.
    scale: Option<f32>,
}

impl BandInputs<'_> {
    /// Mixes the query rows `r0 .. r0 + out.len() / dim` into `out`, every
    /// head in turn, [`ATTN_SUB_ROWS`] rows at a time: gather the head's
    /// query columns, multiply by its rows of `kt`, scale, softmax each
    /// row, multiply by its V, scatter. The four scratch slices are one
    /// sub-tile each; `matmul_band`'s per-element chain does not depend on
    /// how rows are grouped, so neither does any value here.
    fn mix_band(
        &self,
        r0: usize,
        out: &mut [f32],
        scores: &mut [f32],
        probs: &mut [f32],
        q_tile: &mut [f32],
        head: &mut [f32],
    ) {
        let &BandInputs { q, kt, v_heads, len, dim, head_dim, scale } = self;
        for h in 0..dim / head_dim {
            let (lo, hi) = (h * head_dim, (h + 1) * head_dim);
            let kh_t = &kt[lo * len..hi * len];
            let vh = &v_heads[lo * len..hi * len];
            for (t, out) in out.chunks_mut(ATTN_SUB_ROWS * dim).enumerate() {
                let t0 = r0 + t * ATTN_SUB_ROWS;
                let rows = out.len() / dim;
                let q_tile = &mut q_tile[..rows * head_dim];
                let q_rows = q[t0 * dim..(t0 + rows) * dim].chunks(dim);
                for (dst, row) in q_tile.chunks_mut(head_dim).zip(q_rows) {
                    dst.copy_from_slice(&row[lo..hi]);
                }
                let (mut scores, mut probs) = (&mut scores[..rows * len], &mut probs[..rows * len]);
                scores.fill(0.0);
                simd::matmul_band(q_tile, head_dim, kh_t, len, 0, scores);
                if let Some(scale) = scale {
                    simd::scale_slice(scores, scale, probs);
                    std::mem::swap(&mut scores, &mut probs);
                }
                for (row, prow) in scores.chunks(len).zip(probs.chunks_mut(len)) {
                    simd::softmax_row(row, prow);
                }
                let head = &mut head[..rows * head_dim];
                head.fill(0.0);
                simd::matmul_band(probs, len, vh, head_dim, 0, head);
                for (orow, hrow) in out.chunks_mut(dim).zip(head.chunks(head_dim)) {
                    orow[lo..hi].copy_from_slice(hrow);
                }
            }
        }
    }
}

/// The token-mixing half of a frozen encoder block.
#[derive(Debug, Clone)]
pub enum FrozenMixing {
    /// Multi-head self-attention (Transformer / ABfly blocks).
    Attention(Box<FrozenAttention>),
    /// Parameter-free 2-D Fourier mixing (FNet / FBfly blocks).
    Fourier,
}

/// One frozen encoder block: token mixing and an FFN, each wrapped in a
/// residual shortcut plus layer normalisation.
#[derive(Debug, Clone)]
pub struct FrozenBlock {
    pub(crate) mixing: FrozenMixing,
    pub(crate) ffn: FrozenFeedForward,
    pub(crate) ln1: FrozenLayerNorm,
    pub(crate) ln2: FrozenLayerNorm,
}

impl FrozenBlock {
    /// Reassembles a frozen block from its halves (snapshot restore).
    pub fn new(
        mixing: FrozenMixing,
        ffn: FrozenFeedForward,
        ln1: FrozenLayerNorm,
        ln2: FrozenLayerNorm,
    ) -> Self {
        Self { mixing, ffn, ln1, ln2 }
    }

    /// The token-mixing half of the block.
    pub fn mixing(&self) -> &FrozenMixing {
        &self.mixing
    }

    /// The feed-forward half of the block.
    pub fn ffn(&self) -> &FrozenFeedForward {
        &self.ffn
    }

    /// Layer norm wrapping the mixing residual.
    pub fn ln1(&self) -> &FrozenLayerNorm {
        &self.ln1
    }

    /// Layer norm wrapping the FFN residual.
    pub fn ln2(&self) -> &FrozenLayerNorm {
        &self.ln2
    }

    /// Applies block `index` to one sequence's `[len, hidden]` activations
    /// in `ws.x`, leaving the result there and handing `tap` the inputs of
    /// the block's quantizable GEMMs.
    fn forward_in(
        &self,
        ws: &mut Workspace,
        index: usize,
        fast_math: bool,
        tap: &mut impl FnMut(Tap, &[f32]),
    ) {
        let Workspace { x, y, fx, act, attention, qx, .. } = ws;
        match &self.mixing {
            FrozenMixing::Attention(a) => {
                tap(Tap::AttnIn(index), x.as_slice());
                a.forward_into(x, fast_math, attention, qx, fx, |mixed| {
                    tap(Tap::AttnCoreOut(index), mixed)
                });
            }
            FrozenMixing::Fourier => fourier_mix_into(x, fx),
        }
        self.ln1.forward_residual_into(x, fx, y);
        tap(Tap::Ffn1In(index), y.as_slice());
        self.ffn.forward_into(y, act, qx, fx, |act| tap(Tap::Ffn2In(index), act));
        self.ln2.forward_residual_into(y, fx, x);
    }
}

/// Every activation buffer of one frozen forward. A forward takes an idle
/// one (see [`with_workspace`]) and every buffer only ever grows
/// ([`Tensor::resize_to`]), so once a workspace has held the longest
/// sequence a forward in it allocates nothing but the logits it returns.
/// The high-water mark is about `len · (ffn + 9 · hidden) · 4` bytes plus the
/// attention core's score slots, one sub-tile of scores and one of
/// probabilities per band: `2 · ATTN_MAX_BANDS · ATTN_SUB_ROWS · len · 4`
/// bytes.
#[derive(Debug, Default)]
struct Workspace {
    /// A block's input and, after it ran, its output: `[len, hidden]`.
    x: Tensor,
    /// The block's state between its two halves (the output of `ln1`).
    y: Tensor,
    /// Output of the half in flight: the token mixing, then the FFN.
    fx: Tensor,
    /// The FFN's `[len, ffn]` intermediate.
    act: Tensor,
    attention: AttentionBuffers,
    /// The int8 form of whatever an int8 linear is reading.
    qx: Vec<i8>,
    /// Mean-pooled hidden state, `[1, hidden]`.
    pooled: Tensor,
    /// The classifier head's output, `[1, classes]`.
    logits: Tensor,
}

/// The buffers of [`FrozenAttention::forward_into`].
#[derive(Debug, Default)]
struct AttentionBuffers {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// The mixed heads, `[len, dim]`: the output projection's input.
    mixed: Tensor,
    core: CoreBuffers,
}

/// The buffers of [`attention_core`].
#[derive(Debug, Default)]
struct CoreBuffers {
    /// `kᵀ`, `[dim, len]`.
    kt: Tensor,
    /// V head-major: `[num_heads · len, head_dim]`.
    v_heads: Tensor,
    /// One [`ATTN_SUB_ROWS`]-row slot per band in each of the four below.
    /// One head's query columns of a sub-tile, `[rows, head_dim]`.
    q_tile: Tensor,
    /// The sub-tile's `[rows, len]` scores and probabilities.
    scores: Tensor,
    probs: Tensor,
    /// The sub-tile's mixed head, `[rows, head_dim]`.
    head: Tensor,
}

/// The workspaces no forward is using, the most recently used one last.
static IDLE_WORKSPACES: Mutex<Vec<Workspace>> = Mutex::new(Vec::new());

#[cfg(test)]
impl Workspace {
    /// Overwrites every buffer with NaN (the int8 one with a value
    /// quantization never produces), so a forward that reads anything it
    /// has not written itself shows it.
    fn poison(&mut self) {
        let Workspace { x, y, fx, act, attention, qx, pooled, logits } = self;
        let AttentionBuffers { q, k, v, mixed, core } = attention;
        let CoreBuffers { kt, v_heads, q_tile, scores, probs, head } = core;
        for t in [
            x, y, fx, act, pooled, logits, q, k, v, mixed, kt, v_heads, q_tile, scores, probs, head,
        ] {
            t.as_mut_slice().fill(f32::NAN);
        }
        qx.fill(i8::MIN);
    }
}

/// Runs `f` on an idle [`Workspace`] — the one used last, so a lone caller
/// always gets the same warm one — or on a new one when every workspace is
/// in a forward: there are as many as there have been forwards running at
/// once, on other threads or from inside a tap. They are shared by the
/// process and not kept per thread because a daemon has far more threads
/// that run forwards (every worker of every model) than forwards in
/// flight, and each thread's buffers would sit in its own malloc arena.
fn with_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    // Only `pop` and `push` run under the lock, so a poisoned one still
    // guards a valid stack.
    let idle = || IDLE_WORKSPACES.lock().unwrap_or_else(PoisonError::into_inner);
    let mut ws = idle().pop().unwrap_or_default();
    let result = f(&mut ws);
    idle().push(ws);
    result
}

/// Which activation tensor [`FrozenModel::logits_observed`] is showing its
/// tap: the input of a GEMM that post-training quantization turns int8.
/// Block variants carry the block's index in [`FrozenModel::blocks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tap {
    /// Input of an attention block's q/k/v projections, `[len, hidden]`.
    AttnIn(usize),
    /// Input of an attention block's output projection (the mixed heads),
    /// `[len, hidden]`.
    AttnCoreOut(usize),
    /// Input of a block's first FFN layer, `[len, hidden]`.
    Ffn1In(usize),
    /// Input of a block's second FFN layer (post-GELU), `[len, ffn]`.
    Ffn2In(usize),
    /// Input of the classifier head: the mean-pooled hidden state,
    /// `[hidden]`.
    HeadIn,
}

/// The token and positional embedding tables of a frozen model, both f32
/// or both int8.
#[derive(Debug, Clone)]
pub enum FrozenEmbedding {
    /// f32 tables.
    F32 {
        /// `[vocab, hidden]` token table.
        tok: Tensor,
        /// `[max_seq, hidden]` positional table.
        pos: Tensor,
    },
    /// int8 tables with per-row scales, dequantized on gather.
    Int8 {
        /// `[vocab, hidden]` token table.
        tok: QuantEmbedding,
        /// `[max_seq, hidden]` positional table.
        pos: QuantEmbedding,
    },
}

impl FrozenEmbedding {
    /// Writes the embedding of token `id` at position `j` into `row`. f32
    /// tables give `tok + pos`; int8 tables give `0 + tok_q·s + pos_q·s`,
    /// one rounding per term.
    fn gather_into(&self, id: usize, j: usize, row: &mut [f32]) {
        match self {
            FrozenEmbedding::F32 { tok, pos } => {
                let h = row.len();
                assert_eq!(tok.cols(), h, "embedding gather width mismatch");
                let trow = &tok.as_slice()[id * h..(id + 1) * h];
                let prow = &pos.as_slice()[j * h..(j + 1) * h];
                for ((d, &t), &p) in row.iter_mut().zip(trow.iter()).zip(prow.iter()) {
                    *d = t + p;
                }
            }
            FrozenEmbedding::Int8 { tok, pos } => {
                row.fill(0.0);
                tok.add_row_into(id, row);
                pos.add_row_into(j, row);
            }
        }
    }

    /// `[rows, cols]` of the token and of the positional table.
    fn shapes(&self) -> ([usize; 2], [usize; 2]) {
        match self {
            FrozenEmbedding::F32 { tok, pos } => {
                ([tok.rows(), tok.cols()], [pos.rows(), pos.cols()])
            }
            FrozenEmbedding::Int8 { tok, pos } => {
                ([tok.rows(), tok.cols()], [pos.rows(), pos.cols()])
            }
        }
    }
}

/// An immutable, `Send + Sync` inference snapshot of a trained model.
///
/// Produced by [`Model::freeze`](crate::Model::freeze) (all f32) and turned
/// into its int8 form by `fab_quant::quantize`; see the
/// [module docs](self) for the execution model and exactness guarantees.
#[derive(Debug, Clone)]
pub struct FrozenModel {
    pub(crate) config: ModelConfig,
    pub(crate) kind: ModelKind,
    pub(crate) embedding: FrozenEmbedding,
    pub(crate) blocks: Vec<FrozenBlock>,
    pub(crate) head: FrozenLinear,
    pub(crate) fast_math: bool,
}

impl FrozenModel {
    /// Reassembles a frozen model from its parts — the inverse of the
    /// component accessors, used by snapshot restore and by quantization. A
    /// model rebuilt from the exact values of another produces bit-identical
    /// logits. Fast math starts disabled; chain
    /// [`FrozenModel::with_fast_math`] to re-enable it.
    ///
    /// # Panics
    ///
    /// Panics when the embedding tables disagree with `config`
    /// (`[vocab_size, hidden]` / `[max_seq, hidden]`) or the block count
    /// differs from `config.num_layers`.
    pub fn from_parts(
        config: ModelConfig,
        kind: ModelKind,
        embedding: FrozenEmbedding,
        blocks: Vec<FrozenBlock>,
        head: FrozenLinear,
    ) -> Self {
        let (tok, pos) = embedding.shapes();
        assert_eq!(tok, [config.vocab_size, config.hidden], "token table shape mismatch");
        assert_eq!(pos, [config.max_seq, config.hidden], "positional table shape mismatch");
        assert_eq!(blocks.len(), config.num_layers, "block count mismatch");
        Self { config, kind, embedding, blocks, head, fast_math: false }
    }

    /// The configuration of the model this snapshot was frozen from.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Selects the transcendental kernels: `false` (the
    /// [`Model::freeze`](crate::Model::freeze) default) uses the exact
    /// `libm`-based GELU/softmax, keeping logits bit-identical to
    /// [`Model::predict`](crate::Model::predict); `true` switches to the
    /// serving-grade [`fab_tensor::fastmath`] kernels, trading ≤ ~1e-6 of
    /// logit accuracy for substantially cheaper softmax/GELU. Either way
    /// the forward stays deterministic and bit-invariant to batch
    /// composition, padding and thread count.
    ///
    /// # Panics
    ///
    /// Panics when asked to enable fast math on a model with int8 tables:
    /// quantized models run the exact attention ordering, and their
    /// snapshot format has no place to record anything else.
    pub fn with_fast_math(mut self, fast_math: bool) -> Self {
        assert!(
            !(fast_math && matches!(self.embedding, FrozenEmbedding::Int8 { .. })),
            "a model with int8 tables runs with fast math off"
        );
        self.fast_math = fast_math;
        self
    }

    /// Whether the serving-grade fast-math kernels are enabled.
    pub fn fast_math(&self) -> bool {
        self.fast_math
    }

    /// Which architecture the snapshot instantiates.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The frozen encoder blocks, in execution order. Exposed (together
    /// with the other component accessors) so post-training tooling such as
    /// `fab-quant` can walk the snapshot layer by layer.
    pub fn blocks(&self) -> &[FrozenBlock] {
        &self.blocks
    }

    /// The classifier head applied to the mean-pooled hidden state.
    pub fn head(&self) -> &FrozenLinear {
        &self.head
    }

    /// The embedding tables, f32 or int8.
    pub fn embedding(&self) -> &FrozenEmbedding {
        &self.embedding
    }

    /// `[vocab, hidden]` f32 token-embedding table.
    ///
    /// # Panics
    ///
    /// Panics when the tables are int8; [`FrozenModel::embedding`] serves
    /// both.
    pub fn tok_table(&self) -> &Tensor {
        match &self.embedding {
            FrozenEmbedding::F32 { tok, .. } => tok,
            FrozenEmbedding::Int8 { .. } => panic!("tok_table() on a model with int8 tables"),
        }
    }

    /// `[max_seq, hidden]` f32 positional-embedding table.
    ///
    /// # Panics
    ///
    /// Panics when the tables are int8; [`FrozenModel::embedding`] serves
    /// both.
    pub fn pos_table(&self) -> &Tensor {
        match &self.embedding {
            FrozenEmbedding::F32 { pos, .. } => pos,
            FrozenEmbedding::Int8 { .. } => panic!("pos_table() on a model with int8 tables"),
        }
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.head.d_out()
    }

    /// Maximum supported sequence length.
    pub fn max_seq(&self) -> usize {
        self.config.max_seq
    }

    /// Fraction of linear maps (projections, FFN layers, head) running the
    /// int8 path: 0.0 for an all-f32 model, below 1.0 for a quantized model
    /// with butterfly-factorised linears, which stay f32.
    pub fn quantized_fraction(&self) -> f64 {
        let mut linears: Vec<&FrozenLinear> = vec![&self.head];
        for b in &self.blocks {
            if let FrozenMixing::Attention(a) = &b.mixing {
                linears.extend([&a.wq, &a.wk, &a.wv, &a.wo]);
            }
            linears.extend([&b.ffn.lin1, &b.ffn.lin2]);
        }
        let int8 = linears.iter().filter(|l| matches!(l, FrozenLinear::Int8(_))).count();
        int8 as f64 / linears.len() as f64
    }

    /// The one forward, with a tap: embeds `tokens`, runs the block stack
    /// over the `[len, hidden]` activations, mean-pools and applies the
    /// classifier head, calling `tap` with each activation tensor [`Tap`]
    /// names, in execution order, as the forward consumes it.
    /// [`FrozenModel::logits`] is this with a no-op tap, so both return the
    /// same bits.
    ///
    /// # Panics
    ///
    /// Panics when `tokens` is empty or longer than `max_seq`, or a token
    /// id is out of vocabulary.
    pub fn logits_observed(&self, tokens: &[usize], mut tap: impl FnMut(Tap, &[f32])) -> Vec<f32> {
        with_workspace(|ws| self.forward_in(ws, tokens, &mut tap))
    }

    /// [`FrozenModel::logits_observed`] with every activation in `ws`.
    fn forward_in(
        &self,
        ws: &mut Workspace,
        tokens: &[usize],
        tap: &mut impl FnMut(Tap, &[f32]),
    ) -> Vec<f32> {
        let (hidden, vocab, max_seq) =
            (self.config.hidden, self.config.vocab_size, self.config.max_seq);
        let len = tokens.len();
        assert!(len >= 1 && len <= max_seq, "sequence length {len} outside 1..={max_seq}");
        ws.x.resize_to(&[len, hidden]);
        for (j, (row, &id)) in ws.x.as_mut_slice().chunks_mut(hidden).zip(tokens).enumerate() {
            assert!(id < vocab, "token index {id} out of range for vocab {vocab}");
            self.embedding.gather_into(id, j, row);
        }
        for (index, block) in self.blocks.iter().enumerate() {
            block.forward_in(ws, index, self.fast_math, tap);
        }
        let Workspace { x, pooled, logits, qx, .. } = ws;
        x.mean_rows_into(pooled);
        tap(Tap::HeadIn, pooled.as_slice());
        self.head.forward_into(pooled, false, qx, logits);
        logits.as_slice().to_vec()
    }

    /// Class logits for a single sequence (tape-free).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`FrozenModel::logits_observed`].
    pub fn logits(&self, tokens: &[usize]) -> Vec<f32> {
        self.logits_observed(tokens, |_, _| {})
    }

    /// Per-sequence class logits for a batch whose caller sized it for
    /// `pad_to`-long sequences: [`FrozenModel::logits`] on each sequence in
    /// turn, so batch composition and `pad_to` cannot change an answer.
    ///
    /// # Panics
    ///
    /// Panics when `batch` is empty, `pad_to` is outside `1..=max_seq`, a
    /// sequence is empty or longer than `pad_to`, or a token id is out of
    /// vocabulary.
    pub fn logits_batch<S: AsRef<[usize]>>(&self, batch: &[S], pad_to: usize) -> Vec<Vec<f32>> {
        assert!(!batch.is_empty(), "cannot run a frozen model on an empty batch");
        let max_seq = self.config.max_seq;
        assert!(pad_to >= 1 && pad_to <= max_seq, "pad_to {pad_to} outside 1..={max_seq}");
        batch
            .iter()
            .map(|tokens| {
                let tokens = tokens.as_ref();
                let len = tokens.len();
                assert!(len >= 1 && len <= pad_to, "sequence length {len} outside 1..={pad_to}");
                self.logits(tokens)
            })
            .collect()
    }

    /// [`FrozenModel::logits_batch`] over a caller-managed flat token
    /// buffer: `tokens_padded` holds `lengths.len() * pad_to` token ids,
    /// example `i` occupying slots `[i * pad_to, i * pad_to + lengths[i])`.
    /// The padding slots after it are never read.
    ///
    /// # Panics
    ///
    /// Panics when the buffer length is not `lengths.len() * pad_to`, and
    /// under the same conditions as [`FrozenModel::logits_batch`].
    pub fn logits_batch_flat(
        &self,
        tokens_padded: &[usize],
        lengths: &[usize],
        pad_to: usize,
    ) -> Vec<Vec<f32>> {
        assert_eq!(
            tokens_padded.len(),
            lengths.len() * pad_to,
            "flat token buffer length mismatch"
        );
        let batch: Vec<&[usize]> = lengths
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                assert!(len <= pad_to, "sequence length {len} outside 1..={pad_to}");
                &tokens_padded[i * pad_to..i * pad_to + len]
            })
            .collect();
        self.logits_batch(&batch, pad_to)
    }

    /// Predicted class for a single sequence (tape-free).
    pub fn predict_class(&self, tokens: &[usize]) -> usize {
        argmax(&self.logits(tokens))
    }
}

/// Index of the largest logit, matching the tie-breaking (first maximum
/// wins) of [`Model::predict_class`](crate::Model::predict_class). Exposed
/// so serving layers classify exactly the way the model does.
pub fn argmax(logits: &[f32]) -> usize {
    logits
        .iter()
        .enumerate()
        .fold((0usize, f32::NEG_INFINITY), |acc, (i, &v)| if v > acc.1 { (i, v) } else { acc })
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, ModelConfig, ModelKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> ModelConfig {
        ModelConfig::tiny_for_tests()
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn frozen_model_is_send_and_sync() {
        assert_send_sync::<FrozenModel>();
    }

    #[test]
    fn frozen_single_logits_match_tape_predict_bit_for_bit() {
        for (seed, kind) in
            [(1, ModelKind::FabNet), (2, ModelKind::FNet), (3, ModelKind::Transformer)]
        {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = Model::new(&tiny(), kind, &mut rng);
            let frozen = model.freeze();
            let tokens = vec![1usize, 5, 2, 7, 3, 0, 4];
            assert_eq!(model.predict(&tokens), frozen.logits(&tokens), "{kind:?}");
        }
    }

    #[test]
    fn batched_logits_match_single_requests_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(9);
        let model = Model::new(&tiny(), ModelKind::FabNet, &mut rng);
        let frozen = model.freeze();
        let batch: Vec<Vec<usize>> =
            vec![vec![1, 2, 3], vec![4, 5, 6, 7, 0, 2, 3, 1], vec![2; 5], vec![7, 7]];
        let pad_to = 8;
        let batched = frozen.logits_batch(&batch, pad_to);
        for (tokens, got) in batch.iter().zip(batched.iter()) {
            assert_eq!(&model.predict(tokens), got, "tokens {tokens:?}");
        }
    }

    #[test]
    fn flat_buffer_path_matches_sequence_path() {
        let mut rng = StdRng::seed_from_u64(14);
        let model = Model::new(&tiny(), ModelKind::FabNet, &mut rng);
        let frozen = model.freeze();
        let batch: Vec<Vec<usize>> = vec![vec![1, 2, 3], vec![4, 5, 6, 7, 0], vec![2; 6]];
        let pad_to = 6;
        let lengths: Vec<usize> = batch.iter().map(Vec::len).collect();
        let mut flat = vec![0usize; batch.len() * pad_to];
        for (dst, src) in flat.chunks_mut(pad_to).zip(batch.iter()) {
            dst[..src.len()].copy_from_slice(src);
        }
        assert_eq!(
            frozen.logits_batch(&batch, pad_to),
            frozen.logits_batch_flat(&flat, &lengths, pad_to)
        );
    }

    #[test]
    fn shared_qkv_quantization_equals_three_independent_forwards() {
        let mut rng = StdRng::seed_from_u64(15);
        let frozen = Model::new(&tiny(), ModelKind::Transformer, &mut rng).freeze();
        let FrozenMixing::Attention(a) = frozen.blocks()[0].mixing() else {
            panic!("transformer block without attention")
        };
        let int8 = |lin: &FrozenLinear, in_scale: f32| match lin {
            FrozenLinear::Dense { w, b } => {
                FrozenLinear::Int8(QuantLinear::from_dense(w, b, in_scale))
            }
            _ => panic!("transformer projections are dense"),
        };
        let len = 6usize;
        let x: Vec<f32> =
            (0..len * a.dim()).map(|i| ((i * 37 % 101) as f32) * 0.02 - 1.0).collect();
        let x = Tensor::from_vec(x, &[len, a.dim()]).expect("x");
        // One input scale takes the quantize-once route, three scales the
        // independent one; both must equal the projections run one by one.
        for scales in [[0.02f32, 0.02, 0.02], [0.02, 0.03, 0.02]] {
            let attn = FrozenAttention::new(
                int8(a.wq(), scales[0]),
                int8(a.wk(), scales[1]),
                int8(a.wv(), scales[2]),
                a.wo().clone(),
                a.dim(),
                a.num_heads(),
            );
            let (q, k, v) = (attn.wq.forward(&x), attn.wk.forward(&x), attn.wv.forward(&x));
            let mut mixed = vec![0.0f32; x.len()];
            attention_mix_rows(&q, &k, &v, a.num_heads(), false, &mut mixed);
            let mixed = Tensor::from_vec(mixed, &[len, a.dim()]).expect("mixed");
            let mut out = Tensor::default();
            let mut bufs = AttentionBuffers::default();
            attn.forward_into(&x, false, &mut bufs, &mut Vec::new(), &mut out, |_| {});
            assert_eq!(out.as_slice(), attn.wo.forward(&mixed).as_slice(), "scales {scales:?}");
        }
    }

    /// An all-int8 copy of an f32 model with fixed input scales (q/k/v
    /// share theirs, so attention quantizes its input once).
    fn quantized(frozen: &FrozenModel) -> FrozenModel {
        let int8 = |lin: &FrozenLinear| match lin {
            FrozenLinear::Dense { w, b } => FrozenLinear::Int8(QuantLinear::from_dense(w, b, 0.04)),
            other => other.clone(),
        };
        let blocks = frozen
            .blocks()
            .iter()
            .map(|b| {
                let mixing = match b.mixing() {
                    FrozenMixing::Attention(a) => {
                        FrozenMixing::Attention(Box::new(FrozenAttention::new(
                            int8(a.wq()),
                            int8(a.wk()),
                            int8(a.wv()),
                            int8(a.wo()),
                            a.dim(),
                            a.num_heads(),
                        )))
                    }
                    FrozenMixing::Fourier => FrozenMixing::Fourier,
                };
                let ffn = FrozenFeedForward::new(int8(b.ffn().lin1()), int8(b.ffn().lin2()));
                FrozenBlock::new(mixing, ffn, b.ln1().clone(), b.ln2().clone())
            })
            .collect();
        let embedding = FrozenEmbedding::Int8 {
            tok: QuantEmbedding::from_table(frozen.tok_table()),
            pos: QuantEmbedding::from_table(frozen.pos_table()),
        };
        FrozenModel::from_parts(
            frozen.config().clone(),
            frozen.kind(),
            embedding,
            blocks,
            int8(frozen.head()),
        )
    }

    /// Transformer, FNet and FABNet (one attention block, one Fourier
    /// block), each exact, fast-math and int8, long enough for several
    /// attention tiles.
    fn workspace_models() -> &'static [FrozenModel] {
        static MODELS: std::sync::OnceLock<Vec<FrozenModel>> = std::sync::OnceLock::new();
        MODELS.get_or_init(|| {
            let config = ModelConfig {
                hidden: 12,
                ffn_ratio: 2,
                num_layers: 2,
                num_abfly: 1,
                num_heads: 2,
                vocab_size: 16,
                max_seq: 512,
                num_classes: 3,
            };
            [ModelKind::Transformer, ModelKind::FNet, ModelKind::FabNet]
                .into_iter()
                .flat_map(|kind| {
                    let exact = Model::new(&config, kind, &mut StdRng::seed_from_u64(21)).freeze();
                    [exact.clone().with_fast_math(true), quantized(&exact), exact]
                })
                .collect()
        })
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Lengths around the attention core's sub-tile and band edges; the
    /// longest forks, the others run their bands as a loop.
    const WORKSPACE_LENS: [usize; 9] =
        [1, 7, ATTN_SUB_ROWS - 1, ATTN_SUB_ROWS, ATTN_SUB_ROWS + 1, 127, 128, 129, 512];

    // Whatever a workspace last held — another model's activations, a
    // longer or a shorter sequence's, or NaN — a forward in it returns the
    // bits it returns in a new one.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn a_used_workspace_gives_the_bits_of_a_new_one(
            calls in proptest::collection::vec((0usize..9, 0usize..9, 0usize..2), 10),
        ) {
            let hidden = workspace_models()[0].config().hidden;
            proptest::prop_assert!(attention_core_flops(512, hidden) >= PAR_GRAIN_OPS);
            proptest::prop_assert!(attention_core_flops(129, hidden) < PAR_GRAIN_OPS);
            let mut used = Workspace::default();
            for (model, len, poison) in calls {
                let model = &workspace_models()[model];
                let tokens: Vec<usize> =
                    (0..WORKSPACE_LENS[len]).map(|j| (j * 7 + len * 3 + 1) % 16).collect();
                if poison == 1 {
                    used.poison();
                }
                let reused = model.forward_in(&mut used, &tokens, &mut |_, _| {});
                let new = model.forward_in(&mut Workspace::default(), &tokens, &mut |_, _| {});
                proptest::prop_assert_eq!(bits(&reused), bits(&new));
            }
        }
    }

    /// The attention core with nothing cut: head by head,
    /// `softmax(c · q_h·k_hᵀ) · v_h` on whole tensors.
    fn attention_untiled(
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        num_heads: usize,
        prescaled: bool,
    ) -> Vec<f32> {
        let (len, dim) = (q.rows(), q.cols());
        let head_dim = dim / num_heads;
        let mut out = vec![0.0f32; len * dim];
        for h in 0..num_heads {
            let (lo, hi) = (h * head_dim, (h + 1) * head_dim);
            let mut scores = q.slice_cols(lo, hi).matmul(&k.slice_cols(lo, hi).transpose());
            if !prescaled {
                scores = scores.scale(1.0 / (head_dim as f32).sqrt());
            }
            let head = scores.softmax_rows().matmul(&v.slice_cols(lo, hi));
            for (orow, hrow) in out.chunks_mut(dim).zip(head.as_slice().chunks(head_dim)) {
                orow[lo..hi].copy_from_slice(hrow);
            }
        }
        out
    }

    // Kernel against kernel: the banded, sub-tiled core gives the bits of
    // the whole-tensor ops, at lengths on both sides of every sub-tile and
    // band edge and of the fan-out grain. Every head has one key that is
    // not finite in one feature; the query is ±0.0 there in most rows (the
    // matmul skips a zero term, so those rows never meet it) and not in the
    // others (whose score for that key is ±inf or NaN).
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        #[test]
        fn the_banded_core_gives_the_bits_of_the_untiled_one(
            seed in 0u64..1 << 32,
            head_dim in 1usize..10,
        ) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            for len in [1usize, 7, 8, 9, 127, 128, 129, 1000] {
                for num_heads in [1usize, 3, 4] {
                    let dim = num_heads * head_dim;
                    let mut random = || {
                        let data = (0..len * dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
                        Tensor::from_vec(data, &[len, dim]).expect("shape")
                    };
                    let (mut q, mut k, v) = (random(), random(), random());
                    for h in 0..num_heads {
                        let wild = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY][h % 3];
                        k.as_mut_slice()[(len / 2) * dim + h * head_dim] = wild;
                        for (i, row) in q.as_mut_slice().chunks_mut(dim).enumerate() {
                            if i % 5 != 3 {
                                row[h * head_dim] = if i % 2 == 0 { 0.0 } else { -0.0 };
                            }
                        }
                    }
                    for prescaled in [false, true] {
                        let mut out = vec![0.0f32; len * dim];
                        attention_mix_rows(&q, &k, &v, num_heads, prescaled, &mut out);
                        let expected = attention_untiled(&q, &k, &v, num_heads, prescaled);
                        proptest::prop_assert!(
                            bits(&out) == bits(&expected),
                            "len {len} heads {num_heads} head_dim {head_dim} prescaled {prescaled}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_tap_may_run_another_forward() {
        let models = workspace_models();
        let tokens: Vec<usize> = (0..40).map(|j| (j * 5 + 2) % 16).collect();
        let inner_tokens: Vec<usize> = (0..150).map(|j| (j * 3 + 1) % 16).collect();
        for (outer, inner) in [(0, 4), (2, 6), (7, 1)] {
            let (outer, inner) = (&models[outer], &models[inner]);
            let (alone, inner_alone) = (outer.logits(&tokens), inner.logits(&inner_tokens));
            let mut seen = 0;
            let observed = outer.logits_observed(&tokens, |_, _| {
                assert_eq!(bits(&inner.logits(&inner_tokens)), bits(&inner_alone));
                seen += 1;
            });
            assert!(seen > 0, "the tap never ran");
            assert_eq!(bits(&observed), bits(&alone));
        }
    }

    #[test]
    fn padding_length_does_not_change_logits() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = Model::new(&tiny(), ModelKind::FabNet, &mut rng);
        let frozen = model.freeze();
        let batch = vec![vec![1usize, 2, 3, 4, 5]];
        let a = frozen.logits_batch(&batch, 5);
        let b = frozen.logits_batch(&batch, 8);
        let c = frozen.logits_batch(&batch, tiny().max_seq);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn rejects_invalid_batches() {
        let mut rng = StdRng::seed_from_u64(6);
        let model = Model::new(&tiny(), ModelKind::FNet, &mut rng);
        let frozen = model.freeze();
        let too_long = vec![vec![0usize; tiny().max_seq + 1]];
        for f in [
            Box::new(|| frozen.logits_batch(&too_long, tiny().max_seq + 1))
                as Box<dyn Fn() -> Vec<Vec<f32>>>,
            Box::new(|| frozen.logits_batch(&[Vec::<usize>::new()], 4)),
            Box::new(|| frozen.logits_batch(&Vec::<Vec<usize>>::new(), 4)),
        ] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            assert!(result.is_err());
        }
    }
}
