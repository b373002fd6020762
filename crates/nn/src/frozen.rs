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
//! row-parallel softmax/layer-norm) directly; a block whose FFN is
//! butterfly-factorised runs its second half as one lane pass
//! ([`ButterflyFfn`]).
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
//! reaches [`fab_tensor::PAR_GRAIN_OPS`] goes to the worker pool, which allocates
//! nothing either; a short sequence makes no such call, a two-layer
//! Transformer at 1024 tokens twenty.) A forward takes the most recently
//! used idle workspace of the process for its duration, so there are as
//! many as forwards have run at once (a batch fanned out over the worker
//! pool has one per worker), and the model itself stays immutable and
//! `Send + Sync`: its weights are one reference-counted set that every
//! clone of it shares. Attention never holds a `[len, len]` matrix: the
//! query rows are cut into at most eight bands — the indices of the core's
//! one pool call — and a band mixes one head 32 query rows at a time,
//! reading K and V in place, so the score memory is `O(256 · len)`. Nothing
//! here is configurable, and no value depends on what a buffer held before:
//! every op overwrites the whole of its output.
//!
//! [`FrozenModel::logits_observed`] is the same forward with a tap: a
//! callback handed the activation tensors that feed the quantizable GEMMs
//! ([`Tap`]). `fab-quant` calibrates through it, so the scales describe
//! exactly the activations the served forward produces. Without a tap the
//! callback is a no-op closure the compiler removes.
//!
//! [`FrozenModel::with_fast_math`] changes one thing: attention scales
//! the query once, `(c·q)·kᵀ`, instead of every score, `c·(q·kᵀ)`. GELU
//! and softmax are the [`fab_tensor::fastmath`] kernels either way, so the
//! switch sheds no compute: the two forwards take the same time within
//! noise. Logits then differ from the tape path by at most ~1e-6 —
//! not at all where `c = 1/√head_dim` is a power of two — but remain
//! deterministic, and batching cannot change a fast-math answer either.
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
use fab_butterfly::{fourier_mix_into, ButterflyFfn, ButterflyMatrix, LayerNorm};
use fab_tensor::{attention, simd, Tensor};
use std::sync::{Arc, Mutex, PoisonError};

/// A frozen (inference-only) linear map: the tape-free counterpart of the
/// trainable [`crate::Model`]'s dense and butterfly linear maps.
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
    /// transform size and truncation back to `d_out`, exactly as in the
    /// trainable model's butterfly layers.
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
    /// quantized input. No arm makes a second pass through a second buffer
    /// but a butterfly map's GELU: the dense map adds its bias and applies
    /// the activation in place on the product, the butterfly map applies
    /// padding, bias and truncation inside its own tile loop
    /// ([`ButterflyMatrix::forward_rows_fused_into`]) and the int8 map bias
    /// and activation inside its dequantization epilogue — all
    /// bit-identical to `matmul`, `add_row_broadcast`, `gelu` one after the
    /// other. (A butterfly map reads `gelu` only as the first layer of an
    /// FFN whose second layer is not a butterfly; two butterfly layers run
    /// as one [`ButterflyFfn`].)
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
                bfly.forward_rows_fused_into(x, *d_out, b.as_slice(), out);
                if gelu {
                    out.gelu_in_place();
                }
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

    /// Fused residual shortcut: normalises each row of `x + fx`
    /// (bit-identical to `layer_norm_rows` of `x.add(fx)`, one pass).
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

    /// The parameters as a butterfly FFN block's lane pass reads them.
    fn lane_params(&self) -> LayerNorm<'_> {
        LayerNorm { gamma: self.gamma.as_slice(), beta: self.beta.as_slice(), eps: self.eps }
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
    /// GELU fused into `lin1`'s epilogue; two butterfly maps run as one
    /// pass over lane tiles ([`ButterflyFfn`]) with the same bits.
    /// `fast_math` changes nothing here: the exact and the serving-grade
    /// GELU are the same kernel ([`fab_tensor::fastmath`]).
    pub fn forward(&self, x: &Tensor, _fast_math: bool) -> Tensor {
        let mut out = Tensor::default();
        match self.butterfly() {
            Some(ffn) => ffn.forward_rows_into(x, &mut out),
            None => self.forward_into(x, &mut Tensor::default(), &mut Vec::new(), &mut out, |_| {}),
        }
        out
    }

    /// Both maps as one [`ButterflyFfn`], when both are butterfly maps
    /// that fit together (`hidden → ffn → hidden`).
    fn butterfly(&self) -> Option<ButterflyFfn<'_>> {
        match (&self.lin1, &self.lin2) {
            (
                FrozenLinear::Butterfly { bfly: up, b: up_bias, d_in: hidden, d_out: ffn },
                FrozenLinear::Butterfly { bfly: down, b: down_bias, d_in, d_out },
            ) if (d_in, d_out) == (ffn, hidden)
                && (up_bias.len(), down_bias.len()) == (*ffn, *hidden) =>
            {
                Some(ButterflyFfn::new(up, up_bias.as_slice(), down, down_bias.as_slice()))
            }
            _ => None,
        }
    }

    /// [`FrozenFeedForward::forward`] of a dense (or int8) FFN writing into
    /// `out`, with `lin2`'s input (the post-GELU activations) left in `act`
    /// and shown to `observe` on the way.
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
        let AttentionBuffers { q, k, v, mixed, tiles } = bufs;
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
        let backend = simd::backend();
        let heads = self.num_heads;
        attention::forward(backend, q, k, v, heads, fast_math, mixed.as_mut_slice(), tiles);
        observe(mixed.as_slice());
        self.wo.forward_into(mixed, false, qx, out);
    }
}

/// The f32 `softmax(QKᵀ)·V` attention core on one example's projected
/// `[len, dim]` q/k/v, scattering the mixed heads into `out` (`len · dim`
/// values, the layout a `concat_cols` would produce): the tape's attention
/// op's kernel, [`attention::forward`], on an idle workspace's tile scratch
/// and the active backend. An empty sequence writes nothing.
///
/// `prescaled` says the query was already multiplied by `1/√head_dim` (the
/// fast-math path's `(c·q)·kᵀ` ordering); otherwise the raw scores are
/// scaled. Public so a per-component profile can time the core on its own
/// (the benchmark's `nn.share.*` replay does).
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
        let tiles = &mut ws.attention.tiles;
        attention::forward(simd::backend(), qi, ki, vi, num_heads, prescaled, out, tiles)
    });
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
    /// the block's quantizable GEMMs. A butterfly FFN runs with both layer
    /// norms as one pass over lane tiles ([`ButterflyFfn::block_rows_into`])
    /// from `ws.x` into `ws.y`, which then trade places, with the bits of
    /// the row-major composition a dense FFN runs.
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
        if let Some(ffn) = self.ffn.butterfly() {
            ffn.block_rows_into(x, fx, self.ln1.lane_params(), self.ln2.lane_params(), y);
            std::mem::swap(x, y);
            return;
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
/// With dense FFNs (Transformer, FNet) the high-water mark is about
/// `len · (ffn + 7 · hidden) · 4` bytes plus the attention core's tile
/// scratch, one slot per band: `8 · simd::attention_tile_scratch(backend,
/// attention::SUB_ROWS, len, head_dim) · 4` bytes, `8 · 32 · (len +
/// head_dim) · 4` on an AVX-512 host. FABNet's butterfly FFN blocks keep
/// no `[len, ffn]` intermediate: they use `x`, `y` and `fx` only —
/// `len · 3 · hidden · 4` bytes, plus `q`, `k`, `v`, `mixed` and the tile
/// scratch (`len · 4 · hidden · 4` more) once the model has an ABfly block
/// — and each thread of their lane pass keeps one `(n + hidden) · lanes ·
/// 4`-byte tile, `n` the butterfly size (40 KB at hidden 128, 16 lanes).
#[derive(Debug, Default)]
struct Workspace {
    /// A block's input and, after it ran, its output: `[len, hidden]`.
    x: Tensor,
    /// A dense-FFN block's state between its two halves (the output of
    /// `ln1`); a butterfly-FFN block's output, before it trades places
    /// with `x`.
    y: Tensor,
    /// Output of the half in flight: the token mixing, then a dense FFN.
    fx: Tensor,
    /// A dense FFN's `[len, ffn]` intermediate.
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
    /// The scratch of [`attention::forward`]'s tiles, one slot per band.
    tiles: Tensor,
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
        let AttentionBuffers { q, k, v, mixed, tiles } = attention;
        for t in [x, y, fx, act, pooled, logits, q, k, v, mixed, tiles] {
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
    /// Input of a dense FFN's first layer, `[len, hidden]`. A butterfly
    /// FFN's inputs are not quantizable and never leave its lane tiles, so
    /// its block fires neither this nor [`Tap::Ffn2In`].
    Ffn1In(usize),
    /// Input of a dense FFN's second layer (post-GELU), `[len, ffn]`.
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
/// into its int8 form by `fab_quant::quantize`; the execution model and
/// exactness guarantees are set out at the top of `frozen.rs`.
///
/// The weights sit behind one [`Arc`]: a clone, [`FrozenModel::with_fast_math`]
/// and every serving copy made from them (a session, a stored artifact) bump
/// a reference count and share one resident set. Only the fast-math flag is
/// each handle's own.
#[derive(Debug, Clone)]
pub struct FrozenModel {
    weights: Arc<Weights>,
    fast_math: bool,
}

/// Everything of a [`FrozenModel`] but its fast-math flag.
#[derive(Debug)]
struct Weights {
    config: ModelConfig,
    kind: ModelKind,
    embedding: FrozenEmbedding,
    blocks: Vec<FrozenBlock>,
    head: FrozenLinear,
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
        let weights = Arc::new(Weights { config, kind, embedding, blocks, head });
        Self { weights, fast_math: false }
    }

    /// The configuration of the model this snapshot was frozen from.
    pub fn config(&self) -> &ModelConfig {
        &self.weights.config
    }

    /// Selects the attention score scaling order: `false` (the
    /// [`Model::freeze`](crate::Model::freeze) default) scales each score,
    /// `c·(q·kᵀ)`, keeping logits bit-identical to
    /// [`Model::predict`](crate::Model::predict); `true` scales the query
    /// once, `(c·q)·kᵀ`, which may move a logit by ~1e-6. That order is
    /// the only difference: GELU and softmax are the same kernels either
    /// way, so the fast-math forward is not measurably cheaper, and where
    /// `c = 1/√head_dim` is a power of two (head_dim 16, 64, …) its logits
    /// are the exact ones bit for bit. Either way the forward stays
    /// deterministic and bit-invariant to batch composition, padding and
    /// thread count. The returned model shares this one's weights.
    ///
    /// # Panics
    ///
    /// Panics when asked to enable fast math on a model with int8 tables:
    /// quantized models run the exact attention ordering, and their
    /// snapshot format has no place to record anything else.
    pub fn with_fast_math(mut self, fast_math: bool) -> Self {
        assert!(
            !(fast_math && matches!(self.weights.embedding, FrozenEmbedding::Int8 { .. })),
            "a model with int8 tables runs with fast math off"
        );
        self.fast_math = fast_math;
        self
    }

    /// Whether the fast-math score scaling order is enabled.
    pub fn fast_math(&self) -> bool {
        self.fast_math
    }

    /// Whether `self` and `other` are handles on one resident weight set
    /// (one is a clone of the other, or both of a third), whatever their
    /// fast-math flags.
    pub fn shares_weights(&self, other: &FrozenModel) -> bool {
        Arc::ptr_eq(&self.weights, &other.weights)
    }

    /// Whether `self` and `other` hold bit-equal weights (`to_bits` of every
    /// f32, every int8 value, every shape and the configuration), whatever
    /// their fast-math flags: true when they share one set, and otherwise
    /// the check that two separately built or restored models may be
    /// served from one set without moving a logit bit.
    pub fn same_weights(&self, other: &FrozenModel) -> bool {
        let (a, b) = (&*self.weights, &*other.weights);
        let blocks = a.blocks.len() == b.blocks.len()
            && a.blocks.iter().zip(&b.blocks).all(|(x, y)| same_block(x, y));
        self.shares_weights(other)
            || (a.config == b.config
                && a.kind == b.kind
                && same_embedding(&a.embedding, &b.embedding)
                && blocks
                && same_linear(&a.head, &b.head))
    }

    /// Bytes of the weight values the model holds, as FABSNAP1 stores them:
    /// 4 per f32 value (tables, matrices, butterfly factors, biases, layer
    /// norms, int8 scales) and 1 per int8 value. Handles that share weights
    /// ([`FrozenModel::shares_weights`]) report the same set. A VNNI host's
    /// packed copy of int8 weights is not counted (see
    /// `QuantLinear::weight_bytes`).
    pub fn weight_bytes(&self) -> usize {
        let f32s = |ts: &[&Tensor]| 4 * ts.iter().map(|t| t.len()).sum::<usize>();
        let table = |t: &QuantEmbedding| t.table_bytes() + 4 * t.scales().len();
        let tables = match &self.weights.embedding {
            FrozenEmbedding::F32 { tok, pos } => f32s(&[tok, pos]),
            FrozenEmbedding::Int8 { tok, pos } => table(tok) + table(pos),
        };
        let linear = |l: &&FrozenLinear| match l {
            FrozenLinear::Dense { w, b } => f32s(&[w, b]),
            FrozenLinear::Butterfly { bfly, b, .. } => 4 * bfly.num_params() + f32s(&[b]),
            // The int8 weights, then the row scales, the bias and the input scale.
            FrozenLinear::Int8(q) => {
                q.weight_bytes() + 4 * (q.w_scales().len() + q.bias().len() + 1)
            }
        };
        let norms = |b: &FrozenBlock| f32s(&[&b.ln1.gamma, &b.ln1.beta, &b.ln2.gamma, &b.ln2.beta]);
        tables
            + self.linears().iter().map(linear).sum::<usize>()
            + self.weights.blocks.iter().map(norms).sum::<usize>()
    }

    /// Every linear map: the classifier head, then each block's attention
    /// projections and FFN layers.
    fn linears(&self) -> Vec<&FrozenLinear> {
        let mut linears: Vec<&FrozenLinear> = vec![&self.weights.head];
        for b in &self.weights.blocks {
            if let FrozenMixing::Attention(a) = &b.mixing {
                linears.extend([&a.wq, &a.wk, &a.wv, &a.wo]);
            }
            linears.extend([&b.ffn.lin1, &b.ffn.lin2]);
        }
        linears
    }

    /// Which architecture the snapshot instantiates.
    pub fn kind(&self) -> ModelKind {
        self.weights.kind
    }

    /// The frozen encoder blocks, in execution order. Exposed (together
    /// with the other component accessors) so post-training tooling such as
    /// `fab-quant` can walk the snapshot layer by layer.
    pub fn blocks(&self) -> &[FrozenBlock] {
        &self.weights.blocks
    }

    /// The classifier head applied to the mean-pooled hidden state.
    pub fn head(&self) -> &FrozenLinear {
        &self.weights.head
    }

    /// The embedding tables, f32 or int8.
    pub fn embedding(&self) -> &FrozenEmbedding {
        &self.weights.embedding
    }

    /// `[vocab, hidden]` f32 token-embedding table.
    ///
    /// # Panics
    ///
    /// Panics when the tables are int8; [`FrozenModel::embedding`] serves
    /// both.
    pub fn tok_table(&self) -> &Tensor {
        match &self.weights.embedding {
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
        match &self.weights.embedding {
            FrozenEmbedding::F32 { pos, .. } => pos,
            FrozenEmbedding::Int8 { .. } => panic!("pos_table() on a model with int8 tables"),
        }
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.weights.head.d_out()
    }

    /// Maximum supported sequence length.
    pub fn max_seq(&self) -> usize {
        self.weights.config.max_seq
    }

    /// Fraction of linear maps (projections, FFN layers, head) running the
    /// int8 path: 0.0 for an all-f32 model, below 1.0 for a quantized model
    /// with butterfly-factorised linears, which stay f32.
    pub fn quantized_fraction(&self) -> f64 {
        let linears = self.linears();
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
        let Weights { config, embedding, blocks, head, .. } = &*self.weights;
        let (hidden, vocab, max_seq) = (config.hidden, config.vocab_size, config.max_seq);
        let len = tokens.len();
        assert!(len >= 1 && len <= max_seq, "sequence length {len} outside 1..={max_seq}");
        ws.x.resize_to(&[len, hidden]);
        for (j, (row, &id)) in ws.x.as_mut_slice().chunks_mut(hidden).zip(tokens).enumerate() {
            assert!(id < vocab, "token index {id} out of range for vocab {vocab}");
            embedding.gather_into(id, j, row);
        }
        for (index, block) in blocks.iter().enumerate() {
            block.forward_in(ws, index, self.fast_math, tap);
        }
        let Workspace { x, pooled, logits, qx, .. } = ws;
        x.mean_rows_into(pooled);
        tap(Tap::HeadIn, pooled.as_slice());
        head.forward_into(pooled, false, qx, logits);
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
        let max_seq = self.weights.config.max_seq;
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

/// Whether two f32 slices hold the same bits (`+0.0` and `-0.0` differ,
/// a NaN equals its own payload).
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_tensor(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape() && same_bits(a.as_slice(), b.as_slice())
}

fn same_linear(a: &FrozenLinear, b: &FrozenLinear) -> bool {
    use FrozenLinear::{Butterfly, Dense, Int8};
    match (a, b) {
        (Dense { w, b }, Dense { w: w2, b: b2 }) => same_tensor(w, w2) && same_tensor(b, b2),
        (
            Butterfly { bfly, b, d_in, d_out },
            Butterfly { bfly: f2, b: b2, d_in: i2, d_out: o2 },
        ) => {
            (d_in, d_out) == (i2, o2)
                && same_tensor(b, b2)
                && same_bits(bfly.as_slice(), f2.as_slice())
        }
        (Int8(p), Int8(q)) => {
            (p.d_in(), p.d_out()) == (q.d_in(), q.d_out())
                && p.qw() == q.qw()
                && same_bits(p.w_scales(), q.w_scales())
                && same_bits(p.bias(), q.bias())
                && p.in_scale().to_bits() == q.in_scale().to_bits()
        }
        _ => false,
    }
}

fn same_embedding(a: &FrozenEmbedding, b: &FrozenEmbedding) -> bool {
    let same_table = |s: &QuantEmbedding, t: &QuantEmbedding| {
        (s.rows(), s.cols()) == (t.rows(), t.cols())
            && s.q() == t.q()
            && same_bits(s.scales(), t.scales())
    };
    match (a, b) {
        (FrozenEmbedding::F32 { tok, pos }, FrozenEmbedding::F32 { tok: t2, pos: p2 }) => {
            same_tensor(tok, t2) && same_tensor(pos, p2)
        }
        (FrozenEmbedding::Int8 { tok, pos }, FrozenEmbedding::Int8 { tok: t2, pos: p2 }) => {
            same_table(tok, t2) && same_table(pos, p2)
        }
        _ => false,
    }
}

fn same_block(a: &FrozenBlock, b: &FrozenBlock) -> bool {
    let same_norm = |s: &FrozenLayerNorm, t: &FrozenLayerNorm| {
        same_tensor(&s.gamma, &t.gamma)
            && same_tensor(&s.beta, &t.beta)
            && s.eps.to_bits() == t.eps.to_bits()
    };
    let mixing = match (&a.mixing, &b.mixing) {
        (FrozenMixing::Attention(s), FrozenMixing::Attention(t)) => {
            (s.dim, s.num_heads) == (t.dim, t.num_heads)
                && [(&s.wq, &t.wq), (&s.wk, &t.wk), (&s.wv, &t.wv), (&s.wo, &t.wo)]
                    .into_iter()
                    .all(|(x, y)| same_linear(x, y))
        }
        (FrozenMixing::Fourier, FrozenMixing::Fourier) => true,
        _ => false,
    };
    mixing
        && same_linear(&a.ffn.lin1, &b.ffn.lin1)
        && same_linear(&a.ffn.lin2, &b.ffn.lin2)
        && same_norm(&a.ln1, &b.ln1)
        && same_norm(&a.ln2, &b.ln2)
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
    use fab_butterfly::flops::attention_core_flops;
    use fab_tensor::attention::SUB_ROWS;
    use fab_tensor::PAR_GRAIN_OPS;
    use proptest::prelude::Strategy;
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
    fn an_f32_model_weighs_four_bytes_a_parameter() {
        for (seed, kind) in
            [(1, ModelKind::FabNet), (2, ModelKind::FNet), (3, ModelKind::Transformer)]
        {
            let model = Model::new(&tiny(), kind, &mut StdRng::seed_from_u64(seed));
            let frozen = model.freeze();
            assert_eq!(frozen.weight_bytes(), 4 * model.num_params(), "{kind:?}");
            let int8 = quantized(&frozen);
            assert!(int8.weight_bytes() < frozen.weight_bytes(), "{kind:?}");
        }
    }

    #[test]
    fn same_weights_compares_the_bits_of_every_weight() {
        for (seed, kind) in
            [(1, ModelKind::FabNet), (2, ModelKind::FNet), (3, ModelKind::Transformer)]
        {
            let model = Model::new(&tiny(), kind, &mut StdRng::seed_from_u64(seed));
            let (a, b) = (model.freeze(), model.freeze());
            assert!(!a.shares_weights(&b) && a.same_weights(&b), "{kind:?}");
            assert!(a.same_weights(&a.clone().with_fast_math(true)), "{kind:?}");
            assert!(quantized(&a).same_weights(&quantized(&b)), "{kind:?}");
            assert!(!quantized(&a).same_weights(&a), "{kind:?}");
            let other = Model::new(&tiny(), kind, &mut StdRng::seed_from_u64(seed + 10));
            assert!(!a.same_weights(&other.freeze()), "{kind:?}");

            // A head bias of +0.0 and one of -0.0 are equal values, not
            // equal weights.
            let FrozenLinear::Dense { w, b } = a.head() else { panic!("the head is dense") };
            let with_bias = |v: f32| {
                let mut b = b.clone();
                b.as_mut_slice()[0] = v;
                let head = FrozenLinear::Dense { w: w.clone(), b };
                let (config, embedding) = (a.config().clone(), a.embedding().clone());
                FrozenModel::from_parts(config, kind, embedding, a.blocks().to_vec(), head)
            };
            assert!(with_bias(0.0).same_weights(&with_bias(0.0)), "{kind:?}");
            assert!(!with_bias(0.0).same_weights(&with_bias(-0.0)), "{kind:?}");
            // So are two layer-norm epsilons.
            let mut blocks = a.blocks().to_vec();
            let ln = blocks[0].ln1.clone();
            blocks[0].ln1 = FrozenLayerNorm::new(ln.gamma, ln.beta, ln.eps * 2.0);
            let (config, embedding) = (a.config().clone(), a.embedding().clone());
            let eps = FrozenModel::from_parts(config, kind, embedding, blocks, a.head().clone());
            assert!(!a.same_weights(&eps), "{kind:?}");
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
        [1, 7, SUB_ROWS - 1, SUB_ROWS, SUB_ROWS + 1, 127, 128, 129, 512];

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

    /// Head widths of the banded core's property: every width below one
    /// 8-lane vector and on both sides of the 16-column FMA blocks.
    const CORE_HEAD_DIMS: [usize; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 32, 33, 48];

    // Kernel against kernel: the banded, sub-tiled core gives the bits of
    // the whole-tensor ops, at lengths on both sides of every sub-tile and
    // band edge and of the fan-out grain. Every head has one key that is
    // not finite in one feature; the query is ±0.0 there in most rows (the
    // matmul skips a zero term, so those rows never meet it) and not in the
    // others (whose score for that key is ±inf or NaN).
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        #[test]
        fn the_banded_core_gives_the_bits_of_the_untiled_one(
            seed in 0u64..1 << 32,
            head_dim in (0..CORE_HEAD_DIMS.len()).prop_map(|i| CORE_HEAD_DIMS[i]),
        ) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            for len in [1usize, 7, 8, 9, 31, 32, 33, 127, 128, 129, 1000] {
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

    /// The core sizes its tiles' scratch for the backend it is handed and
    /// runs every tile there, whatever the active backend: the scalar tile
    /// needs more scratch than the vector one, so a core that sized for
    /// one backend and ran tiles on another would panic "scratch too short".
    #[test]
    fn the_core_runs_its_tiles_on_the_backend_it_sized_them_for() {
        use rand::Rng;
        use simd::Backend;
        let (len, num_heads, head_dim) = (100, 4, 8);
        let dim = num_heads * head_dim;
        let mut rng = StdRng::seed_from_u64(17);
        let mut random = || {
            let data = (0..len * dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            Tensor::from_vec(data, &[len, dim]).expect("shape")
        };
        let (q, k, v) = (random(), random(), random());
        let expected = attention_untiled(&q, &k, &v, num_heads, false);
        let mut backends = vec![Backend::Scalar];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            backends.push(Backend::Avx2);
            let slot = |b| simd::attention_tile_scratch(b, SUB_ROWS, len, head_dim);
            assert!(slot(Backend::Scalar) > slot(Backend::Avx2));
        }
        for backend in backends {
            let (mut out, mut tiles) = (vec![0.0f32; len * dim], Tensor::default());
            attention::forward(backend, &q, &k, &v, num_heads, false, &mut out, &mut tiles);
            if backend == simd::backend() {
                assert_eq!(bits(&out), bits(&expected), "{backend:?}");
            }
            // Another backend differs from the active one by FMA rounding.
            let drift = out.iter().zip(&expected).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max);
            assert!(drift <= 1e-5, "{backend:?} drifted {drift}");
        }
    }

    #[test]
    fn an_empty_sequence_mixes_to_nothing() {
        let empty = Tensor::from_vec(Vec::new(), &[0, 8]).expect("empty");
        for prescaled in [false, true] {
            attention_mix_rows(&empty, &empty, &empty, 2, prescaled, &mut []);
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
