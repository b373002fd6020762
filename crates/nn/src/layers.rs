//! Individual neural-network layers: dense and butterfly linear maps,
//! multi-head attention, feed-forward networks, Fourier mixing, layer
//! normalisation, embeddings and the classification head.
//!
//! Every layer operates on whole `[rows, features]` activation batches and
//! rides the PR-1 parallel compute core end to end: [`DenseLinear`] lowers to
//! the cache-blocked row-band-parallel `Tensor::matmul`, [`ButterflyLinear`]
//! to the batched `ButterflyMatrix::forward_rows` / `backward_rows` kernels,
//! and [`FourierMixing`] to the plan-cached parallel 2-D FFT — no layer falls
//! back to a per-vector path.

use crate::frozen::{FrozenAttention, FrozenFeedForward, FrozenLayerNorm, FrozenLinear};
use crate::param::{Bindings, Param};
use fab_butterfly::flops as bflops;
use fab_butterfly::{
    butterfly_linear_op, butterfly_linear_padded_op, fourier_mix_op, next_pow2, ButterflyMatrix,
};
use fab_tensor::{kaiming_uniform, normal, Tape, Tensor, VarId};
use rand::rngs::StdRng;

/// A (possibly structured) linear map used for attention projections and FFN
/// layers. Implemented by [`DenseLinear`] and [`ButterflyLinear`] so blocks
/// can swap the two without changing their own code — precisely the
/// substitution FABNet performs on the Transformer.
pub trait Linear {
    /// Applies the layer to a `[rows, d_in]` variable, returning `[rows, d_out]`.
    fn forward(&self, tape: &Tape, x: VarId, bindings: &mut Bindings) -> VarId;
    /// Input feature dimension.
    fn d_in(&self) -> usize;
    /// Output feature dimension.
    fn d_out(&self) -> usize;
    /// Number of trainable scalars.
    fn num_params(&self) -> usize;
    /// FLOPs for a forward pass over `rows` rows.
    fn flops(&self, rows: usize) -> u64;
    /// Snapshots the current weights into a tape-free [`FrozenLinear`].
    fn freeze(&self) -> FrozenLinear;
}

/// A dense (fully-connected) linear layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct DenseLinear {
    w: Param,
    b: Param,
    d_in: usize,
    d_out: usize,
}

impl DenseLinear {
    /// Creates a dense layer with Kaiming-uniform weights and zero bias.
    pub fn new(name: &str, d_in: usize, d_out: usize, rng: &mut StdRng) -> Self {
        Self {
            w: Param::new(format!("{name}.w"), kaiming_uniform(rng, d_in, d_out)),
            b: Param::new(format!("{name}.b"), Tensor::zeros(&[d_out])),
            d_in,
            d_out,
        }
    }
}

impl Linear for DenseLinear {
    fn forward(&self, tape: &Tape, x: VarId, bindings: &mut Bindings) -> VarId {
        let w = self.w.bind(tape, bindings);
        let b = self.b.bind(tape, bindings);
        let y = tape.matmul(x, w);
        tape.add_row_broadcast(y, b)
    }

    fn d_in(&self) -> usize {
        self.d_in
    }

    fn d_out(&self) -> usize {
        self.d_out
    }

    fn num_params(&self) -> usize {
        self.d_in * self.d_out + self.d_out
    }

    fn flops(&self, rows: usize) -> u64 {
        bflops::dense_linear_flops(rows, self.d_in, self.d_out)
    }

    fn freeze(&self) -> FrozenLinear {
        FrozenLinear::Dense { w: self.w.value(), b: self.b.value() }
    }
}

/// A butterfly-factorised linear layer.
///
/// The map is a square butterfly matrix of size `n = next_pow2(max(d_in,
/// d_out))`; inputs narrower than `n` are zero-padded and outputs wider than
/// `d_out` are truncated, as in the paper's butterfly layers. Parameters and
/// compute are `O(n log n)` instead of `O(d_in · d_out)`.
#[derive(Debug, Clone)]
pub struct ButterflyLinear {
    w: Param,
    b: Param,
    d_in: usize,
    d_out: usize,
    n: usize,
}

impl ButterflyLinear {
    /// Creates a butterfly layer with a random near-orthogonal factorisation
    /// and zero bias.
    pub fn new(name: &str, d_in: usize, d_out: usize, rng: &mut StdRng) -> Self {
        let n = next_pow2(d_in.max(d_out));
        let bfly = ButterflyMatrix::random(n, rng).expect("power-of-two butterfly size");
        Self {
            w: Param::new(format!("{name}.bfly"), bfly.to_weight_tensor()),
            b: Param::new(format!("{name}.b"), Tensor::zeros(&[d_out])),
            d_in,
            d_out,
            n,
        }
    }

    /// The padded power-of-two butterfly size.
    pub fn butterfly_size(&self) -> usize {
        self.n
    }
}

impl Linear for ButterflyLinear {
    fn forward(&self, tape: &Tape, x: VarId, bindings: &mut Bindings) -> VarId {
        let w = self.w.bind(tape, bindings);
        // Narrow/wide layers ride the fused pad + butterfly + truncate op:
        // one tape node instead of a zeros leaf, a concat, the transform and
        // a slice — with bit-identical values and gradients.
        let y = if self.d_in < self.n || self.d_out < self.n {
            butterfly_linear_padded_op(tape, x, w, self.d_out)
        } else {
            butterfly_linear_op(tape, x, w)
        };
        let b = self.b.bind(tape, bindings);
        tape.add_row_broadcast(y, b)
    }

    fn d_in(&self) -> usize {
        self.d_in
    }

    fn d_out(&self) -> usize {
        self.d_out
    }

    fn num_params(&self) -> usize {
        let stages = (self.n as f64).log2() as usize;
        2 * self.n * stages + self.d_out
    }

    fn flops(&self, rows: usize) -> u64 {
        bflops::butterfly_linear_flops(rows, self.n)
    }

    fn freeze(&self) -> FrozenLinear {
        FrozenLinear::Butterfly {
            bfly: ButterflyMatrix::try_from(self.w.value())
                .expect("trained butterfly weights keep their layout"),
            b: self.b.value(),
            d_in: self.d_in,
            d_out: self.d_out,
        }
    }
}

/// Multi-head self-attention with pluggable projection layers.
///
/// In the vanilla Transformer the four projections (`Q`, `K`, `V`, output)
/// are [`DenseLinear`]; in FABNet's ABfly block they are [`ButterflyLinear`]
/// while the score/value computation itself stays dense — exactly the split
/// the accelerator exploits (projections on the Butterfly Processor, the
/// `Q·K^T` / `S·V` products on the Attention Processor).
pub struct MultiHeadAttention {
    wq: Box<dyn Linear>,
    wk: Box<dyn Linear>,
    wv: Box<dyn Linear>,
    wo: Box<dyn Linear>,
    dim: usize,
    num_heads: usize,
}

impl MultiHeadAttention {
    /// Dense projections (vanilla Transformer).
    pub fn new_dense(name: &str, dim: usize, num_heads: usize, rng: &mut StdRng) -> Self {
        assert_eq!(dim % num_heads, 0, "hidden dim must be divisible by heads");
        Self {
            wq: Box::new(DenseLinear::new(&format!("{name}.q"), dim, dim, rng)),
            wk: Box::new(DenseLinear::new(&format!("{name}.k"), dim, dim, rng)),
            wv: Box::new(DenseLinear::new(&format!("{name}.v"), dim, dim, rng)),
            wo: Box::new(DenseLinear::new(&format!("{name}.o"), dim, dim, rng)),
            dim,
            num_heads,
        }
    }

    /// Butterfly projections (FABNet ABfly block).
    pub fn new_butterfly(name: &str, dim: usize, num_heads: usize, rng: &mut StdRng) -> Self {
        assert_eq!(dim % num_heads, 0, "hidden dim must be divisible by heads");
        Self {
            wq: Box::new(ButterflyLinear::new(&format!("{name}.q"), dim, dim, rng)),
            wk: Box::new(ButterflyLinear::new(&format!("{name}.k"), dim, dim, rng)),
            wv: Box::new(ButterflyLinear::new(&format!("{name}.v"), dim, dim, rng)),
            wo: Box::new(ButterflyLinear::new(&format!("{name}.o"), dim, dim, rng)),
            dim,
            num_heads,
        }
    }

    /// Applies self-attention to a `[seq, dim]` variable.
    pub fn forward(&self, tape: &Tape, x: VarId, bindings: &mut Bindings) -> VarId {
        let q = self.wq.forward(tape, x, bindings);
        let k = self.wk.forward(tape, x, bindings);
        let v = self.wv.forward(tape, x, bindings);
        let head_dim = self.dim / self.num_heads;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut heads = Vec::with_capacity(self.num_heads);
        for h in 0..self.num_heads {
            let (lo, hi) = (h * head_dim, (h + 1) * head_dim);
            let qh = tape.slice_cols(q, lo, hi);
            let kh = tape.slice_cols(k, lo, hi);
            let vh = tape.slice_cols(v, lo, hi);
            let kt = tape.transpose(kh);
            let scores = tape.scale(tape.matmul(qh, kt), scale);
            let probs = tape.softmax_rows(scores);
            heads.push(tape.matmul(probs, vh));
        }
        let concat = tape.concat_cols(&heads);
        self.wo.forward(tape, concat, bindings)
    }

    /// Number of trainable scalars across the four projections.
    pub fn num_params(&self) -> usize {
        self.wq.num_params() + self.wk.num_params() + self.wv.num_params() + self.wo.num_params()
    }

    /// FLOPs of the projections plus the attention core for a `seq`-length input.
    pub fn flops(&self, seq: usize) -> u64 {
        let proj =
            self.wq.flops(seq) + self.wk.flops(seq) + self.wv.flops(seq) + self.wo.flops(seq);
        proj + bflops::attention_core_flops(seq, self.dim)
    }

    /// Hidden dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Snapshots the four projections into a tape-free [`FrozenAttention`].
    pub fn freeze(&self) -> FrozenAttention {
        FrozenAttention {
            wq: self.wq.freeze(),
            wk: self.wk.freeze(),
            wv: self.wv.freeze(),
            wo: self.wo.freeze(),
            dim: self.dim,
            num_heads: self.num_heads,
        }
    }
}

/// A two-layer feed-forward network with GELU activation.
pub struct FeedForward {
    lin1: Box<dyn Linear>,
    lin2: Box<dyn Linear>,
}

impl FeedForward {
    /// Dense FFN with expansion ratio `ratio` (vanilla Transformer / FNet).
    pub fn new_dense(name: &str, dim: usize, ratio: usize, rng: &mut StdRng) -> Self {
        Self {
            lin1: Box::new(DenseLinear::new(&format!("{name}.ffn1"), dim, dim * ratio, rng)),
            lin2: Box::new(DenseLinear::new(&format!("{name}.ffn2"), dim * ratio, dim, rng)),
        }
    }

    /// Butterfly FFN with expansion ratio `ratio` (FABNet).
    pub fn new_butterfly(name: &str, dim: usize, ratio: usize, rng: &mut StdRng) -> Self {
        Self {
            lin1: Box::new(ButterflyLinear::new(&format!("{name}.ffn1"), dim, dim * ratio, rng)),
            lin2: Box::new(ButterflyLinear::new(&format!("{name}.ffn2"), dim * ratio, dim, rng)),
        }
    }

    /// Applies `lin2(gelu(lin1(x)))`.
    pub fn forward(&self, tape: &Tape, x: VarId, bindings: &mut Bindings) -> VarId {
        let h = self.lin1.forward(tape, x, bindings);
        let a = tape.gelu(h);
        self.lin2.forward(tape, a, bindings)
    }

    /// Number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.lin1.num_params() + self.lin2.num_params()
    }

    /// FLOPs for a `seq`-length input.
    pub fn flops(&self, seq: usize) -> u64 {
        self.lin1.flops(seq) + self.lin2.flops(seq)
    }

    /// Snapshots both layers into a tape-free [`FrozenFeedForward`].
    pub fn freeze(&self) -> FrozenFeedForward {
        FrozenFeedForward { lin1: self.lin1.freeze(), lin2: self.lin2.freeze() }
    }
}

/// The FNet / FBfly parameter-free Fourier token-mixing layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct FourierMixing;

impl FourierMixing {
    /// Creates the (stateless) mixing layer.
    pub fn new() -> Self {
        Self
    }

    /// Applies the 2-D real FFT mixing to a `[seq, hidden]` variable.
    pub fn forward(&self, tape: &Tape, x: VarId) -> VarId {
        fourier_mix_op(tape, x)
    }

    /// FLOPs for a `[seq, hidden]` input.
    pub fn flops(&self, seq: usize, hidden: usize) -> u64 {
        bflops::fourier_mix_flops(next_pow2(seq), next_pow2(hidden))
    }
}

/// Layer normalisation with learned scale and shift.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer norm over the last dimension of size `dim`.
    pub fn new(name: &str, dim: usize) -> Self {
        Self {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones(&[dim])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros(&[dim])),
            eps: 1e-5,
        }
    }

    /// Normalises each row of `x`.
    pub fn forward(&self, tape: &Tape, x: VarId, bindings: &mut Bindings) -> VarId {
        let g = self.gamma.bind(tape, bindings);
        let b = self.beta.bind(tape, bindings);
        tape.layer_norm(x, g, b, self.eps)
    }

    /// Number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.gamma.len() + self.beta.len()
    }

    /// Snapshots scale/shift into a tape-free [`FrozenLayerNorm`].
    pub fn freeze(&self) -> FrozenLayerNorm {
        FrozenLayerNorm { gamma: self.gamma.value(), beta: self.beta.value(), eps: self.eps }
    }
}

/// Token + learned positional embedding.
pub struct Embedding {
    tokens: Param,
    positions: Param,
    hidden: usize,
}

impl Embedding {
    /// Creates embedding tables for `vocab` tokens and `max_seq` positions.
    pub fn new(name: &str, vocab: usize, max_seq: usize, hidden: usize, rng: &mut StdRng) -> Self {
        Self {
            tokens: Param::new(format!("{name}.tok"), normal(rng, &[vocab, hidden], 0.0, 0.02)),
            positions: Param::new(
                format!("{name}.pos"),
                normal(rng, &[max_seq, hidden], 0.0, 0.02),
            ),
            hidden,
        }
    }

    /// Embeds a token sequence into a `[seq, hidden]` variable.
    ///
    /// # Panics
    ///
    /// Panics when the sequence is longer than the positional table.
    pub fn forward(&self, tape: &Tape, tokens: &[usize], bindings: &mut Bindings) -> VarId {
        let table = self.tokens.bind(tape, bindings);
        let pos_table = self.positions.bind(tape, bindings);
        let tok = tape.embedding(table, tokens);
        let pos = tape.embedding_iota(pos_table, tokens.len());
        tape.add(tok, pos)
    }

    /// Number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.tokens.len() + self.positions.len()
    }

    /// Hidden dimension of the embeddings.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Snapshots the `(token, position)` tables for the frozen path.
    pub(crate) fn freeze_tables(&self) -> (Tensor, Tensor) {
        (self.tokens.value(), self.positions.value())
    }
}

/// Mean-pooling classification head.
pub struct ClassifierHead {
    lin: DenseLinear,
}

impl ClassifierHead {
    /// Creates a head mapping pooled `[1, hidden]` features to `classes` logits.
    pub fn new(name: &str, hidden: usize, classes: usize, rng: &mut StdRng) -> Self {
        Self { lin: DenseLinear::new(name, hidden, classes, rng) }
    }

    /// Pools over the sequence and produces `[1, classes]` logits.
    pub fn forward(&self, tape: &Tape, x: VarId, bindings: &mut Bindings) -> VarId {
        let pooled = tape.mean_pool_rows(x);
        self.lin.forward(tape, pooled, bindings)
    }

    /// Number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.lin.num_params()
    }

    /// Snapshots the projection into a tape-free [`FrozenLinear`].
    pub fn freeze(&self) -> FrozenLinear {
        self.lin.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn dense_linear_shapes_and_params() {
        let mut r = rng();
        let lin = DenseLinear::new("t", 8, 4, &mut r);
        assert_eq!(lin.num_params(), 8 * 4 + 4);
        let tape = Tape::new();
        let mut b = Bindings::new();
        let x = tape.leaf(Tensor::ones(&[3, 8]));
        let y = lin.forward(&tape, x, &mut b);
        assert_eq!(tape.shape(y), vec![3, 4]);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn butterfly_linear_pads_and_truncates() {
        let mut r = rng();
        // d_in=12, d_out=6 -> butterfly size 16.
        let lin = ButterflyLinear::new("t", 12, 6, &mut r);
        assert_eq!(lin.butterfly_size(), 16);
        let tape = Tape::new();
        let mut b = Bindings::new();
        let x = tape.leaf(Tensor::ones(&[2, 12]));
        let y = lin.forward(&tape, x, &mut b);
        assert_eq!(tape.shape(y), vec![2, 6]);
    }

    #[test]
    fn butterfly_linear_uses_far_fewer_params_than_dense() {
        let mut r = rng();
        let dense = DenseLinear::new("d", 1024, 1024, &mut r);
        let bfly = ButterflyLinear::new("b", 1024, 1024, &mut r);
        assert!(dense.num_params() / bfly.num_params() > 40);
    }

    #[test]
    fn attention_output_shape_matches_input() {
        let mut r = rng();
        let attn = MultiHeadAttention::new_dense("a", 8, 2, &mut r);
        let tape = Tape::new();
        let mut b = Bindings::new();
        let x = tape.leaf(Tensor::ones(&[5, 8]));
        let y = attn.forward(&tape, x, &mut b);
        assert_eq!(tape.shape(y), vec![5, 8]);
    }

    #[test]
    fn attention_gradients_flow_to_all_projections() {
        let mut r = rng();
        let attn = MultiHeadAttention::new_butterfly("a", 8, 2, &mut r);
        let tape = Tape::new();
        let mut b = Bindings::new();
        let x = tape.leaf(fab_tensor::uniform(&mut r, &[4, 8], -1.0, 1.0));
        let y = attn.forward(&tape, x, &mut b);
        let loss = tape.sum(y);
        tape.backward(loss);
        let with_grads = b.iter().filter(|(id, _)| tape.try_grad(*id).is_some()).count();
        // Biases and all butterfly weights should receive gradients.
        assert_eq!(with_grads, b.len());
    }

    #[test]
    fn feed_forward_expands_and_contracts() {
        let mut r = rng();
        let ffn = FeedForward::new_dense("f", 8, 4, &mut r);
        let tape = Tape::new();
        let mut b = Bindings::new();
        let x = tape.leaf(Tensor::ones(&[3, 8]));
        let y = ffn.forward(&tape, x, &mut b);
        assert_eq!(tape.shape(y), vec![3, 8]);
        assert_eq!(ffn.num_params(), (8 * 32 + 32) + (32 * 8 + 8));
    }

    #[test]
    fn fourier_mixing_is_parameter_free() {
        let fm = FourierMixing::new();
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[8, 4]));
        let y = fm.forward(&tape, x);
        assert_eq!(tape.shape(y), vec![8, 4]);
        assert!(fm.flops(8, 4) > 0);
    }

    #[test]
    fn layer_norm_normalises_rows() {
        let ln = LayerNorm::new("ln", 4);
        let tape = Tape::new();
        let mut b = Bindings::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap());
        let y = ln.forward(&tape, x, &mut b);
        let v = tape.value(y);
        assert!(v.mean().abs() < 1e-5);
    }

    #[test]
    fn embedding_produces_position_dependent_vectors() {
        let mut r = rng();
        let emb = Embedding::new("e", 10, 8, 4, &mut r);
        let tape = Tape::new();
        let mut b = Bindings::new();
        // Same token at two positions must embed differently thanks to the
        // positional table.
        let out = emb.forward(&tape, &[3, 3], &mut b);
        let v = tape.value(out);
        let row0: Vec<f32> = (0..4).map(|c| v.at(0, c)).collect();
        let row1: Vec<f32> = (0..4).map(|c| v.at(1, c)).collect();
        assert_ne!(row0, row1);
    }

    #[test]
    fn classifier_head_outputs_logits() {
        let mut r = rng();
        let head = ClassifierHead::new("h", 8, 3, &mut r);
        let tape = Tape::new();
        let mut b = Bindings::new();
        let x = tape.leaf(Tensor::ones(&[5, 8]));
        let y = head.forward(&tape, x, &mut b);
        assert_eq!(tape.shape(y), vec![1, 3]);
    }
}
