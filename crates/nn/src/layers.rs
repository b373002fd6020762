//! The trainable model's layers: linear maps (dense or butterfly), token
//! mixing (attention or Fourier), layer normalisation and embeddings, each
//! a handful of [`Param`]s recorded on the autodiff tape.
//!
//! They have the shape of their frozen counterparts ([`FrozenLinear`],
//! [`crate::FrozenMixing`], [`FrozenLayerNorm`]) and ride the parallel
//! compute core end to end: a dense linear lowers to the cache-blocked
//! row-band-parallel `Tensor::matmul`, a butterfly linear to the batched
//! `ButterflyMatrix` kernels, attention to one fused tape node and Fourier
//! mixing to the plan-cached parallel 2-D FFT — no layer falls back to a
//! per-vector path.

use crate::frozen::{FrozenLayerNorm, FrozenLinear};
use crate::param::{Bindings, Param};
use fab_butterfly::{
    butterfly_linear_op, butterfly_linear_padded_op, fourier_mix_op, next_pow2, ButterflyMatrix,
};
use fab_tensor::{kaiming_uniform, normal, Tape, Tensor, VarId};
use rand::rngs::StdRng;

/// A linear map `y = x W + b` whose `W` is dense or butterfly-factorised:
/// swapping one for the other is precisely the substitution FABNet makes in
/// the Transformer.
pub(crate) enum Linear {
    /// `W` is a `[d_in, d_out]` matrix.
    Dense { w: Param, b: Param },
    /// `W` is a square butterfly of size `n = next_pow2(max(d_in, d_out))`:
    /// inputs narrower than `n` are zero-padded and outputs wider than
    /// `d_out` truncated, as in the paper's butterfly layers. Parameters and
    /// compute are `O(n log n)` instead of `O(d_in · d_out)`.
    Butterfly { w: Param, b: Param, d_in: usize, d_out: usize },
}

impl Linear {
    /// A butterfly map with a random near-orthogonal factorisation, or a
    /// dense one with Kaiming-uniform weights; the bias starts at zero.
    pub(crate) fn new(
        butterfly: bool,
        name: &str,
        d_in: usize,
        d_out: usize,
        rng: &mut StdRng,
    ) -> Self {
        let b = || Param::new(format!("{name}.b"), Tensor::zeros(&[d_out]));
        if butterfly {
            let bfly = ButterflyMatrix::random(next_pow2(d_in.max(d_out)), rng)
                .expect("power-of-two butterfly size");
            let w = Param::new(format!("{name}.bfly"), bfly.to_weight_tensor());
            Linear::Butterfly { w, b: b(), d_in, d_out }
        } else {
            let w = Param::new(format!("{name}.w"), kaiming_uniform(rng, d_in, d_out));
            Linear::Dense { w, b: b() }
        }
    }

    /// Applies the map to a `[rows, d_in]` variable, returning `[rows, d_out]`.
    pub(crate) fn forward(&self, tape: &Tape, x: VarId, bindings: &mut Bindings) -> VarId {
        match self {
            Linear::Dense { w, b } => {
                let w = w.bind(tape, bindings);
                let b = b.bind(tape, bindings);
                let y = tape.matmul(x, w);
                tape.add_row_broadcast(y, b)
            }
            Linear::Butterfly { w, b, d_in, d_out } => {
                let n = next_pow2(*d_in.max(d_out));
                let w = w.bind(tape, bindings);
                // Narrow/wide layers ride the fused pad + butterfly +
                // truncate op: one tape node instead of a zeros leaf, a
                // concat, the transform and a slice — with bit-identical
                // values and gradients.
                let y = if *d_in < n || *d_out < n {
                    butterfly_linear_padded_op(tape, x, w, *d_out)
                } else {
                    butterfly_linear_op(tape, x, w)
                };
                let b = b.bind(tape, bindings);
                tape.add_row_broadcast(y, b)
            }
        }
    }

    /// The weight and the bias.
    pub(crate) fn params(&self) -> [&Param; 2] {
        let (Linear::Dense { w, b } | Linear::Butterfly { w, b, .. }) = self;
        [w, b]
    }

    /// Snapshots the current weights into a tape-free [`FrozenLinear`].
    pub(crate) fn freeze(&self) -> FrozenLinear {
        match self {
            Linear::Dense { w, b } => FrozenLinear::Dense { w: w.value(), b: b.value() },
            Linear::Butterfly { w, b, d_in, d_out } => FrozenLinear::Butterfly {
                bfly: ButterflyMatrix::try_from(w.value())
                    .expect("trained butterfly weights keep their layout"),
                b: b.value(),
                d_in: *d_in,
                d_out: *d_out,
            },
        }
    }
}

/// The token-mixing half of an encoder block.
pub(crate) enum Mixing {
    /// Multi-head self-attention. The four projections are dense in the
    /// Transformer block and butterflies in FABNet's ABfly block, while the
    /// score/value core stays dense — exactly the split the accelerator
    /// exploits (projections on the Butterfly Processor, the `Q·K^T` /
    /// `S·V` products on the Attention Processor). `proj` holds the Q, K, V
    /// and output projections, in that order.
    Attention { proj: Box<[Linear; 4]>, heads: usize },
    /// The parameter-free 2-D Fourier mixing of the FNet and FBfly blocks.
    Fourier,
}

impl Mixing {
    /// Attention over `dim` features in `heads` heads.
    ///
    /// # Panics
    ///
    /// Panics when `heads` does not divide `dim`.
    pub(crate) fn attention(
        butterfly: bool,
        name: &str,
        dim: usize,
        heads: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert_eq!(dim % heads, 0, "hidden dim must be divisible by heads");
        let mut proj = |p: &str| Linear::new(butterfly, &format!("{name}.{p}"), dim, dim, rng);
        Mixing::Attention { proj: Box::new([proj("q"), proj("k"), proj("v"), proj("o")]), heads }
    }

    /// Mixes the tokens of a `[seq, dim]` variable.
    pub(crate) fn forward(&self, tape: &Tape, x: VarId, bindings: &mut Bindings) -> VarId {
        match self {
            Mixing::Attention { proj, heads } => {
                let [wq, wk, wv, wo] = &**proj;
                let q = wq.forward(tape, x, bindings);
                let k = wk.forward(tape, x, bindings);
                let v = wv.forward(tape, x, bindings);
                let mixed = tape.attention(q, k, v, *heads);
                wo.forward(tape, mixed, bindings)
            }
            Mixing::Fourier => fourier_mix_op(tape, x),
        }
    }
}

/// Layer normalisation with learned scale and shift.
pub(crate) struct LayerNorm {
    gamma: Param,
    beta: Param,
}

impl LayerNorm {
    const EPS: f32 = 1e-5;

    /// A layer norm over the last dimension of size `dim`.
    pub(crate) fn new(name: &str, dim: usize) -> Self {
        Self {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones(&[dim])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros(&[dim])),
        }
    }

    /// Normalises each row of `x`.
    pub(crate) fn forward(&self, tape: &Tape, x: VarId, bindings: &mut Bindings) -> VarId {
        let g = self.gamma.bind(tape, bindings);
        let b = self.beta.bind(tape, bindings);
        tape.layer_norm(x, g, b, Self::EPS)
    }

    /// The scale and the shift.
    pub(crate) fn params(&self) -> [&Param; 2] {
        [&self.gamma, &self.beta]
    }

    /// Snapshots scale/shift into a tape-free [`FrozenLayerNorm`].
    pub(crate) fn freeze(&self) -> FrozenLayerNorm {
        FrozenLayerNorm::new(self.gamma.value(), self.beta.value(), Self::EPS)
    }
}

/// Token + learned positional embedding.
pub(crate) struct Embedding {
    tok: Param,
    pos: Param,
}

impl Embedding {
    /// Tables for `vocab` tokens and `max_seq` positions.
    pub(crate) fn new(vocab: usize, max_seq: usize, hidden: usize, rng: &mut StdRng) -> Self {
        Self {
            tok: Param::new("embed.tok", normal(rng, &[vocab, hidden], 0.0, 0.02)),
            pos: Param::new("embed.pos", normal(rng, &[max_seq, hidden], 0.0, 0.02)),
        }
    }

    /// Embeds a token sequence into a `[seq, hidden]` variable.
    ///
    /// # Panics
    ///
    /// Panics when the sequence is longer than the positional table.
    pub(crate) fn forward(&self, tape: &Tape, tokens: &[usize], bindings: &mut Bindings) -> VarId {
        let table = self.tok.bind(tape, bindings);
        let pos_table = self.pos.bind(tape, bindings);
        let tok = tape.embedding(table, tokens);
        let pos = tape.embedding_iota(pos_table, tokens.len());
        tape.add(tok, pos)
    }

    /// The token and the positional table.
    pub(crate) fn params(&self) -> [&Param; 2] {
        [&self.tok, &self.pos]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn num_params(lin: &Linear) -> usize {
        lin.params().iter().map(|p| p.len()).sum()
    }

    #[test]
    fn dense_linear_shapes_and_params() {
        let mut r = rng();
        let lin = Linear::new(false, "t", 8, 4, &mut r);
        assert_eq!(num_params(&lin), 8 * 4 + 4);
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
        let lin = Linear::new(true, "t", 12, 6, &mut r);
        let FrozenLinear::Butterfly { bfly, .. } = lin.freeze() else { panic!("not a butterfly") };
        assert_eq!(bfly.size(), 16);
        let tape = Tape::new();
        let mut b = Bindings::new();
        let x = tape.leaf(Tensor::ones(&[2, 12]));
        let y = lin.forward(&tape, x, &mut b);
        assert_eq!(tape.shape(y), vec![2, 6]);
    }

    #[test]
    fn butterfly_linear_uses_far_fewer_params_than_dense() {
        let mut r = rng();
        let dense = Linear::new(false, "d", 1024, 1024, &mut r);
        let bfly = Linear::new(true, "b", 1024, 1024, &mut r);
        assert!(num_params(&dense) / num_params(&bfly) > 40);
    }

    #[test]
    fn attention_output_shape_matches_input() {
        let mut r = rng();
        let attn = Mixing::attention(false, "a", 8, 2, &mut r);
        let tape = Tape::new();
        let mut b = Bindings::new();
        let x = tape.leaf(Tensor::ones(&[5, 8]));
        let y = attn.forward(&tape, x, &mut b);
        assert_eq!(tape.shape(y), vec![5, 8]);
    }

    #[test]
    fn attention_gradients_flow_to_all_projections() {
        let mut r = rng();
        let attn = Mixing::attention(true, "a", 8, 2, &mut r);
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
        let lin1 = Linear::new(false, "f1", 8, 32, &mut r);
        let lin2 = Linear::new(false, "f2", 32, 8, &mut r);
        let tape = Tape::new();
        let mut b = Bindings::new();
        let x = tape.leaf(Tensor::ones(&[3, 8]));
        let h = lin1.forward(&tape, x, &mut b);
        assert_eq!(tape.shape(h), vec![3, 32]);
        let y = lin2.forward(&tape, tape.gelu(h), &mut b);
        assert_eq!(tape.shape(y), vec![3, 8]);
        assert_eq!(num_params(&lin1) + num_params(&lin2), (8 * 32 + 32) + (32 * 8 + 8));
    }

    #[test]
    fn fourier_mixing_is_parameter_free() {
        let tape = Tape::new();
        let mut b = Bindings::new();
        let x = tape.leaf(Tensor::ones(&[8, 4]));
        let y = Mixing::Fourier.forward(&tape, x, &mut b);
        assert_eq!(tape.shape(y), vec![8, 4]);
        assert!(b.is_empty());
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
        let emb = Embedding::new(10, 8, 4, &mut r);
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
        let head = Linear::new(false, "h", 8, 3, &mut r);
        let tape = Tape::new();
        let mut b = Bindings::new();
        let x = tape.leaf(Tensor::ones(&[5, 8]));
        let y = head.forward(&tape, tape.mean_pool_rows(x), &mut b);
        assert_eq!(tape.shape(y), vec![1, 3]);
    }
}
