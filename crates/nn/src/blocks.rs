//! The encoder block: token mixing (attention or Fourier) and an FFN, each
//! wrapped in a shortcut addition and layer normalisation, with every
//! linear map dense or butterfly. The four combinations are the vanilla
//! Transformer and FNet blocks and the paper's ABfly and FBfly blocks
//! (Fig. 5).
//!
//! A block forward records one tape node per fused batch operation
//! (projection, mixing, normalisation), so both the forward and the
//! backward sweep execute on the row-parallel kernels of `fab-tensor` /
//! `fab-butterfly`.

use crate::config::ModelConfig;
use crate::frozen::{FrozenAttention, FrozenBlock, FrozenFeedForward, FrozenMixing};
use crate::layers::{LayerNorm, Linear, Mixing};
use crate::param::{Bindings, Param};
use fab_tensor::{Tape, VarId};
use rand::rngs::StdRng;

/// One encoder block mapping `[seq, hidden]` to `[seq, hidden]`: the
/// trainable counterpart of [`FrozenBlock`].
pub(crate) struct Block {
    mixing: Mixing,
    /// The expanding and the contracting map, GELU between them.
    ffn: [Linear; 2],
    ln1: LayerNorm,
    ln2: LayerNorm,
}

impl Block {
    /// A block with attention (else Fourier) mixing and butterfly (else
    /// dense) linear maps, sized by `config`.
    pub(crate) fn new(
        name: &str,
        attention: bool,
        butterfly: bool,
        config: &ModelConfig,
        rng: &mut StdRng,
    ) -> Self {
        let (h, r) = (config.hidden, config.ffn_ratio);
        let mixing = if attention {
            Mixing::attention(butterfly, &format!("{name}.attn"), h, config.num_heads, rng)
        } else {
            Mixing::Fourier
        };
        let ffn1 = Linear::new(butterfly, &format!("{name}.ffn.ffn1"), h, h * r, rng);
        let ffn2 = Linear::new(butterfly, &format!("{name}.ffn.ffn2"), h * r, h, rng);
        Self {
            mixing,
            ffn: [ffn1, ffn2],
            ln1: LayerNorm::new(&format!("{name}.ln1"), h),
            ln2: LayerNorm::new(&format!("{name}.ln2"), h),
        }
    }

    /// Applies the block.
    pub(crate) fn forward(&self, tape: &Tape, x: VarId, bindings: &mut Bindings) -> VarId {
        let m = self.mixing.forward(tape, x, bindings);
        let x = self.ln1.forward(tape, tape.add(x, m), bindings);
        let h = self.ffn[0].forward(tape, x, bindings);
        let f = self.ffn[1].forward(tape, tape.gelu(h), bindings);
        self.ln2.forward(tape, tape.add(x, f), bindings)
    }

    /// Short name used in schedules and reports.
    pub(crate) fn name(&self) -> &'static str {
        match (&self.mixing, &self.ffn[0]) {
            (Mixing::Attention { .. }, Linear::Dense { .. }) => "Transformer",
            (Mixing::Fourier, Linear::Dense { .. }) => "FNet",
            (Mixing::Attention { .. }, Linear::Butterfly { .. }) => "ABfly",
            (Mixing::Fourier, Linear::Butterfly { .. }) => "FBfly",
        }
    }

    /// Every parameter of the block.
    pub(crate) fn params(&self) -> impl Iterator<Item = &Param> {
        let proj = match &self.mixing {
            Mixing::Attention { proj, .. } => &proj[..],
            Mixing::Fourier => &[],
        };
        let linears = proj.iter().chain(&self.ffn).flat_map(Linear::params);
        linears.chain(self.ln1.params()).chain(self.ln2.params())
    }

    /// Snapshots the block's current weights into its tape-free frozen form
    /// (see [`crate::FrozenModel`]).
    pub(crate) fn freeze(&self) -> FrozenBlock {
        let mixing = match &self.mixing {
            Mixing::Attention { proj, heads } => {
                let [q, k, v, o] = proj.each_ref().map(Linear::freeze);
                let dim = o.d_out();
                FrozenMixing::Attention(Box::new(FrozenAttention::new(q, k, v, o, dim, *heads)))
            }
            Mixing::Fourier => FrozenMixing::Fourier,
        };
        let ffn = FrozenFeedForward::new(self.ffn[0].freeze(), self.ffn[1].freeze());
        FrozenBlock::new(mixing, ffn, self.ln1.freeze(), self.ln2.freeze())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelKind;
    use crate::flops::flops_breakdown;
    use fab_tensor::Tensor;
    use rand::SeedableRng;

    fn config(hidden: usize, heads: usize, ffn_ratio: usize) -> ModelConfig {
        ModelConfig { hidden, num_heads: heads, ffn_ratio, ..ModelConfig::tiny_for_tests() }
    }

    /// `(attention, butterfly)` of the Transformer, FNet, ABfly and FBfly
    /// blocks.
    const KINDS: [(bool, bool); 4] = [(true, false), (false, false), (true, true), (false, true)];

    fn num_params(block: &Block) -> usize {
        block.params().map(Param::len).sum()
    }

    #[test]
    fn all_blocks_preserve_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        for (attention, butterfly) in KINDS {
            let block = Block::new("b", attention, butterfly, &config(8, 2, 2), &mut rng);
            let tape = Tape::new();
            let mut b = Bindings::new();
            let x = tape.leaf(Tensor::ones(&[4, 8]));
            let y = block.forward(&tape, x, &mut b);
            assert_eq!(tape.shape(y), vec![4, 8], "{}", block.name());
        }
    }

    #[test]
    fn butterfly_blocks_have_fewer_params() {
        let mut rng = StdRng::seed_from_u64(2);
        let [t, f, a, b] =
            KINDS.map(|(att, bfly)| Block::new("b", att, bfly, &config(64, 4, 4), &mut rng));
        assert!(num_params(&t) > 3 * num_params(&a));
        assert!(num_params(&f) > 3 * num_params(&b));
    }

    #[test]
    fn fbfly_is_cheapest_in_flops() {
        // One block each: a Transformer, an ABfly and an FBfly block.
        let one = ModelConfig { num_layers: 1, ..config(64, 4, 4) };
        let seq = 256;
        let t = flops_breakdown(&one, ModelKind::Transformer, seq).total();
        let a = flops_breakdown(&one.clone().with_abfly(1), ModelKind::FabNet, seq).total();
        let f = flops_breakdown(&one.with_abfly(0), ModelKind::FabNet, seq).total();
        assert!(t > a);
        assert!(a > f);
    }

    #[test]
    fn attention_flag_matches_block_type() {
        let mut rng = StdRng::seed_from_u64(4);
        let names = ["Transformer", "FNet", "ABfly", "FBfly"];
        for ((attention, butterfly), name) in KINDS.into_iter().zip(names) {
            let block = Block::new("b", attention, butterfly, &config(8, 2, 2), &mut rng);
            assert_eq!(matches!(block.mixing, Mixing::Attention { .. }), attention, "{name}");
            assert_eq!(block.name(), name);
        }
    }
}
