//! Analytic FLOP and parameter models for the three architectures.
//!
//! These mirror the layer implementations exactly but never materialise any
//! weights, so they can be evaluated for BERT-Large-sized configurations.
//! They drive the reproduction of Fig. 1 (operation breakdown), Fig. 3
//! (latency breakdown inputs), Fig. 17 (FLOP / model-size reduction) and feed
//! the workload descriptions consumed by `fab-accel` and `fab-baselines`.

use crate::config::{ModelConfig, ModelKind};
use fab_butterfly::flops as k;
use fab_butterfly::next_pow2;

/// Forward-pass FLOPs of one model, split by component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlopsBreakdown {
    /// The attention score/value computation (`Q·K^T`, softmax, `S·V`).
    pub attention_core: u64,
    /// All linear layers: Q/K/V/output projections and the FFN (dense or butterfly).
    pub linear: u64,
    /// Fourier token mixing (FNet / FBfly blocks).
    pub fourier: u64,
    /// Everything else (layer norm, shortcut additions).
    pub other: u64,
}

impl FlopsBreakdown {
    /// Total FLOPs.
    pub fn total(&self) -> u64 {
        self.attention_core + self.linear + self.fourier + self.other
    }

    /// Fraction of total FLOPs spent in the attention core.
    pub fn attention_fraction(&self) -> f64 {
        self.attention_core as f64 / self.total().max(1) as f64
    }

    /// Fraction of total FLOPs spent in linear layers.
    pub fn linear_fraction(&self) -> f64 {
        self.linear as f64 / self.total().max(1) as f64
    }
}

/// Trainable-parameter counts of one model, split by component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParamBreakdown {
    /// Token and positional embedding tables.
    pub embedding: u64,
    /// Attention projection weights (dense or butterfly).
    pub attention_proj: u64,
    /// Feed-forward network weights (dense or butterfly).
    pub ffn: u64,
    /// Layer-norm scales/shifts and the classification head.
    pub other: u64,
}

impl ParamBreakdown {
    /// Total parameter count.
    pub fn total(&self) -> u64 {
        self.embedding + self.attention_proj + self.ffn + self.other
    }

    /// Parameter count excluding the embedding tables — the quantity the
    /// paper's "model size" comparisons use (the embedding is identical
    /// across the compared models).
    pub fn total_without_embedding(&self) -> u64 {
        self.attention_proj + self.ffn + self.other
    }
}

fn dense_linear_params(d_in: usize, d_out: usize) -> u64 {
    (d_in * d_out + d_out) as u64
}

fn butterfly_linear_params(d_in: usize, d_out: usize) -> u64 {
    let n = next_pow2(d_in.max(d_out));
    let stages = (n as f64).log2() as usize;
    (2 * n * stages + d_out) as u64
}

/// FLOPs breakdown of a forward pass over a `seq`-length input.
pub fn flops_breakdown(config: &ModelConfig, kind: ModelKind, seq: usize) -> FlopsBreakdown {
    let h = config.hidden;
    let r = config.ffn_ratio;
    let ln_per_block = 2 * k::layer_norm_flops(seq, h) + 2 * (seq * h) as u64;
    let mut out = FlopsBreakdown::default();
    let add_transformer_block = |out: &mut FlopsBreakdown| {
        out.attention_core += k::attention_core_flops(seq, h);
        out.linear += 4 * k::dense_linear_flops(seq, h, h) + k::ffn_flops(seq, h, r);
        out.other += ln_per_block;
    };
    let add_fnet_block = |out: &mut FlopsBreakdown| {
        out.fourier += k::fourier_mix_flops(next_pow2(seq), next_pow2(h));
        out.linear += k::ffn_flops(seq, h, r);
        out.other += ln_per_block;
    };
    let add_fbfly_block = |out: &mut FlopsBreakdown| {
        out.fourier += k::fourier_mix_flops(next_pow2(seq), next_pow2(h));
        out.linear += 2 * k::butterfly_linear_flops(seq, next_pow2(h * r));
        out.other += ln_per_block;
    };
    let add_abfly_block = |out: &mut FlopsBreakdown| {
        out.attention_core += k::attention_core_flops(seq, h);
        out.linear += 4 * k::butterfly_linear_flops(seq, next_pow2(h))
            + 2 * k::butterfly_linear_flops(seq, next_pow2(h * r));
        out.other += ln_per_block;
    };
    match kind {
        ModelKind::Transformer => {
            for _ in 0..config.num_layers {
                add_transformer_block(&mut out);
            }
        }
        ModelKind::FNet => {
            for _ in 0..config.num_layers {
                add_fnet_block(&mut out);
            }
        }
        ModelKind::FabNet => {
            for _ in 0..config.num_fbfly() {
                add_fbfly_block(&mut out);
            }
            for _ in 0..config.num_abfly {
                add_abfly_block(&mut out);
            }
        }
    }
    out
}

/// Parameter breakdown of a model.
pub fn param_breakdown(config: &ModelConfig, kind: ModelKind) -> ParamBreakdown {
    let h = config.hidden;
    let r = config.ffn_ratio;
    let mut out = ParamBreakdown {
        embedding: ((config.vocab_size + config.max_seq) * h) as u64,
        ..ParamBreakdown::default()
    };
    // Classification head + per-block layer norms.
    out.other += dense_linear_params(h, config.num_classes);
    out.other += (config.num_layers * 4 * h) as u64;
    match kind {
        ModelKind::Transformer => {
            out.attention_proj += config.num_layers as u64 * 4 * dense_linear_params(h, h);
            out.ffn += config.num_layers as u64
                * (dense_linear_params(h, h * r) + dense_linear_params(h * r, h));
        }
        ModelKind::FNet => {
            out.ffn += config.num_layers as u64
                * (dense_linear_params(h, h * r) + dense_linear_params(h * r, h));
        }
        ModelKind::FabNet => {
            out.attention_proj += config.num_abfly as u64 * 4 * butterfly_linear_params(h, h);
            out.ffn += config.num_layers as u64
                * (butterfly_linear_params(h, h * r) + butterfly_linear_params(h * r, h));
        }
    }
    out
}

/// The FLOP reduction factor of FABNet over another model kind for a task
/// with sequence length `seq` (Fig. 17, left).
pub fn flops_reduction(
    fabnet: &ModelConfig,
    other: &ModelConfig,
    other_kind: ModelKind,
    seq: usize,
) -> f64 {
    let fab = flops_breakdown(fabnet, ModelKind::FabNet, seq).total() as f64;
    let base = flops_breakdown(other, other_kind, seq).total() as f64;
    base / fab.max(1.0)
}

/// The parameter (model size) reduction factor of FABNet over another model
/// kind (Fig. 17, right). Embeddings are excluded, matching the paper's
/// comparison of compressed weights.
pub fn param_reduction(fabnet: &ModelConfig, other: &ModelConfig, other_kind: ModelKind) -> f64 {
    let fab = param_breakdown(fabnet, ModelKind::FabNet).total_without_embedding() as f64;
    let base = param_breakdown(other, other_kind).total_without_embedding() as f64;
    base / fab.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::Model;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn analytic_params_match_constructed_model() {
        let config = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(0);
        for kind in [ModelKind::Transformer, ModelKind::FNet, ModelKind::FabNet] {
            let model = Model::new(&config, kind, &mut rng);
            let analytic = param_breakdown(&config, kind).total();
            assert_eq!(model.num_params() as u64, analytic, "kind {:?}", kind);
        }
    }

    #[test]
    fn linear_layers_dominate_short_sequences_for_bert() {
        // Fig. 1: at sequence length 128 linear layers are > 80% of operations.
        let config = ModelConfig::bert_base();
        let b = flops_breakdown(&config, ModelKind::Transformer, 128);
        assert!(b.linear_fraction() > 0.8, "linear fraction {}", b.linear_fraction());
    }

    #[test]
    fn attention_dominates_very_long_sequences_for_bert() {
        let config = ModelConfig::bert_base();
        let b = flops_breakdown(&config, ModelKind::Transformer, 8192);
        assert!(b.attention_fraction() > 0.5, "attention fraction {}", b.attention_fraction());
    }

    #[test]
    fn fabnet_flops_reduction_is_in_paper_range() {
        // Fig. 17: 10–66x FLOP reduction over the vanilla Transformer on LRA
        // tasks (sequence lengths 1024–4096).
        let fabnet = ModelConfig::fabnet_base();
        let transformer = ModelConfig::bert_base();
        for seq in [1024usize, 2048, 4096] {
            let r = flops_reduction(&fabnet, &transformer, ModelKind::Transformer, seq);
            assert!(r > 8.0 && r < 120.0, "seq {seq}: reduction {r}");
        }
    }

    #[test]
    fn fabnet_param_reduction_is_in_paper_range() {
        // Fig. 17: 2–22x parameter reduction over the vanilla Transformer.
        let fabnet = ModelConfig::fabnet_base();
        let transformer = ModelConfig::bert_base();
        let r = param_reduction(&fabnet, &transformer, ModelKind::Transformer);
        assert!(r > 10.0 && r < 80.0, "reduction {r}");
    }

    #[test]
    fn fabnet_beats_fnet_in_both_metrics() {
        let fabnet = ModelConfig::fabnet_base();
        let fnet = ModelConfig::fabnet_base();
        let fr = flops_reduction(&fabnet, &fnet, ModelKind::FNet, 1024);
        let pr = param_reduction(&fabnet, &fnet, ModelKind::FNet);
        assert!(fr > 1.5, "flops reduction over FNet {fr}");
        assert!(pr > 1.5, "param reduction over FNet {pr}");
    }
}
