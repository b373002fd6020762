//! Conversion of a model configuration into the layer-by-layer operation
//! schedule executed by the accelerator.

use fab_butterfly::next_pow2;
use fab_nn::{ModelConfig, ModelKind};

/// One hardware-level operation in the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerOp {
    /// A butterfly linear transform of (padded) size `n` applied to `rows` rows,
    /// executed on the Butterfly Processor.
    ButterflyLinear {
        /// Number of rows (sequence positions).
        rows: usize,
        /// Power-of-two transform size.
        n: usize,
    },
    /// The 2-D FFT token mixing of an FBfly/FNet block, executed on the
    /// Butterfly Processor in FFT mode.
    Fft2d {
        /// Sequence length (padded to a power of two).
        seq: usize,
        /// Hidden size (padded to a power of two).
        hidden: usize,
    },
    /// A dense linear layer (only present for the vanilla Transformer / FNet
    /// FFNs, which the butterfly accelerator does not natively accelerate;
    /// the baseline MAC accelerator executes these).
    DenseLinear {
        /// Number of rows.
        rows: usize,
        /// Input features.
        d_in: usize,
        /// Output features.
        d_out: usize,
    },
    /// The attention score/value computation (`Q·K^T`, softmax, `S·V`) of an
    /// ABfly or Transformer block, executed on the Attention Processor.
    AttentionCore {
        /// Sequence length.
        seq: usize,
        /// Hidden size.
        hidden: usize,
        /// Number of heads.
        heads: usize,
    },
    /// Layer normalisation + shortcut addition on the post-processing unit.
    PostProcess {
        /// Number of rows.
        rows: usize,
        /// Hidden size.
        hidden: usize,
    },
}

impl LayerOp {
    /// Multiply-accumulate style operation count of the op (2 ops per MAC),
    /// matching the GOPs convention used in the paper's energy-efficiency
    /// numbers.
    pub fn flops(&self) -> u64 {
        match *self {
            LayerOp::ButterflyLinear { rows, n } => {
                fab_butterfly::flops::butterfly_linear_flops(rows, n)
            }
            LayerOp::Fft2d { seq, hidden } => fab_butterfly::flops::fourier_mix_flops(seq, hidden),
            LayerOp::DenseLinear { rows, d_in, d_out } => {
                fab_butterfly::flops::dense_linear_flops(rows, d_in, d_out)
            }
            LayerOp::AttentionCore { seq, hidden, .. } => {
                fab_butterfly::flops::attention_core_flops(seq, hidden)
            }
            LayerOp::PostProcess { rows, hidden } => {
                fab_butterfly::flops::layer_norm_flops(rows, hidden)
            }
        }
    }

    /// Bytes read from off-chip memory (activations in + weights).
    pub fn bytes_in(&self, precision: usize) -> u64 {
        let p = precision as u64;
        match *self {
            LayerOp::ButterflyLinear { rows, n } => {
                let stages = (n as f64).log2().ceil() as u64;
                (rows * n) as u64 * p + 2 * n as u64 * stages * p
            }
            LayerOp::Fft2d { seq, hidden } => (seq * hidden) as u64 * p,
            LayerOp::DenseLinear { rows, d_in, d_out } => {
                (rows * d_in) as u64 * p + (d_in * d_out) as u64 * p
            }
            LayerOp::AttentionCore { seq, hidden, .. } => 3 * (seq * hidden) as u64 * p,
            LayerOp::PostProcess { rows, hidden } => 2 * (rows * hidden) as u64 * p,
        }
    }

    /// Bytes written back to off-chip memory.
    pub fn bytes_out(&self, precision: usize) -> u64 {
        let p = precision as u64;
        match *self {
            LayerOp::ButterflyLinear { rows, n } => (rows * n) as u64 * p,
            // FFT keeps real and imaginary parts of the intermediate result.
            LayerOp::Fft2d { seq, hidden } => 2 * (seq * hidden) as u64 * p,
            LayerOp::DenseLinear { rows, d_out, .. } => (rows * d_out) as u64 * p,
            LayerOp::AttentionCore { seq, hidden, .. } => (seq * hidden) as u64 * p,
            LayerOp::PostProcess { rows, hidden } => (rows * hidden) as u64 * p,
        }
    }

    /// Whether the op runs on the Attention Processor.
    pub fn is_attention(&self) -> bool {
        matches!(self, LayerOp::AttentionCore { .. })
    }
}

/// A block boundary marker: the ops of one encoder block, kept together so the
/// simulator can apply the fine-grained BP↔AP pipelining within a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockOps {
    /// Human-readable block name ("FBfly", "ABfly", "Transformer", "FNet").
    pub name: String,
    /// The ops of the block in execution order.
    pub ops: Vec<LayerOp>,
}

/// The full operation schedule of one model forward pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSchedule {
    /// Sequence length the schedule was generated for.
    pub seq_len: usize,
    /// Model configuration the schedule was generated from.
    pub hidden: usize,
    /// Per-block operation lists.
    pub blocks: Vec<BlockOps>,
}

impl LayerSchedule {
    /// Builds the schedule for a model configuration, kind and sequence length.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid.
    pub fn from_model(config: &ModelConfig, kind: ModelKind, seq: usize) -> Self {
        config.validate().expect("invalid model configuration");
        let h = config.hidden;
        let r = config.ffn_ratio;
        let n_proj = next_pow2(h);
        let n_ffn = next_pow2(h * r);
        let pseq = next_pow2(seq);
        let mut blocks = Vec::with_capacity(config.num_layers);

        let fbfly = |blocks: &mut Vec<BlockOps>| {
            blocks.push(BlockOps {
                name: "FBfly".to_string(),
                ops: vec![
                    LayerOp::Fft2d { seq: pseq, hidden: n_proj },
                    LayerOp::PostProcess { rows: seq, hidden: h },
                    LayerOp::ButterflyLinear { rows: seq, n: n_ffn },
                    LayerOp::ButterflyLinear { rows: seq, n: n_ffn },
                    LayerOp::PostProcess { rows: seq, hidden: h },
                ],
            });
        };
        let abfly = |blocks: &mut Vec<BlockOps>| {
            blocks.push(BlockOps {
                name: "ABfly".to_string(),
                ops: vec![
                    // Q, K, V projections and the output projection.
                    LayerOp::ButterflyLinear { rows: seq, n: n_proj },
                    LayerOp::ButterflyLinear { rows: seq, n: n_proj },
                    LayerOp::ButterflyLinear { rows: seq, n: n_proj },
                    LayerOp::AttentionCore { seq, hidden: h, heads: config.num_heads },
                    LayerOp::ButterflyLinear { rows: seq, n: n_proj },
                    LayerOp::PostProcess { rows: seq, hidden: h },
                    LayerOp::ButterflyLinear { rows: seq, n: n_ffn },
                    LayerOp::ButterflyLinear { rows: seq, n: n_ffn },
                    LayerOp::PostProcess { rows: seq, hidden: h },
                ],
            });
        };
        let transformer = |blocks: &mut Vec<BlockOps>| {
            blocks.push(BlockOps {
                name: "Transformer".to_string(),
                ops: vec![
                    LayerOp::DenseLinear { rows: seq, d_in: h, d_out: h },
                    LayerOp::DenseLinear { rows: seq, d_in: h, d_out: h },
                    LayerOp::DenseLinear { rows: seq, d_in: h, d_out: h },
                    LayerOp::AttentionCore { seq, hidden: h, heads: config.num_heads },
                    LayerOp::DenseLinear { rows: seq, d_in: h, d_out: h },
                    LayerOp::PostProcess { rows: seq, hidden: h },
                    LayerOp::DenseLinear { rows: seq, d_in: h, d_out: h * r },
                    LayerOp::DenseLinear { rows: seq, d_in: h * r, d_out: h },
                    LayerOp::PostProcess { rows: seq, hidden: h },
                ],
            });
        };
        let fnet = |blocks: &mut Vec<BlockOps>| {
            blocks.push(BlockOps {
                name: "FNet".to_string(),
                ops: vec![
                    LayerOp::Fft2d { seq: pseq, hidden: n_proj },
                    LayerOp::PostProcess { rows: seq, hidden: h },
                    LayerOp::DenseLinear { rows: seq, d_in: h, d_out: h * r },
                    LayerOp::DenseLinear { rows: seq, d_in: h * r, d_out: h },
                    LayerOp::PostProcess { rows: seq, hidden: h },
                ],
            });
        };

        match kind {
            ModelKind::Transformer => {
                for _ in 0..config.num_layers {
                    transformer(&mut blocks);
                }
            }
            ModelKind::FNet => {
                for _ in 0..config.num_layers {
                    fnet(&mut blocks);
                }
            }
            ModelKind::FabNet => {
                for _ in 0..config.num_fbfly() {
                    fbfly(&mut blocks);
                }
                for _ in 0..config.num_abfly {
                    abfly(&mut blocks);
                }
            }
        }
        Self { seq_len: seq, hidden: h, blocks }
    }

    /// Every op in schedule order.
    pub fn ops(&self) -> impl Iterator<Item = &LayerOp> {
        self.blocks.iter().flat_map(|b| b.ops.iter())
    }

    /// Total operation count of the workload.
    pub fn total_flops(&self) -> u64 {
        self.ops().map(|op| op.flops()).sum()
    }

    /// Whether any op requires the Attention Processor.
    pub(crate) fn needs_attention(&self) -> bool {
        self.ops().any(|op| op.is_attention())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabnet_schedule_has_no_dense_layers() {
        let config = ModelConfig::fabnet_base();
        let s = LayerSchedule::from_model(&config, ModelKind::FabNet, 128);
        assert_eq!(s.blocks.len(), 12);
        assert!(s.ops().all(|op| !matches!(op, LayerOp::DenseLinear { .. })));
        assert!(!s.needs_attention());
    }

    #[test]
    fn abfly_blocks_appear_when_configured() {
        let config = ModelConfig::fabnet_base().with_abfly(2);
        let s = LayerSchedule::from_model(&config, ModelKind::FabNet, 128);
        assert!(s.needs_attention());
        let abfly_blocks = s.blocks.iter().filter(|b| b.name == "ABfly").count();
        assert_eq!(abfly_blocks, 2);
        // FBfly blocks come first (Fig. 5).
        assert_eq!(s.blocks.first().unwrap().name, "FBfly");
        assert_eq!(s.blocks.last().unwrap().name, "ABfly");
    }

    #[test]
    fn transformer_schedule_uses_dense_layers_and_attention() {
        let config = ModelConfig::bert_base();
        let s = LayerSchedule::from_model(&config, ModelKind::Transformer, 256);
        assert!(s.needs_attention());
        assert!(s.ops().any(|op| matches!(op, LayerOp::DenseLinear { .. })));
    }

    #[test]
    fn schedule_flops_track_model_flops_model() {
        let config = ModelConfig::fabnet_base();
        let seq = 256;
        let s = LayerSchedule::from_model(&config, ModelKind::FabNet, seq);
        let analytic = fab_nn::flops::flops_breakdown(&config, ModelKind::FabNet, seq).total();
        let sched = s.total_flops();
        let ratio = sched as f64 / analytic as f64;
        assert!(ratio > 0.5 && ratio < 1.5, "schedule {sched} vs analytic {analytic}");
    }

    #[test]
    fn butterfly_sizes_are_padded_to_powers_of_two() {
        let config = ModelConfig::fabnet_base(); // hidden 768 -> 1024
        let s = LayerSchedule::from_model(&config, ModelKind::FabNet, 100);
        for op in s.ops() {
            if let LayerOp::ButterflyLinear { n, .. } = op {
                assert!(n.is_power_of_two());
            }
            if let LayerOp::Fft2d { seq, hidden } = op {
                assert!(seq.is_power_of_two() && hidden.is_power_of_two());
            }
        }
    }

    #[test]
    fn longer_sequences_move_traffic_and_compute_up() {
        let config = ModelConfig::fabnet_large();
        let short = LayerSchedule::from_model(&config, ModelKind::FabNet, 128);
        let long = LayerSchedule::from_model(&config, ModelKind::FabNet, 1024);
        assert!(long.total_flops() > 6 * short.total_flops());
        let bytes =
            |s: &LayerSchedule| -> u64 { s.ops().map(|op| op.bytes_in(2) + op.bytes_out(2)).sum() };
        assert!(bytes(&long) > 4 * bytes(&short));
    }
}
