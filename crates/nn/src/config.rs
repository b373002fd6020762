//! Model hyper-parameters (the algorithm half of the co-design space).

/// Which of the three evaluated architectures a [`crate::Model`] instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The vanilla Transformer encoder (dense attention + dense FFN).
    Transformer,
    /// FNet: Fourier token mixing + dense FFN.
    FNet,
    /// FABNet: `num_fbfly` FBfly blocks followed by `num_abfly` ABfly blocks,
    /// all linear layers butterfly-factorised (the paper's contribution).
    FabNet,
}

impl ModelKind {
    /// Human-readable name used in reports and figures.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Transformer => "Transformer",
            ModelKind::FNet => "FNet",
            ModelKind::FabNet => "FABNet",
        }
    }
}

/// Hyper-parameters shared by all model kinds.
///
/// The four algorithm parameters explored by the paper's co-design flow are
/// `hidden` (D_hid), `ffn_ratio` (R_ffn), `num_layers` (N_total) and
/// `num_abfly` (N_ABfly); the remaining fields describe the task interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Hidden (embedding) dimension `D_hid`.
    pub hidden: usize,
    /// FFN expansion ratio `R_ffn`.
    pub ffn_ratio: usize,
    /// Total number of encoder blocks `N_total`.
    pub num_layers: usize,
    /// Number of ABfly (attention) blocks `N_ABfly`; the remaining
    /// `num_layers - num_abfly` blocks are FBfly (Fourier) blocks.
    /// Only meaningful for [`ModelKind::FabNet`].
    pub num_abfly: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// Vocabulary size of the embedding table.
    pub vocab_size: usize,
    /// Maximum sequence length (positional-embedding table size).
    pub max_seq: usize,
    /// Number of output classes of the classification head.
    pub num_classes: usize,
}

impl ModelConfig {
    /// FABNet-Base defaults from Section VI-A:
    /// `D_hid = 768, R_ffn = 4, N_total = 12, N_ABfly = 0`.
    pub fn fabnet_base() -> Self {
        Self {
            hidden: 768,
            ffn_ratio: 4,
            num_layers: 12,
            num_abfly: 0,
            num_heads: 12,
            vocab_size: 256,
            max_seq: 4096,
            num_classes: 10,
        }
    }

    /// FABNet-Large defaults from Section VI-A:
    /// `D_hid = 1024, R_ffn = 4, N_total = 24, N_ABfly = 0`.
    pub fn fabnet_large() -> Self {
        Self {
            hidden: 1024,
            ffn_ratio: 4,
            num_layers: 24,
            num_abfly: 0,
            num_heads: 16,
            vocab_size: 256,
            max_seq: 4096,
            num_classes: 10,
        }
    }

    /// A BERT-Base-shaped vanilla Transformer (12 layers, 768 hidden).
    pub fn bert_base() -> Self {
        Self {
            hidden: 768,
            ffn_ratio: 4,
            num_layers: 12,
            num_abfly: 12,
            num_heads: 12,
            vocab_size: 256,
            max_seq: 4096,
            num_classes: 10,
        }
    }

    /// A BERT-Large-shaped vanilla Transformer (24 layers, 1024 hidden).
    pub fn bert_large() -> Self {
        Self {
            hidden: 1024,
            ffn_ratio: 4,
            num_layers: 24,
            num_abfly: 24,
            num_heads: 16,
            vocab_size: 256,
            max_seq: 4096,
            num_classes: 10,
        }
    }

    /// A deliberately tiny configuration for unit tests and doc examples.
    pub fn tiny_for_tests() -> Self {
        Self {
            hidden: 16,
            ffn_ratio: 2,
            num_layers: 2,
            num_abfly: 1,
            num_heads: 2,
            vocab_size: 32,
            max_seq: 16,
            num_classes: 4,
        }
    }

    /// Number of FBfly (Fourier) blocks in a FABNet with this configuration.
    pub fn num_fbfly(&self) -> usize {
        self.num_layers.saturating_sub(self.num_abfly)
    }

    /// Returns a copy with a different hidden size.
    pub fn with_hidden(mut self, hidden: usize) -> Self {
        self.hidden = hidden;
        self
    }

    /// Returns a copy with a different layer count.
    pub fn with_layers(mut self, layers: usize) -> Self {
        self.num_layers = layers;
        self
    }

    /// Returns a copy with a different number of ABfly blocks.
    pub fn with_abfly(mut self, abfly: usize) -> Self {
        self.num_abfly = abfly;
        self
    }

    /// Validates internal consistency (heads divide hidden, ABfly count does
    /// not exceed total layers).
    pub fn validate(&self) -> Result<(), String> {
        if self.hidden == 0 || self.num_layers == 0 {
            return Err("hidden size and layer count must be positive".into());
        }
        if !self.hidden.is_multiple_of(self.num_heads) {
            return Err(format!(
                "hidden size {} is not divisible by {} heads",
                self.hidden, self.num_heads
            ));
        }
        if self.num_abfly > self.num_layers {
            return Err(format!(
                "num_abfly {} exceeds num_layers {}",
                self.num_abfly, self.num_layers
            ));
        }
        Ok(())
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self::fabnet_base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_defaults() {
        let base = ModelConfig::fabnet_base();
        assert_eq!((base.hidden, base.ffn_ratio, base.num_layers, base.num_abfly), (768, 4, 12, 0));
        let large = ModelConfig::fabnet_large();
        assert_eq!((large.hidden, large.num_layers), (1024, 24));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = ModelConfig::tiny_for_tests();
        assert!(c.validate().is_ok());
        c.num_heads = 3;
        assert!(c.validate().is_err());
        let mut c = ModelConfig::tiny_for_tests();
        c.num_abfly = 100;
        assert!(c.validate().is_err());
    }

    #[test]
    fn fbfly_count_is_remainder() {
        let c = ModelConfig::tiny_for_tests();
        assert_eq!(c.num_fbfly() + c.num_abfly, c.num_layers);
    }

    #[test]
    fn builder_style_modifiers_apply() {
        let c = ModelConfig::fabnet_base().with_hidden(256).with_layers(6).with_abfly(2);
        assert_eq!((c.hidden, c.num_layers, c.num_abfly), (256, 6, 2));
    }
}
