//! End-to-end classification models: Transformer, FNet and FABNet.

use crate::blocks::{ABflyBlock, EncoderBlock, FBflyBlock, FNetBlock, TransformerBlock};
use crate::config::{ModelConfig, ModelKind};
use crate::frozen::{FrozenEmbedding, FrozenModel};
use crate::layers::{ClassifierHead, Embedding};
use crate::param::Bindings;
use fab_tensor::{Tape, Tensor, VarId};
use rand::rngs::StdRng;

/// A sequence-classification model assembled from encoder blocks according to
/// a [`ModelConfig`] and [`ModelKind`].
///
/// For [`ModelKind::FabNet`] the block stack follows Fig. 5: `num_fbfly()`
/// FBfly blocks at the bottom and `num_abfly` ABfly blocks stacked on top.
pub struct Model {
    config: ModelConfig,
    kind: ModelKind,
    embedding: Embedding,
    blocks: Vec<Box<dyn EncoderBlock>>,
    head: ClassifierHead,
}

impl Model {
    /// Builds a model with freshly initialised parameters.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`ModelConfig::validate`].
    pub fn new(config: &ModelConfig, kind: ModelKind, rng: &mut StdRng) -> Self {
        config.validate().expect("invalid model configuration");
        let embedding =
            Embedding::new("embed", config.vocab_size, config.max_seq, config.hidden, rng);
        let mut blocks: Vec<Box<dyn EncoderBlock>> = Vec::with_capacity(config.num_layers);
        for i in 0..config.num_layers {
            let name = format!("block{i}");
            let block: Box<dyn EncoderBlock> = match kind {
                ModelKind::Transformer => Box::new(TransformerBlock::new(
                    &name,
                    config.hidden,
                    config.num_heads,
                    config.ffn_ratio,
                    rng,
                )),
                ModelKind::FNet => {
                    Box::new(FNetBlock::new(&name, config.hidden, config.ffn_ratio, rng))
                }
                ModelKind::FabNet => {
                    if i < config.num_fbfly() {
                        Box::new(FBflyBlock::new(&name, config.hidden, config.ffn_ratio, rng))
                    } else {
                        Box::new(ABflyBlock::new(
                            &name,
                            config.hidden,
                            config.num_heads,
                            config.ffn_ratio,
                            rng,
                        ))
                    }
                }
            };
            blocks.push(block);
        }
        let head = ClassifierHead::new("head", config.hidden, config.num_classes, rng);
        Self { config: config.clone(), kind, embedding, blocks, head }
    }

    /// The configuration the model was built from.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Which architecture this model instantiates.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The encoder blocks in execution order.
    pub fn blocks(&self) -> &[Box<dyn EncoderBlock>] {
        &self.blocks
    }

    /// Records the full forward pass on `tape`, returning `[1, classes]` logits.
    ///
    /// # Panics
    ///
    /// Panics when `tokens` is empty or longer than `config.max_seq`.
    pub fn forward(&self, tape: &Tape, tokens: &[usize], bindings: &mut Bindings) -> VarId {
        assert!(!tokens.is_empty(), "cannot run a model on an empty sequence");
        assert!(
            tokens.len() <= self.config.max_seq,
            "sequence length {} exceeds max_seq {}",
            tokens.len(),
            self.config.max_seq
        );
        let mut x = self.embedding.forward(tape, tokens, bindings);
        for block in &self.blocks {
            x = block.forward(tape, x, bindings);
        }
        self.head.forward(tape, x, bindings)
    }

    /// Convenience inference entry point: returns the class logits for a
    /// token sequence without exposing the tape.
    pub fn predict(&self, tokens: &[usize]) -> Vec<f32> {
        let tape = Tape::new();
        let mut bindings = Bindings::new();
        let logits = self.forward(&tape, tokens, &mut bindings);
        tape.value(logits).into_vec()
    }

    /// Returns the predicted class for a token sequence.
    pub fn predict_class(&self, tokens: &[usize]) -> usize {
        let logits = self.predict(tokens);
        logits
            .iter()
            .enumerate()
            .fold((0usize, f32::NEG_INFINITY), |acc, (i, &v)| if v > acc.1 { (i, v) } else { acc })
            .0
    }

    /// Records a training step's loss for `(tokens, label)` and returns the
    /// tape, loss variable and parameter bindings.
    pub fn loss(&self, tokens: &[usize], label: usize) -> (Tape, VarId, Bindings) {
        let tape = Tape::new();
        let mut bindings = Bindings::new();
        let loss = self.loss_on(&tape, &mut bindings, tokens, label);
        (tape, loss, bindings)
    }

    /// Records a training step's loss on a caller-provided (typically
    /// [`Tape::reset`]-reused) tape — the allocation-free entry point used by
    /// [`crate::TrainStep`].
    pub fn loss_on(
        &self,
        tape: &Tape,
        bindings: &mut Bindings,
        tokens: &[usize],
        label: usize,
    ) -> VarId {
        let logits = self.forward(tape, tokens, bindings);
        tape.cross_entropy(logits, &[label])
    }

    /// Total number of trainable scalar parameters (embedding + blocks + head).
    pub fn num_params(&self) -> usize {
        self.embedding.num_params()
            + self.blocks.iter().map(|b| b.num_params()).sum::<usize>()
            + self.head.num_params()
    }

    /// Total forward FLOPs of the encoder blocks for a `seq`-length input
    /// (embedding lookups and the classifier head are negligible and excluded,
    /// as in the paper's operation counts).
    pub fn flops(&self, seq: usize) -> u64 {
        self.blocks.iter().map(|b| b.flops(seq)).sum()
    }

    /// Snapshots the current parameter values into an immutable, `Send +
    /// Sync`, tape-free [`FrozenModel`] for inference (see the
    /// [`crate::frozen`] module docs for the exactness guarantees).
    pub fn freeze(&self) -> FrozenModel {
        let (tok, pos) = self.embedding.freeze_tables();
        FrozenModel::from_parts(
            self.config.clone(),
            self.kind,
            FrozenEmbedding::F32 { tok, pos },
            self.blocks.iter().map(|b| b.freeze()).collect(),
            self.head.freeze(),
        )
    }

    /// Returns per-example logits for a batch of sequences.
    ///
    /// The model is frozen once and the examples fan out over the worker
    /// pool; each example's logits are bit-identical to
    /// [`Model::predict`] on that sequence (the tape and frozen paths run
    /// the same kernels in the same order).
    pub fn predict_batch(&self, batch: &[Vec<usize>]) -> Vec<Vec<f32>> {
        let frozen = self.freeze();
        let mut logits = vec![Vec::new(); batch.len()];
        rayon::fork_chunks_mut([(&mut logits, 1)], |i, [out]| out[0] = frozen.logits(&batch[i]));
        logits
    }

    /// Returns a short human-readable description of the block stack, e.g.
    /// `"FBfly x10 + ABfly x2"`.
    pub fn architecture_summary(&self) -> String {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for block in &self.blocks {
            match counts.last_mut() {
                Some((name, count)) if *name == block.name() => *count += 1,
                _ => counts.push((block.name(), 1)),
            }
        }
        counts
            .iter()
            .map(|(name, count)| format!("{name} x{count}"))
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// Returns the hidden-state tensor after the final encoder block for a
    /// token sequence (used by the accelerator cross-validation tests).
    pub fn encode(&self, tokens: &[usize]) -> Tensor {
        let tape = Tape::new();
        let mut bindings = Bindings::new();
        let mut x = self.embedding.forward(&tape, tokens, &mut bindings);
        for block in &self.blocks {
            x = block.forward(&tape, x, &mut bindings);
        }
        tape.value(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny() -> ModelConfig {
        ModelConfig::tiny_for_tests()
    }

    #[test]
    fn fabnet_stacks_fbfly_then_abfly() {
        let mut rng = StdRng::seed_from_u64(0);
        let model = Model::new(&tiny(), ModelKind::FabNet, &mut rng);
        assert_eq!(model.architecture_summary(), "FBfly x1 + ABfly x1");
    }

    #[test]
    fn transformer_and_fnet_block_stacks() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = Model::new(&tiny(), ModelKind::Transformer, &mut rng);
        assert_eq!(t.architecture_summary(), "Transformer x2");
        let f = Model::new(&tiny(), ModelKind::FNet, &mut rng);
        assert_eq!(f.architecture_summary(), "FNet x2");
    }

    #[test]
    fn predict_returns_class_logits() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = Model::new(&tiny(), ModelKind::FabNet, &mut rng);
        let logits = model.predict(&[1, 2, 3, 4]);
        assert_eq!(logits.len(), tiny().num_classes);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fabnet_has_far_fewer_params_than_transformer() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = tiny().with_hidden(64);
        let t = Model::new(&config, ModelKind::Transformer, &mut rng);
        let f = Model::new(&config, ModelKind::FabNet, &mut rng);
        assert!(t.num_params() > f.num_params());
    }

    #[test]
    fn loss_backward_produces_gradients_for_all_params() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = Model::new(&tiny(), ModelKind::FabNet, &mut rng);
        let (tape, loss, bindings) = model.loss(&[1, 2, 3, 4, 5, 6, 7, 0], 2);
        tape.backward(loss);
        let have = bindings.iter().filter(|(id, _)| tape.try_grad(*id).is_some()).count();
        assert_eq!(have, bindings.len());
        assert!(tape.value(loss).as_slice()[0] > 0.0);
    }

    #[test]
    fn rejects_sequences_beyond_max_len() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = Model::new(&tiny(), ModelKind::FNet, &mut rng);
        let tokens = vec![0usize; tiny().max_seq + 1];
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| model.predict(&tokens)));
        assert!(result.is_err());
    }

    #[test]
    fn flops_ordering_matches_paper() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = tiny().with_hidden(64).with_abfly(0);
        let t = Model::new(&config, ModelKind::Transformer, &mut rng);
        let f = Model::new(&config, ModelKind::FNet, &mut rng);
        let fab = Model::new(&config, ModelKind::FabNet, &mut rng);
        let seq = 128;
        assert!(t.flops(seq) > f.flops(seq));
        assert!(f.flops(seq) > fab.flops(seq));
    }
}
