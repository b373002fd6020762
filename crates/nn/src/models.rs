//! End-to-end classification models: Transformer, FNet and FABNet.

use crate::blocks::Block;
use crate::config::{ModelConfig, ModelKind};
use crate::frozen::{argmax, FrozenEmbedding, FrozenModel};
use crate::layers::{Embedding, Linear};
use crate::param::{Bindings, Param};
use fab_tensor::{Tape, VarId};
use rand::rngs::StdRng;

/// A sequence-classification model assembled from encoder blocks according to
/// a [`ModelConfig`] and [`ModelKind`]: the trainable counterpart of
/// [`FrozenModel`], with the same parts.
///
/// For [`ModelKind::FabNet`] the block stack follows Fig. 5: `num_fbfly()`
/// FBfly blocks at the bottom and `num_abfly` ABfly blocks stacked on top.
pub struct Model {
    config: ModelConfig,
    kind: ModelKind,
    embedding: Embedding,
    blocks: Vec<Block>,
    /// Maps the mean-pooled `[1, hidden]` features to the class logits.
    head: Linear,
}

impl Model {
    /// Builds a model with freshly initialised parameters.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`ModelConfig::validate`].
    pub fn new(config: &ModelConfig, kind: ModelKind, rng: &mut StdRng) -> Self {
        config.validate().expect("invalid model configuration");
        let embedding = Embedding::new(config.vocab_size, config.max_seq, config.hidden, rng);
        let blocks = (0..config.num_layers)
            .map(|i| {
                let (attention, butterfly) = match kind {
                    ModelKind::Transformer => (true, false),
                    ModelKind::FNet => (false, false),
                    ModelKind::FabNet => (i >= config.num_fbfly(), true),
                };
                Block::new(&format!("block{i}"), attention, butterfly, config, rng)
            })
            .collect();
        let head = Linear::new(false, "head", config.hidden, config.num_classes, rng);
        Self { config: config.clone(), kind, embedding, blocks, head }
    }

    /// Records the full forward pass on `tape`, returning `[1, classes]` logits.
    ///
    /// # Panics
    ///
    /// Panics when `tokens` is empty or longer than `config.max_seq`.
    pub(crate) fn forward(&self, tape: &Tape, tokens: &[usize], bindings: &mut Bindings) -> VarId {
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
        self.head.forward(tape, tape.mean_pool_rows(x), bindings)
    }

    /// Convenience inference entry point: returns the class logits for a
    /// token sequence without exposing the tape.
    pub fn predict(&self, tokens: &[usize]) -> Vec<f32> {
        let tape = Tape::new();
        let mut bindings = Bindings::new();
        let logits = self.forward(&tape, tokens, &mut bindings);
        tape.value(logits).into_vec()
    }

    /// Returns the predicted class for a token sequence (the first maximum
    /// wins, as in [`argmax`]).
    pub fn predict_class(&self, tokens: &[usize]) -> usize {
        argmax(&self.predict(tokens))
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
        let blocks = self.blocks.iter().flat_map(Block::params);
        let params = self.embedding.params().into_iter().chain(blocks).chain(self.head.params());
        params.map(Param::len).sum()
    }

    /// Snapshots the current parameter values into an immutable, `Send +
    /// Sync`, tape-free [`FrozenModel`] for inference (see the
    /// `crate::frozen` module docs for the exactness guarantees).
    pub fn freeze(&self) -> FrozenModel {
        let [tok, pos] = self.embedding.params().map(Param::value);
        FrozenModel::from_parts(
            self.config.clone(),
            self.kind,
            FrozenEmbedding::F32 { tok, pos },
            self.blocks.iter().map(Block::freeze).collect(),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flops::{flops_breakdown, param_breakdown};
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
        let config = ModelConfig { hidden: 64, ..tiny() };
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
        let config = ModelConfig { hidden: 64, ..tiny() }.with_abfly(0);
        let seq = 128;
        let [t, f, fab] = [ModelKind::Transformer, ModelKind::FNet, ModelKind::FabNet]
            .map(|kind| flops_breakdown(&config, kind, seq).total());
        assert!(t > f);
        assert!(f > fab);
    }

    #[test]
    fn one_loss_binds_every_parameter_exactly_once() {
        let kinds = [
            (ModelKind::Transformer, 0),
            (ModelKind::FNet, 0),
            (ModelKind::FabNet, 0),
            (ModelKind::FabNet, 1),
        ];
        for (kind, num_abfly) in kinds {
            let config = tiny().with_abfly(num_abfly);
            let model = Model::new(&config, kind, &mut StdRng::seed_from_u64(6));
            let (_tape, _loss, bindings) = model.loss(&[1, 2, 3], 0);
            let summary = model.architecture_summary();
            assert_eq!(
                bindings.iter().map(|(_, p)| p.len()).sum::<usize>(),
                model.num_params(),
                "{summary}"
            );
            let p = param_breakdown(&config, kind);
            let analytic = p.embedding + p.total_without_embedding();
            assert_eq!(model.num_params() as u64, analytic, "{summary}");
            let mut names: Vec<&str> = bindings.iter().map(|(_, p)| p.name()).collect();
            names.sort_unstable();
            let bound = names.len();
            names.dedup();
            assert_eq!(names.len(), bound, "{summary}: a parameter is bound twice");
        }
    }
}
