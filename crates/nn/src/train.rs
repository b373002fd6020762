//! A small training loop for sequence-classification models, built around
//! the allocation-free [`TrainStep`] scratch object.

use crate::models::Model;
use crate::optim::{FusedAdamW, Optimizer};
use crate::param::Bindings;
use fab_tensor::Tape;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A single labelled training example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Example {
    /// Input token ids.
    pub tokens: Vec<usize>,
    /// Ground-truth class label.
    pub label: usize,
}

impl Example {
    /// Creates an example from tokens and a label.
    pub fn new(tokens: Vec<usize>, label: usize) -> Self {
        Self { tokens, label }
    }
}

/// Options controlling [`train_classifier`].
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self { epochs: 3, learning_rate: 1e-3 }
    }
}

/// Summary statistics produced by [`train_classifier`].
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Accuracy on the held-out set after training.
    pub test_accuracy: f32,
}

impl TrainReport {
    /// Mean loss of the final epoch.
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().unwrap_or(&f32::NAN)
    }
}

/// Classification accuracy of `model` on `examples`.
///
/// The model is frozen once (tape-free snapshot) and the examples are
/// evaluated in parallel on the worker pool; predictions are bit-identical
/// to the serial per-example tape path, so the reported accuracy does not
/// depend on the thread count.
pub fn evaluate(model: &Model, examples: &[Example]) -> f32 {
    if examples.is_empty() {
        return 0.0;
    }
    // One forward pass per item is far above the pool's dispatch cost, so
    // the examples fan out whatever their number.
    let frozen = model.freeze();
    let correct = AtomicUsize::new(0);
    rayon::fork(examples.len(), |i| {
        let hit = frozen.predict_class(&examples[i].tokens) == examples[i].label;
        correct.fetch_add(usize::from(hit), Ordering::Relaxed);
    });
    correct.into_inner() as f32 / examples.len() as f32
}

/// Reusable training-step scratch: one arena [`Tape`], one [`Bindings`] list
/// and the optimiser state, all retained across iterations.
///
/// Each [`TrainStep::step`] resets the tape (keeping every buffer's
/// capacity), re-records the forward pass, runs the arena backward and
/// applies the fused optimiser update — so steady-state steps on a fixed
/// sequence length perform no heap allocation in the tensor/gradient/
/// optimiser path (asserted by the counting-allocator test in
/// `tests/train_alloc.rs`).
///
/// # Example
///
/// ```rust
/// use fab_nn::{FusedAdamW, Model, ModelConfig, ModelKind, TrainStep};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let model = Model::new(&ModelConfig::tiny_for_tests(), ModelKind::FabNet, &mut rng);
/// let mut step = TrainStep::new(FusedAdamW::new(1e-3));
/// let loss = step.step(&model, &[1, 2, 3, 4], 1);
/// assert!(loss.is_finite());
/// ```
pub struct TrainStep<O: Optimizer = FusedAdamW> {
    tape: Tape,
    bindings: Bindings,
    optimizer: O,
}

impl<O: Optimizer> TrainStep<O> {
    /// Creates a training-step scratch around `optimizer`.
    pub fn new(optimizer: O) -> Self {
        Self { tape: Tape::new(), bindings: Bindings::new(), optimizer }
    }

    /// Runs one training step — forward, backward, optimiser update — for a
    /// single `(tokens, label)` example and returns the loss.
    pub fn step(&mut self, model: &Model, tokens: &[usize], label: usize) -> f32 {
        self.tape.reset();
        self.bindings.clear();
        let loss = model.loss_on(&self.tape, &mut self.bindings, tokens, label);
        self.tape.backward(loss);
        self.optimizer.step(&self.tape, &self.bindings);
        self.tape.value_scalar(loss)
    }

    /// The reused tape (capacity introspection for the allocation tests).
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// The optimiser driving the updates.
    pub fn optimizer(&self) -> &O {
        &self.optimizer
    }
}

/// Trains `model` on `train` with the fused AdamW optimiser and reports
/// accuracy on `test`.
///
/// Training is deterministic given the model's initial parameters and the
/// example order (no shuffling is performed here; callers shuffle if needed).
/// The loop reuses one [`TrainStep`] across all examples and epochs, so only
/// the first step of each distinct sequence length allocates.
pub fn train_classifier(
    model: &Model,
    train: &[Example],
    test: &[Example],
    options: &TrainOptions,
) -> TrainReport {
    let mut step = TrainStep::new(FusedAdamW::new(options.learning_rate));
    let mut epoch_losses = Vec::with_capacity(options.epochs);
    for _epoch in 0..options.epochs {
        let mut total = 0.0f32;
        for ex in train {
            total += step.step(model, &ex.tokens, ex.label);
        }
        epoch_losses.push(total / train.len().max(1) as f32);
    }
    TrainReport { epoch_losses, test_accuracy: evaluate(model, test) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, ModelKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A linearly separable toy task: the label is decided by which marker
    /// token appears in the sequence.
    fn toy_dataset(rng: &mut StdRng, n: usize, seq: usize, vocab: usize) -> Vec<Example> {
        (0..n)
            .map(|i| {
                let label = i % 2;
                let marker = if label == 0 { 1 } else { 2 };
                let mut tokens: Vec<usize> = (0..seq).map(|_| rng.gen_range(3..vocab)).collect();
                let pos = rng.gen_range(0..seq);
                tokens[pos] = marker;
                Example::new(tokens, label)
            })
            .collect()
    }

    fn tiny_config() -> ModelConfig {
        ModelConfig {
            hidden: 16,
            ffn_ratio: 2,
            num_layers: 1,
            num_abfly: 0,
            num_heads: 2,
            vocab_size: 16,
            max_seq: 16,
            num_classes: 2,
        }
    }

    #[test]
    fn fabnet_learns_a_separable_task() {
        let mut rng = StdRng::seed_from_u64(7);
        let config = tiny_config();
        let model = Model::new(&config, ModelKind::FabNet, &mut rng);
        let train = toy_dataset(&mut rng, 40, 8, config.vocab_size);
        let test = toy_dataset(&mut rng, 20, 8, config.vocab_size);
        let report = train_classifier(
            &model,
            &train,
            &test,
            &TrainOptions { epochs: 6, learning_rate: 5e-3 },
        );
        assert!(
            report.test_accuracy >= 0.75,
            "expected the tiny FABNet to learn the marker task, accuracy {}",
            report.test_accuracy
        );
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(last < first, "loss should decrease: {first} -> {last}");
    }

    #[test]
    fn evaluate_handles_empty_sets() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = Model::new(&tiny_config(), ModelKind::FNet, &mut rng);
        assert_eq!(evaluate(&model, &[]), 0.0);
    }
}
