//! High-level pipelines wiring the workspace crates together: train a FABNet
//! on an LRA-proxy task, then evaluate it on the accelerator simulator.

use fab_accel::workload::LayerSchedule;
use fab_accel::{power, resources, AcceleratorConfig, LatencyReport, Simulator};
use fab_lra::{LraTask, TaskConfig};
use fab_nn::{
    train_classifier, Example, FrozenModel, Model, ModelConfig, ModelKind, TrainOptions,
    TrainReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// End-to-end training + hardware-evaluation pipeline for one LRA-proxy task.
///
/// # Example
///
/// ```rust
/// use fabnet::pipeline::TrainingPipeline;
/// use fabnet::prelude::*;
///
/// let pipeline = TrainingPipeline::new(LraTask::Text, 32, 7)
///     .with_examples(16, 8)
///     .with_epochs(1);
/// let config = ModelConfig { hidden: 16, ffn_ratio: 2, num_layers: 1, num_abfly: 0,
///     num_heads: 2, vocab_size: 32, max_seq: 32, num_classes: 2 };
/// let trained = pipeline.run(&config, ModelKind::FabNet);
/// assert!(trained.report.test_accuracy >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TrainingPipeline {
    task: LraTask,
    seq_len: usize,
    seed: u64,
    train_examples: usize,
    test_examples: usize,
    epochs: usize,
    learning_rate: f32,
}

impl TrainingPipeline {
    /// Creates a pipeline for `task` with sequences of length `seq_len`.
    pub fn new(task: LraTask, seq_len: usize, seed: u64) -> Self {
        Self {
            task,
            seq_len,
            seed,
            train_examples: 64,
            test_examples: 32,
            epochs: 3,
            learning_rate: 2e-3,
        }
    }

    /// Sets the number of training and held-out examples.
    pub fn with_examples(mut self, train: usize, test: usize) -> Self {
        self.train_examples = train;
        self.test_examples = test;
        self
    }

    /// Sets the number of training epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the Adam learning rate.
    pub fn with_learning_rate(mut self, lr: f32) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Generates the train/test split for this pipeline's task.
    pub(crate) fn dataset(&self) -> (Vec<Example>, Vec<Example>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let config = TaskConfig { seq_len: self.seq_len };
        let (train, test) =
            self.task.generate_split(&config, self.train_examples, self.test_examples, &mut rng);
        let convert = |samples: Vec<fab_lra::Sample>| {
            samples.into_iter().map(|s| Example::new(s.tokens, s.label)).collect::<Vec<_>>()
        };
        (convert(train), convert(test))
    }

    /// Trains a model of `kind` with the given configuration on the task.
    ///
    /// The configuration's vocabulary size and class count are overridden to
    /// match the task.
    pub fn run(&self, config: &ModelConfig, kind: ModelKind) -> TrainedFabNet {
        let mut config = config.clone();
        config.vocab_size = self.task.vocab_size();
        config.num_classes = self.task.num_classes();
        config.max_seq = config.max_seq.max(self.seq_len);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let model = Model::new(&config, kind, &mut rng);
        let (train, test) = self.dataset();
        let report = train_classifier(
            &model,
            &train,
            &test,
            &TrainOptions { epochs: self.epochs, learning_rate: self.learning_rate },
        );
        TrainedFabNet {
            config,
            kind,
            model,
            report,
            seq_len: self.seq_len,
            task: self.task,
            seed: self.seed,
        }
    }
}

/// A trained model together with its training report and the hooks needed to
/// evaluate it on the accelerator simulator.
pub struct TrainedFabNet {
    /// The (task-adjusted) model configuration.
    pub config: ModelConfig,
    /// The architecture kind.
    pub kind: ModelKind,
    /// The trained model.
    pub model: Model,
    /// Training/evaluation summary.
    pub report: TrainReport,
    /// Sequence length the model was trained at.
    pub seq_len: usize,
    /// The LRA-proxy task the model was trained on.
    pub task: LraTask,
    /// Seed the pipeline trained with (also seeds the calibration stream).
    pub seed: u64,
}

impl TrainedFabNet {
    /// Builds the accelerator operation schedule for this model.
    pub(crate) fn schedule(&self, seq_len: usize) -> LayerSchedule {
        LayerSchedule::from_model(&self.config, self.kind, seq_len)
    }

    /// Freezes the trained weights into a tape-free
    /// [`InferenceSession`](fab_serve::InferenceSession) ready to be served
    /// by a dynamic-batching [`Server`](fab_serve::Server).
    pub(crate) fn into_session(self) -> fab_serve::InferenceSession {
        fab_serve::InferenceSession::new(&self.model)
    }

    /// Freezes the trained weights and starts a dynamic-batching server
    /// over them.
    pub fn serve(self, config: fab_serve::ServeConfig) -> fab_serve::Server {
        fab_serve::Server::start(self.into_session(), config)
    }

    /// Simulates this model on `hardware` at its training sequence length.
    ///
    /// # Panics
    ///
    /// Panics when the model needs the Attention Processor but `hardware`
    /// has none (see [`AcceleratorConfig::with_attention_units`]).
    pub fn simulate(&self, hardware: &AcceleratorConfig) -> HardwareEvaluation {
        let schedule = self.schedule(self.seq_len);
        let report = Simulator::new(hardware.clone()).simulate(&schedule);
        let usage = resources::estimate(hardware);
        let power = power::estimate(hardware).total();
        HardwareEvaluation {
            latency_ms: report.total_ms(),
            energy_per_prediction_j: report.total_seconds() * power,
            power_w: power,
            dsps: usage.dsps,
            brams: usage.brams,
            report,
        }
    }
}

/// The int8 serving recipe: turns on fast math for the f32 remainder,
/// calibrates on `calibration_samples` sequences of `task`'s calibration
/// stream at `seq_len` (seeded by `seed`, disjoint from the train/eval
/// splits), and quantizes every dense linear layer with the default
/// [`fab_quant::CalibrationConfig`].
///
/// `frozen` is the exact freeze of a trained model; every int8 model this
/// workspace serves goes through here, so the same weights and arguments
/// always give the same int8 model.
pub fn quantize_for_serving(
    frozen: FrozenModel,
    task: LraTask,
    seq_len: usize,
    seed: u64,
    calibration_samples: usize,
) -> FrozenModel {
    let frozen = frozen.with_fast_math(true);
    let calib = task.calibration_batches(&TaskConfig { seq_len }, seed, calibration_samples);
    let tokens: Vec<&[usize]> = calib.iter().map(|s| s.tokens.as_slice()).collect();
    fab_quant::quantize_frozen(&frozen, &tokens, &fab_quant::CalibrationConfig::default())
}

/// Latency, power and resource summary of one model on one hardware design.
#[derive(Debug, Clone)]
pub struct HardwareEvaluation {
    /// End-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// Energy per prediction in joules.
    pub energy_per_prediction_j: f64,
    /// Total power in watts.
    pub power_w: f64,
    /// DSPs used by the design.
    pub dsps: u64,
    /// BRAMs used by the design.
    pub brams: u64,
    /// The full latency report.
    pub report: LatencyReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_nn::evaluate;

    /// Evaluates an already-trained model on a freshly generated test set.
    fn reevaluate(pipeline: &TrainingPipeline, trained: &TrainedFabNet) -> f32 {
        let (_, test) = pipeline.dataset();
        evaluate(&trained.model, &test)
    }

    /// Post-training-quantizes the trained weights into an int8 session, as
    /// fabd's int8 keys do, calibrating on `calibration_samples` sequences of
    /// the model's task, sequence length and seed.
    fn into_quantized_session(
        trained: TrainedFabNet,
        calibration_samples: usize,
    ) -> fab_serve::InferenceSession {
        fab_serve::InferenceSession::from_frozen(quantize_for_serving(
            trained.model.freeze(),
            trained.task,
            trained.seq_len,
            trained.seed,
            calibration_samples,
        ))
    }

    fn tiny_config() -> ModelConfig {
        ModelConfig {
            hidden: 16,
            ffn_ratio: 2,
            num_layers: 1,
            num_abfly: 0,
            num_heads: 2,
            vocab_size: 32,
            max_seq: 32,
            num_classes: 2,
        }
    }

    #[test]
    fn pipeline_trains_and_simulates_end_to_end() {
        let pipeline = TrainingPipeline::new(LraTask::Text, 32, 11)
            .with_examples(40, 16)
            .with_epochs(5)
            .with_learning_rate(5e-3);
        let trained = pipeline.run(&tiny_config(), ModelKind::FabNet);
        assert!(trained.report.test_accuracy >= 0.6, "accuracy {}", trained.report.test_accuracy);
        let hw = AcceleratorConfig::vcu128_fabnet();
        let eval = trained.simulate(&hw);
        assert!(eval.latency_ms > 0.0);
        assert!(eval.energy_per_prediction_j > 0.0);
        assert_eq!(eval.dsps, 1024);
    }

    #[test]
    fn into_session_serves_the_trained_model() {
        let pipeline =
            TrainingPipeline::new(LraTask::Text, 32, 3).with_examples(8, 4).with_epochs(1);
        let trained = pipeline.run(&tiny_config(), ModelKind::FabNet);
        let tokens: Vec<usize> = (1..20).collect();
        let reference = trained.model.predict(&tokens);
        let server = trained.serve(fab_serve::ServeConfig::default());
        let prediction = server.handle().infer(tokens).expect("request served");
        // The serving session defaults to the fast-math kernels: logits are
        // within the 1e-5 serving budget of the tape path, not bit-equal.
        let max_diff = reference
            .iter()
            .zip(prediction.logits.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff <= 1e-5, "served logits diverged by {max_diff}");
        server.shutdown();
    }

    #[test]
    fn into_quantized_session_serves_int8() {
        let pipeline =
            TrainingPipeline::new(LraTask::Text, 32, 9).with_examples(8, 4).with_epochs(1);
        let trained = pipeline.run(&tiny_config(), ModelKind::Transformer);
        let reference = trained.model.predict(&[1, 2, 3, 4, 5]);
        let session = into_quantized_session(trained, 8);
        assert_eq!(session.kind(), fab_serve::SessionKind::Int8);
        let server = fab_serve::Server::start(session, fab_serve::ServeConfig::default());
        let prediction = server.handle().infer(vec![1, 2, 3, 4, 5]).expect("request served");
        assert_eq!(prediction.logits.len(), reference.len());
        assert_eq!(server.stats().session_kind, "int8");
        server.shutdown();
    }

    #[test]
    fn image_and_pathfinder_freeze_and_quantize_end_to_end() {
        // The two LRA tasks that joined the serving fleet last: both must
        // survive the full train → freeze → quantize → serve pipeline.
        for (task, seed) in [(LraTask::Image, 13u64), (LraTask::Pathfinder, 17u64)] {
            let pipeline = TrainingPipeline::new(task, 32, seed).with_examples(8, 4).with_epochs(1);
            let trained = pipeline.run(&tiny_config(), ModelKind::FabNet);
            assert_eq!(trained.config.vocab_size, task.vocab_size());
            assert_eq!(trained.config.num_classes, task.num_classes());
            let tokens: Vec<usize> = (0..16).map(|i| i % task.vocab_size()).collect();
            let reference = trained.model.predict(&tokens);
            assert_eq!(reference.len(), task.num_classes());

            // Same seed retrains the identical model, so the frozen session
            // must land within the fast-math serving budget of the tape path.
            let server = pipeline
                .run(&tiny_config(), ModelKind::FabNet)
                .serve(fab_serve::ServeConfig::default());
            let served = server.handle().infer(tokens.clone()).expect("request served");
            let max_diff = reference
                .iter()
                .zip(served.logits.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_diff <= 1e-5, "{task:?} served logits diverged by {max_diff}");
            server.shutdown();

            let session =
                into_quantized_session(pipeline.run(&tiny_config(), ModelKind::FabNet), 8);
            assert_eq!(session.kind(), fab_serve::SessionKind::Int8);
            let qserver = fab_serve::Server::start(session, fab_serve::ServeConfig::default());
            let qpred = qserver.handle().infer(tokens).expect("request served");
            assert_eq!(qpred.logits.len(), task.num_classes());
            qserver.shutdown();
        }
    }

    #[test]
    fn reevaluation_matches_report_on_same_seed() {
        let pipeline =
            TrainingPipeline::new(LraTask::Retrieval, 32, 5).with_examples(12, 8).with_epochs(1);
        let trained = pipeline.run(&tiny_config(), ModelKind::FNet);
        let again = reevaluate(&pipeline, &trained);
        assert!((again - trained.report.test_accuracy).abs() < 1e-6);
    }
}
