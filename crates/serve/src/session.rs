//! Inference sessions: a frozen model (f32 or int8) behind the serving
//! forward API, evaluated per example.

use fab_chaos::{ChaosInjector, ChaosSite};
use fab_nn::flops::flops_breakdown;
use fab_nn::{argmax, FrozenEmbedding, FrozenModel, Model};
use fab_tensor::PAR_GRAIN_OPS;
use std::sync::Arc;

/// Which forward path a session runs — reported by
/// [`ServerStats`](crate::ServerStats) so operators can tell which numeric
/// path served their traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// f32 with exact `libm` kernels: bit-identical to
    /// [`Model::predict`](fab_nn::Model::predict).
    Exact,
    /// f32 with the serving-grade fast-math kernels (≤ ~1e-6 of the exact
    /// path) — the default.
    FastMath,
    /// Post-training int8: dense GEMMs run the `fab_tensor::simd` `q8_*`
    /// kernels, f32 at the mixing/normalisation boundaries (see
    /// [`fab_quant`]).
    Int8,
}

impl SessionKind {
    /// Short lower-case name (`exact` / `fastmath` / `int8`), as recorded
    /// in stats and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SessionKind::Exact => "exact",
            SessionKind::FastMath => "fastmath",
            SessionKind::Int8 => "int8",
        }
    }
}

/// A tape-free inference session around a [`FrozenModel`], f32 or
/// quantized.
///
/// The session is immutable and `Send + Sync`: one session is shared by
/// every worker of a [`crate::Server`]. A batch is evaluated one sequence at
/// a time, so a request's logits are bit-identical whatever batch it rides
/// in.
#[derive(Debug, Clone)]
pub struct InferenceSession {
    model: FrozenModel,
    /// Fault injection: the shared chaos schedule consulted by every
    /// forward pass and by the serving workers (see
    /// [`InferenceSession::with_chaos`]).
    chaos: Option<Arc<ChaosInjector>>,
}

impl InferenceSession {
    /// Freezes `model`'s current weights into a new f32 session with fast
    /// math on (attention scales the query instead of the scores; see
    /// [`FrozenModel::with_fast_math`]): logits stay within ~1e-6 of
    /// [`Model::predict`](fab_nn::Model::predict) and remain bit-invariant
    /// to batch composition and thread count. Use
    /// [`InferenceSession::exact`] for bit-identity with the tape path,
    /// [`InferenceSession::from_frozen`] on a quantized model for the int8
    /// path.
    pub fn new(model: &Model) -> Self {
        Self::from_frozen(model.freeze().with_fast_math(true))
    }

    /// Freezes `model` with fast math off: logits are bit-identical to
    /// [`Model::predict`](fab_nn::Model::predict), at the speed of
    /// [`InferenceSession::new`].
    pub fn exact(model: &Model) -> Self {
        Self::from_frozen(model.freeze())
    }

    /// Wraps an already-frozen model, honouring its fast-math setting. A
    /// post-training-quantized model (`fab_quant::quantize_frozen`; see
    /// [`fab_quant`] for the calibration workflow and accuracy policy)
    /// makes the server run int8 GEMMs on every dense linear layer. The
    /// session shares `model`'s weights with every other handle on them.
    pub fn from_frozen(model: FrozenModel) -> Self {
        Self { model, chaos: None }
    }

    /// The frozen model this session runs.
    pub fn model(&self) -> &FrozenModel {
        &self.model
    }

    /// Fault injection for tests and benchmarks: consult `chaos`'s seeded
    /// schedule. At the top of every forward pass a `slow_forward` fire
    /// stretches the pass by the configured delay and a `panic_forward`
    /// fire panics it (exercising batch isolation and circuit breakers); a
    /// `poison_token` fire panics the forward of the one sequence carrying
    /// the marker token; a [`crate::Server`] running this session lets a
    /// `worker_exit` fire kill one of its workers (exercising supervision).
    /// Never enable this on a production profile.
    pub fn with_chaos(mut self, chaos: Arc<ChaosInjector>) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// The chaos schedule attached by [`InferenceSession::with_chaos`].
    pub(crate) fn chaos(&self) -> Option<&ChaosInjector> {
        self.chaos.as_deref()
    }

    /// Draws the forward-pass chaos sites: one `slow_forward` and one
    /// `panic_forward` decision per forward entry (single or batched).
    fn chaos_forward(&self) {
        let Some(chaos) = &self.chaos else { return };
        if let Some(delay) = chaos.stall(ChaosSite::SlowForward) {
            std::thread::sleep(delay);
        }
        if chaos.fires(ChaosSite::PanicForward) {
            panic!("fault injection: chaos panic_forward fired");
        }
    }

    /// Draws `poison_token` for one sequence and panics its forward on a
    /// fire.
    fn chaos_poison(&self, tokens: &[usize]) {
        if self.chaos.as_ref().is_some_and(|chaos| chaos.poisons(tokens)) {
            panic!("fault injection: chaos poison_token fired");
        }
    }

    /// Which forward path this session runs: [`SessionKind::Int8`] for a
    /// model with int8 tables (what quantization produces), else by the
    /// model's fast-math setting.
    pub fn kind(&self) -> SessionKind {
        match self.model.embedding() {
            FrozenEmbedding::Int8 { .. } => SessionKind::Int8,
            FrozenEmbedding::F32 { .. } if self.model.fast_math() => SessionKind::FastMath,
            FrozenEmbedding::F32 { .. } => SessionKind::Exact,
        }
    }

    /// Maximum sequence length the session accepts.
    pub fn max_seq(&self) -> usize {
        self.model.max_seq()
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.model.num_classes()
    }

    /// Vocabulary size of the served model; token ids must stay below it.
    pub fn vocab_size(&self) -> usize {
        self.model.config().vocab_size
    }

    /// Class logits for one sequence (tape-free, unbatched).
    ///
    /// # Panics
    ///
    /// Panics when `tokens` is empty, longer than `max_seq`, or contains an
    /// out-of-vocabulary id.
    pub fn logits(&self, tokens: &[usize]) -> Vec<f32> {
        self.chaos_forward();
        self.chaos_poison(tokens);
        self.model.logits(tokens)
    }

    /// Predicted class for one sequence (tape-free, unbatched): the argmax
    /// of [`InferenceSession::logits`], fault-injection draws included.
    pub fn predict_class(&self, tokens: &[usize]) -> usize {
        argmax(&self.logits(tokens))
    }

    /// Per-sequence logits for a batch: a list of sequences, each evaluated
    /// on its own as [`InferenceSession::logits`] would, so the answers
    /// equal the unbatched ones by construction. Nothing is padded;
    /// `pad_to` only bounds the lengths the caller promises. The sequences
    /// fan out over the worker pool once the batch's analytical
    /// operation count reaches [`PAR_GRAIN_OPS`].
    ///
    /// # Panics
    ///
    /// Panics when the batch is empty, a sequence is empty or longer than
    /// `pad_to`, `pad_to` exceeds `max_seq`, or a token id is out of
    /// vocabulary.
    pub fn logits_batch(
        &self,
        batch: &[&[usize]],
        pad_to: usize,
        _scratch: &mut SessionScratch,
    ) -> Vec<Vec<f32>> {
        self.chaos_forward();
        assert!(!batch.is_empty(), "cannot run a session on an empty batch");
        let max_seq = self.max_seq();
        assert!(pad_to <= max_seq, "padded length {pad_to} exceeds max_seq {max_seq}");
        for tokens in batch {
            let len = tokens.len();
            assert!(len >= 1 && len <= pad_to, "sequence length {len} outside 1..={pad_to}");
            self.chaos_poison(tokens);
        }
        let (config, kind) = (self.model.config(), self.model.kind());
        let ops: u64 =
            batch.iter().map(|tokens| flops_breakdown(config, kind, tokens.len()).total()).sum();
        // The model is called directly: a batch draws the chaos schedule
        // once, above, not once per sequence.
        if ops < PAR_GRAIN_OPS {
            return batch.iter().map(|tokens| self.model.logits(tokens)).collect();
        }
        let mut logits = vec![Vec::new(); batch.len()];
        rayon::fork_chunks_mut([(&mut logits, 1)], |i, [out]| out[0] = self.model.logits(batch[i]));
        logits
    }
}

/// The argument [`InferenceSession::logits_batch`] takes for staging
/// buffers. Per-sequence evaluation stages nothing, so it holds none.
#[derive(Debug, Default, Clone)]
pub struct SessionScratch;

impl SessionScratch {
    /// Creates the (empty) state.
    pub fn new() -> Self {
        Self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_nn::{ModelConfig, ModelKind};
    use fab_quant::{quantize_frozen, CalibrationConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn session() -> (Model, InferenceSession) {
        let mut rng = StdRng::seed_from_u64(77);
        let model = Model::new(&ModelConfig::tiny_for_tests(), ModelKind::FabNet, &mut rng);
        let session = InferenceSession::new(&model);
        (model, session)
    }

    fn quantized_session() -> (FrozenModel, InferenceSession) {
        let mut rng = StdRng::seed_from_u64(78);
        let config = ModelConfig::tiny_for_tests();
        let model = Model::new(&config, ModelKind::Transformer, &mut rng);
        let frozen = model.freeze().with_fast_math(true);
        let calib: Vec<Vec<usize>> = (0..8)
            .map(|i| (0..8).map(|j| (i * 5 + j * 3 + 1) % config.vocab_size).collect())
            .collect();
        let quant = quantize_frozen(&frozen, &calib, &CalibrationConfig::default());
        (quant.clone(), InferenceSession::from_frozen(quant))
    }

    #[test]
    fn exact_session_logits_match_tape_predict_bit_for_bit() {
        let (model, _) = session();
        let session = InferenceSession::exact(&model);
        assert_eq!(session.kind(), SessionKind::Exact);
        let tokens = vec![1usize, 4, 2, 9, 3];
        assert_eq!(model.predict(&tokens), session.logits(&tokens));
        assert_eq!(model.predict_class(&tokens), session.predict_class(&tokens));
    }

    #[test]
    fn fast_math_session_stays_within_the_logit_budget() {
        let (model, session) = session();
        assert_eq!(session.kind(), SessionKind::FastMath);
        let tokens = vec![1usize, 4, 2, 9, 3, 8, 7];
        let exact = model.predict(&tokens);
        let fast = session.logits(&tokens);
        let max_diff =
            exact.iter().zip(fast.iter()).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(max_diff <= 1e-5, "fast-math logits diverged by {max_diff}");
    }

    #[test]
    fn quantized_session_reports_its_kind_and_serves_batches() {
        let (quant, session) = quantized_session();
        assert_eq!(session.kind(), SessionKind::Int8);
        assert_eq!(session.kind().name(), "int8");
        let mut scratch = SessionScratch::new();
        let batch: Vec<&[usize]> = vec![&[1, 2, 3], &[4, 5, 6, 7]];
        let logits = session.logits_batch(&batch, 8, &mut scratch);
        // The session path must agree bit for bit with the direct model
        // calls, whatever batching route was taken.
        assert_eq!(logits[0], quant.logits(&[1, 2, 3]));
        assert_eq!(logits[1], quant.logits(&[4, 5, 6, 7]));
        assert_eq!(session.predict_class(&[1, 2, 3]), fab_nn::argmax(&logits[0]));
    }

    #[test]
    fn predict_class_makes_the_fault_injection_checks_logits_makes() {
        let (_model, session) = session();
        let chaos = Arc::new(ChaosInjector::new(0));
        chaos.configure(ChaosSite::PoisonToken, 1, 9);
        let session = session.with_chaos(chaos);
        assert_eq!(session.predict_class(&[1, 2, 3]), argmax(&session.logits(&[1, 2, 3])));
        let poisoned = std::panic::catch_unwind(|| session.predict_class(&[1, 9, 3]));
        assert!(poisoned.is_err(), "predict_class skipped the marker-token check");
    }

    #[test]
    fn batch_level_checks_still_panic() {
        let (_model, session) = session();
        let max_seq = session.max_seq();
        let run = |batch: &[&[usize]], pad_to: usize| {
            std::panic::catch_unwind(|| {
                session.logits_batch(batch, pad_to, &mut SessionScratch::new())
            })
            .is_err()
        };
        assert!(run(&[], 8), "empty batch");
        assert!(run(&[&[1, 2], &[]], 8), "empty sequence");
        assert!(run(&[&[1, 2, 3]], 2), "sequence longer than pad_to");
        assert!(run(&[&[1, 2]], max_seq + 1), "pad_to beyond max_seq");
        assert!(run(&[&[1, session.vocab_size()]], 8), "out-of-vocabulary token");
        assert!(!run(&[&[1, 2]], 8));
    }
}
