//! PR-2 parallel-consistency tests: the rayon-parallel `predict_batch` /
//! `evaluate` and the frozen batched forward must agree with the serial
//! per-example tape path across worker-thread counts, including
//! `RAYON_NUM_THREADS=1`.

use fab_nn::{evaluate, Example, Model, ModelConfig, ModelKind};
use fab_tensor::with_rayon_threads;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serialises tests that mutate `RAYON_NUM_THREADS`, which is process-global.
static THREAD_ENV_LOCK: Mutex<()> = Mutex::new(());

fn mixed_length_batch(rng: &mut StdRng, n: usize, vocab: usize, max_len: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..=max_len);
            (0..len).map(|_| rng.gen_range(0..vocab)).collect()
        })
        .collect()
}

#[test]
fn predict_batch_matches_serial_predict_across_thread_counts() {
    let config = ModelConfig::tiny_for_tests();
    for kind in [ModelKind::FabNet, ModelKind::FNet, ModelKind::Transformer] {
        let mut rng = StdRng::seed_from_u64(11);
        let model = Model::new(&config, kind, &mut rng);
        let batch = mixed_length_batch(&mut rng, 9, config.vocab_size, config.max_seq);
        let serial: Vec<Vec<f32>> = batch.iter().map(|t| model.predict(t)).collect();
        for threads in [1, 5, 7] {
            let _guard = THREAD_ENV_LOCK.lock().unwrap();
            let parallel = with_rayon_threads(threads, || model.predict_batch(&batch));
            assert_eq!(serial, parallel, "{kind:?} diverged at {threads} threads");
        }
    }
}

#[test]
fn evaluate_matches_serial_accuracy_across_thread_counts() {
    let config = ModelConfig::tiny_for_tests();
    let mut rng = StdRng::seed_from_u64(23);
    let model = Model::new(&config, ModelKind::FabNet, &mut rng);
    let examples: Vec<Example> = mixed_length_batch(&mut rng, 17, config.vocab_size, 12)
        .into_iter()
        .map(|tokens| Example::new(tokens, 0))
        .collect();
    let serial = examples.iter().filter(|ex| model.predict_class(&ex.tokens) == ex.label).count()
        as f32
        / examples.len() as f32;
    for threads in [1, 4] {
        let _guard = THREAD_ENV_LOCK.lock().unwrap();
        let parallel = with_rayon_threads(threads, || evaluate(&model, &examples));
        assert_eq!(serial, parallel, "accuracy diverged at {threads} threads");
    }
}
