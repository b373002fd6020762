//! PR-2 batcher property tests: logits served through the dynamic batcher
//! (mixed-length batches, evaluated one sequence at a time) must equal the
//! same session's single-request answer bit for bit at any thread count — which
//! for an exact session is the tape path's answer, and for a fast-math
//! session lies within 1e-5 of it — across odd batch sizes and mixed
//! sequence lengths.

use fab_nn::flops::flops_breakdown;
use fab_nn::{Model, ModelConfig, ModelKind};
use fab_quant::{quantize_frozen, CalibrationConfig};
use fab_serve::{InferenceSession, ServeConfig, Server, SessionScratch};
use fab_tensor::{with_rayon_threads, PAR_GRAIN_OPS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serialises tests that mutate `RAYON_NUM_THREADS`, which is process-global.
static THREAD_ENV_LOCK: Mutex<()> = Mutex::new(());

fn model_for(seed: u64, kind: ModelKind) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    Model::new(&ModelConfig::tiny_for_tests(), kind, &mut rng)
}

fn mixed_batch(rng: &mut StdRng, n: usize, vocab: usize, max_len: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..=max_len);
            (0..len).map(|_| rng.gen_range(0..vocab)).collect()
        })
        .collect()
}

/// Submits every sequence through the server (async, so the batcher can
/// coalesce them) and returns the per-request logits in submission order.
fn serve_all(
    model: &Model,
    exact: bool,
    config: ServeConfig,
    batch: &[Vec<usize>],
) -> Vec<Vec<f32>> {
    let session = if exact { InferenceSession::exact(model) } else { InferenceSession::new(model) };
    let server = Server::start(session, config);
    let handle = server.handle();
    let pending: Vec<_> =
        batch.iter().map(|tokens| handle.submit(tokens.clone()).expect("accepted")).collect();
    let logits: Vec<Vec<f32>> =
        pending.into_iter().map(|p| p.wait().expect("served").logits).collect();
    let stats = server.stats();
    assert_eq!(stats.completed as usize, batch.len());
    server.shutdown();
    logits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn served_batches_match_single_requests_bit_for_bit_serial(
        batch_size in 1usize..12,
        seed in 0u64..500,
    ) {
        let _guard = THREAD_ENV_LOCK.lock().unwrap();
        let (model, batch, served) = with_rayon_threads(1, || {
            let kind = if seed % 2 == 0 { ModelKind::FabNet } else { ModelKind::FNet };
            let model = model_for(seed, kind);
            let config = ModelConfig::tiny_for_tests();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xbadc0de);
            let batch = mixed_batch(&mut rng, batch_size, config.vocab_size, config.max_seq);
            let serve_config = ServeConfig {
                max_batch: 5, // odd vs the batch sizes: forces partial batches
                max_wait_us: 2_000,
                num_workers: 2,
                ..ServeConfig::default()
            };
            let served = serve_all(&model, true, serve_config, &batch);
            (model, batch, served)
        });
        for (tokens, got) in batch.iter().zip(served.iter()) {
            let reference = model.predict(tokens);
            prop_assert!(
                &reference == got,
                "serial served logits diverged for len {}: {reference:?} vs {got:?}",
                tokens.len()
            );
        }
    }

    #[test]
    fn fast_math_batches_match_fast_math_single_requests_bit_for_bit(
        batch_size in 1usize..12,
        seed in 0u64..500,
    ) {
        // Batching invariance of the default (fast-math) serving session:
        // whatever batch a request rides in, its logits equal the same
        // session's single-request answer exactly.
        let model = model_for(seed, ModelKind::FabNet);
        let config = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let batch = mixed_batch(&mut rng, batch_size, config.vocab_size, config.max_seq);
        let serve_config =
            ServeConfig { max_batch: 5, max_wait_us: 2_000, ..ServeConfig::default() };
        let served = serve_all(&model, false, serve_config, &batch);
        let session = InferenceSession::new(&model);
        for (tokens, got) in batch.iter().zip(served.iter()) {
            let single = session.logits(tokens);
            prop_assert!(
                &single == got,
                "fast-math batching changed logits for len {}",
                tokens.len()
            );
        }
    }

    #[test]
    fn served_batches_match_single_requests_at_default_threads(
        batch_size in 1usize..16,
        seed in 0u64..500,
    ) {
        let kind = if seed % 2 == 0 { ModelKind::FabNet } else { ModelKind::Transformer };
        let model = model_for(seed, kind);
        let config = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31) + 7);
        let batch = mixed_batch(&mut rng, batch_size, config.vocab_size, config.max_seq);
        let serve_config =
            ServeConfig { max_batch: 7, max_wait_us: 1_000, ..ServeConfig::default() };
        let served = serve_all(&model, false, serve_config, &batch);
        for (tokens, got) in batch.iter().zip(served.iter()) {
            let reference = model.predict(tokens);
            prop_assert!(reference.len() == got.len());
            let max_diff = reference
                .iter()
                .zip(got.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            prop_assert!(
                max_diff <= 1e-5,
                "served logits diverged by {max_diff} for len {}",
                tokens.len()
            );
        }
    }
}

/// `logits_batch` is `logits` per sequence, bit for bit, for every session
/// kind at every thread count — with the batch sized from the shared grain
/// so the per-example fan-out really runs on the pool.
#[test]
fn logits_batch_equals_logits_per_sequence_for_every_session_kind_and_thread_count() {
    let _guard = THREAD_ENV_LOCK.lock().unwrap();
    let config = ModelConfig::tiny_for_tests();
    for (seed, kind) in [(5u64, ModelKind::FabNet), (6, ModelKind::Transformer)] {
        let model = model_for(seed, kind);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa11);
        let mut batch: Vec<Vec<usize>> = Vec::new();
        let mut ops = 0;
        while ops < 2 * PAR_GRAIN_OPS {
            batch.extend(mixed_batch(&mut rng, 1, config.vocab_size, config.max_seq));
            ops += flops_breakdown(&config, kind, batch.last().unwrap().len()).total();
        }
        let refs: Vec<&[usize]> = batch.iter().map(Vec::as_slice).collect();
        let frozen = model.freeze().with_fast_math(true);
        let int8 = quantize_frozen(&frozen, &batch[..8], &CalibrationConfig::default());
        let sessions = [
            InferenceSession::exact(&model),
            InferenceSession::new(&model),
            InferenceSession::from_frozen(int8),
        ];
        for session in &sessions {
            let single: Vec<Vec<f32>> =
                with_rayon_threads(1, || batch.iter().map(|t| session.logits(t)).collect());
            for threads in [1, 2, 5, 7] {
                let batched = with_rayon_threads(threads, || {
                    session.logits_batch(&refs, config.max_seq, &mut SessionScratch::new())
                });
                assert!(
                    batched == single,
                    "{kind:?} {} session: logits_batch != logits at {threads} threads",
                    session.kind().name()
                );
            }
        }
    }
}

/// Direct (serverless) check of the frozen model's batch entry point: every
/// `pad_to` a caller could pass yields logits bit-identical to tape predict.
#[test]
fn fused_batch_is_pad_invariant_and_bit_exact() {
    let _guard = THREAD_ENV_LOCK.lock().unwrap();
    with_rayon_threads(1, || {
        let model = model_for(41, ModelKind::FabNet);
        let frozen = model.freeze();
        let config = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(99);
        let batch = mixed_batch(&mut rng, 7, config.vocab_size, 9);
        let max_len = batch.iter().map(Vec::len).max().unwrap();
        let reference: Vec<Vec<f32>> = batch.iter().map(|t| model.predict(t)).collect();
        for pad_to in max_len..=config.max_seq {
            assert_eq!(frozen.logits_batch(&batch, pad_to), reference, "pad_to {pad_to}");
        }
    });
}

/// PR-6 drain property: a server shut down while requests are still queued
/// answers every accepted request — with a prediction, or with an explicit
/// error for requests whose deadline expired — across worker counts,
/// length mixes and deadline mixes. Zero accepted requests dropped.
mod drain {
    use super::*;
    use fab_serve::ServeError;
    use std::time::Duration;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn shutdown_while_queued_answers_every_accepted_request(
            num_workers in 1usize..5,
            batch_size in 1usize..48,
            seed in 0u64..500,
        ) {
            let model = model_for(seed, ModelKind::FabNet);
            let config = ModelConfig::tiny_for_tests();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xd5a1);
            let batch = mixed_batch(&mut rng, batch_size, config.vocab_size, config.max_seq);
            let serve_config = ServeConfig {
                max_batch: 3,
                max_wait_us: 200,
                queue_capacity: 1024, // everything is accepted
                num_workers,
                ..ServeConfig::default()
            };
            let server = Server::start(InferenceSession::new(&model), serve_config);
            let handle = server.handle();
            // A mix of undeadlined requests and very tight deadlines, so the
            // drain interleaves answering and shedding.
            let pending: Vec<_> = batch
                .iter()
                .enumerate()
                .map(|(i, tokens)| {
                    let deadline =
                        (i % 3 == 2).then(|| Duration::from_micros(1 + (i as u64 % 50)));
                    (
                        deadline.is_some(),
                        handle
                            .submit_with_deadline(tokens.clone(), deadline)
                            .expect("accepted"),
                    )
                })
                .collect();
            // Shut down immediately: most of the batch is still queued.
            server.shutdown();
            for (i, (had_deadline, p)) in pending.into_iter().enumerate() {
                match p.wait_timeout(Duration::from_secs(30)) {
                    Some(Ok(prediction)) => {
                        prop_assert!(!prediction.logits.is_empty(), "request {i}: empty logits");
                    }
                    Some(Err(ServeError::DeadlineExceeded)) => {
                        prop_assert!(had_deadline, "request {i} shed without a deadline");
                    }
                    Some(Err(e)) => {
                        prop_assert!(false, "request {i}: unexpected explicit error {e}");
                    }
                    None => prop_assert!(false, "request {i} was dropped by the drain"),
                }
            }
        }
    }
}
