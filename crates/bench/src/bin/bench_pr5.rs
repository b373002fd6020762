//! PR-5 quantization benchmark: post-training int8 serving (`fab-quant`)
//! against the f32 SIMD serving path, on trained LRA-proxy models.
//!
//! For each task (Text @ 64, ListOps @ 32) a dense Transformer is trained
//! at reduced scale, frozen with the serving fast-math kernels, then
//! calibrated on the task's deterministic calibration stream (disjoint from
//! the train/eval splits) and quantized. The benchmark reports:
//!
//! * **serve throughput** — batched `logits_batch` wall time, int8 vs f32,
//!   interleaved min-of-3 passes (both on the same SIMD backend);
//! * **accuracy delta** — held-out accuracy of the f32 model vs the int8
//!   model on the identical eval split, in points.
//!
//! Writes `BENCH_PR5.json` and exits non-zero when a gate fails.
//!
//! ```text
//! cargo run --release -p fab-bench --bin bench_pr5 -- [--smoke]
//!     [--min-speedup X]
//! ```
//!
//! Gates (enforced when a SIMD backend is active and `--min-speedup` > 0):
//! * int8 serve throughput at or above `--min-speedup` × the f32 path on
//!   every task (CI passes 1.0: int8 must never lose; the AVX2 target is
//!   ≥ 1.3x);
//! * the f32 → int8 accuracy drop stays within 1 point on every task.

use fab_lra::{LraTask, Sample, TaskConfig};
use fab_nn::{FrozenModel, Model, ModelConfig, ModelKind, TrainOptions};
use fab_quant::{quantize_frozen, CalibrationConfig, QuantModel};
use fab_tensor::simd;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct Options {
    min_speedup: f64,
    smoke: bool,
}

impl Options {
    fn parse() -> Self {
        let mut opts = Self { min_speedup: 0.0, smoke: false };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => opts.smoke = true,
                "--min-speedup" => {
                    opts.min_speedup = args
                        .next()
                        .unwrap_or_else(|| panic!("--min-speedup needs a value"))
                        .parse()
                        .unwrap_or_else(|e| panic!("invalid --min-speedup: {e}"));
                }
                other => panic!("unknown argument {other}"),
            }
        }
        opts
    }
}

/// One task's measurements.
struct TaskRow {
    name: &'static str,
    seq_len: usize,
    f32_acc: f64,
    int8_acc: f64,
    f32_ms: f64,
    int8_ms: f64,
    quantized_fraction: f64,
}

impl TaskRow {
    fn speedup(&self) -> f64 {
        self.f32_ms / self.int8_ms
    }

    /// f32 → int8 accuracy drop in points (positive = int8 lost accuracy).
    fn drop_points(&self) -> f64 {
        (self.f32_acc - self.int8_acc) * 100.0
    }
}

/// Interleaved best-of-3 timing of two closures (milliseconds per call):
/// each pass times `a` then `b`, so drift hits both sides equally.
fn time_pair(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..reps {
            a();
        }
        best_a = best_a.min(t0.elapsed().as_secs_f64() * 1e3 / reps as f64);
        let t0 = Instant::now();
        for _ in 0..reps {
            b();
        }
        best_b = best_b.min(t0.elapsed().as_secs_f64() * 1e3 / reps as f64);
    }
    (best_a, best_b)
}

fn accuracy_f32(frozen: &FrozenModel, eval: &[Sample]) -> f64 {
    let correct =
        eval.iter().filter(|s| fab_nn::argmax(&frozen.logits(&s.tokens)) == s.label).count();
    correct as f64 / eval.len() as f64
}

fn accuracy_int8(quant: &QuantModel, eval: &[Sample]) -> f64 {
    let correct = eval.iter().filter(|s| quant.predict_class(&s.tokens) == s.label).count();
    correct as f64 / eval.len() as f64
}

#[allow(clippy::too_many_arguments)]
fn run_task(
    task: LraTask,
    seq_len: usize,
    train_n: usize,
    eval_n: usize,
    epochs: usize,
    calib_n: usize,
    batch: usize,
    reps: usize,
) -> TaskRow {
    let config = ModelConfig {
        hidden: 128,
        ffn_ratio: 4,
        num_layers: 2,
        num_abfly: 2,
        num_heads: 4,
        vocab_size: task.vocab_size(),
        max_seq: seq_len,
        num_classes: task.num_classes(),
    };
    let task_config = TaskConfig { seq_len };
    let mut rng = StdRng::seed_from_u64(20220705);
    let (train, eval) = task.generate_split(&task_config, train_n, eval_n, &mut rng);
    let model = Model::new(&config, ModelKind::Transformer, &mut rng);
    let to_examples = |samples: &[Sample]| {
        samples.iter().map(|s| fab_nn::Example::new(s.tokens.clone(), s.label)).collect::<Vec<_>>()
    };
    fab_nn::train_classifier(
        &model,
        &to_examples(&train),
        &[],
        &TrainOptions { epochs, learning_rate: 1e-3 },
    );

    // Freeze (f32 serving path) and post-training-quantize on the
    // deterministic calibration stream (disjoint from train/eval).
    let frozen = model.freeze().with_fast_math(true);
    let calib = task.calibration_batches(&task_config, 20220705, calib_n);
    let calib_tokens: Vec<&[usize]> = calib.iter().map(|s| s.tokens.as_slice()).collect();
    let quant = quantize_frozen(&frozen, &calib_tokens, &CalibrationConfig::default());

    // Accuracy on the identical eval split.
    let f32_acc = accuracy_f32(&frozen, &eval);
    let int8_acc = accuracy_int8(&quant, &eval);

    // Serve throughput: batched logits over eval traffic, interleaved.
    let refs: Vec<&[usize]> = eval.iter().take(batch).map(|s| s.tokens.as_slice()).collect();
    let (f32_ms, int8_ms) = time_pair(
        reps,
        || {
            std::hint::black_box(frozen.logits_batch(&refs, seq_len));
        },
        || {
            std::hint::black_box(quant.logits_batch(&refs, seq_len));
        },
    );

    TaskRow {
        name: task.name(),
        seq_len,
        f32_acc,
        int8_acc,
        f32_ms,
        int8_ms,
        quantized_fraction: quant.quantized_fraction(),
    }
}

fn main() {
    let opts = Options::parse();
    let backend = simd::backend();
    println!(
        "bench_pr5: int8 (fab-quant) vs f32 serving on backend `{}`  (cpu: {})",
        backend.name(),
        simd::cpu_features()
    );
    let (train_n, eval_n, epochs, calib_n, reps) =
        if opts.smoke { (80, 120, 2, 16, 2) } else { (240, 240, 6, 32, 6) };

    let rows = [
        run_task(LraTask::Text, 64, train_n, eval_n, epochs, calib_n, 16, reps),
        run_task(LraTask::ListOps, 32, train_n, eval_n, epochs, calib_n, 16, reps),
    ];

    println!(
        "\n{:<10} {:>8} {:>8} {:>7} {:>11} {:>11} {:>9} {:>7}",
        "task", "f32 acc", "int8", "Δpts", "f32 ms/b", "int8 ms/b", "speedup", "q-frac"
    );
    for r in &rows {
        println!(
            "{:<10} {:>8.3} {:>8.3} {:>7.2} {:>11.3} {:>11.3} {:>8.2}x {:>7.2}",
            r.name,
            r.f32_acc,
            r.int8_acc,
            r.drop_points(),
            r.f32_ms,
            r.int8_ms,
            r.speedup(),
            r.quantized_fraction
        );
    }
    let min_serve = rows.iter().map(TaskRow::speedup).fold(f64::INFINITY, f64::min);
    let max_drop = rows.iter().map(TaskRow::drop_points).fold(f64::NEG_INFINITY, f64::max);
    println!("\nmin serve speedup {min_serve:.2}x   max accuracy drop {max_drop:.2} pts");

    let mut json = String::from("{\n  \"pr\": 5,\n");
    json.push_str(&format!("  \"smoke\": {},\n", opts.smoke));
    json.push_str(&format!("  {},\n", fab_bench::host_info_json()));
    json.push_str(&format!("  \"worker_threads\": {},\n", rayon::current_num_threads()));
    json.push_str("  \"tasks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"task\": \"{}\", \"seq_len\": {}, \"f32_accuracy\": {:.4}, \
             \"int8_accuracy\": {:.4}, \"accuracy_drop_points\": {:.3}, \"f32_ms_per_batch\": \
             {:.4}, \"int8_ms_per_batch\": {:.4}, \"serve_speedup\": {:.3}, \
             \"quantized_fraction\": {:.3}}}{}\n",
            r.name,
            r.seq_len,
            r.f32_acc,
            r.int8_acc,
            r.drop_points(),
            r.f32_ms,
            r.int8_ms,
            r.speedup(),
            r.quantized_fraction,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"min_serve_speedup\": {min_serve:.3},\n  \"max_accuracy_drop_points\": \
         {max_drop:.3},\n  \"min_speedup_required\": {}\n}}\n",
        opts.min_speedup
    ));
    std::fs::write("BENCH_PR5.json", &json).expect("write BENCH_PR5.json");
    println!("wrote BENCH_PR5.json");

    if !backend.is_simd() {
        println!("scalar-only host: speedup gates skipped");
        return;
    }
    if opts.min_speedup > 0.0 {
        if min_serve < opts.min_speedup {
            eprintln!(
                "FAIL: int8 serve throughput regression: {min_serve:.2}x < required {:.2}x",
                opts.min_speedup
            );
            std::process::exit(1);
        }
        if max_drop > 1.0 {
            eprintln!("FAIL: int8 accuracy drop {max_drop:.2} pts exceeds the 1-point budget");
            std::process::exit(1);
        }
    }
}
