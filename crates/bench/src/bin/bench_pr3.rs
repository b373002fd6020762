//! PR-3 training-throughput benchmark: end-to-end LRA training steps per
//! second on the allocation-free path (reused arena [`fab_tensor::Tape`],
//! lane-per-row butterfly backward, fused AdamW) against the pre-PR loop
//! (fresh tape per step, seed reference backward, reference Adam), plus a
//! gradient-equivalence gate between the two paths. Writes `BENCH_PR3.json`
//! and exits non-zero when throughput or gradient gates fail.
//!
//! ```text
//! cargo run --release -p fab-bench --bin bench_pr3 -- [--smoke]
//!     [--steps N] [--min-speedup X]
//! ```
//!
//! `--smoke` runs a small step count for CI; `--min-speedup 1.0` makes CI
//! fail on any training-throughput regression vs. the reference loop.

use fab_lra::{LraTask, TaskConfig};
use fab_nn::{Adam, FusedAdamW, Model, ModelConfig, ModelKind, Optimizer, TrainStep};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// CLI options (hand-parsed; the container has no argument-parsing crate).
struct Options {
    steps: usize,
    min_speedup: f64,
    smoke: bool,
}

impl Options {
    fn parse() -> Self {
        let mut opts = Self { steps: 0, min_speedup: 0.0, smoke: false };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("{name} needs a value"))
                    .parse::<f64>()
                    .unwrap_or_else(|e| panic!("invalid {name}: {e}"))
            };
            match arg.as_str() {
                "--smoke" => opts.smoke = true,
                "--steps" => opts.steps = value("--steps") as usize,
                "--min-speedup" => opts.min_speedup = value("--min-speedup"),
                other => panic!("unknown argument {other}"),
            }
        }
        if opts.steps == 0 {
            opts.steps = if opts.smoke { 48 } else { 240 };
        }
        opts
    }
}

fn main() {
    let opts = Options::parse();
    let mut rng = StdRng::seed_from_u64(20220703);

    // The representative LRA configuration of the serving bench: a FABNet
    // big enough that the gradient path dominates, small enough for CI.
    let task = LraTask::Text;
    let seq_len = 64usize;
    let config = ModelConfig {
        hidden: 64,
        ffn_ratio: 4,
        num_layers: 2,
        num_abfly: 1,
        num_heads: 4,
        vocab_size: task.vocab_size(),
        max_seq: 128,
        num_classes: task.num_classes(),
    };
    let samples = task.generate(&TaskConfig { seq_len }, opts.steps.max(64), &mut rng);
    println!(
        "bench_pr3: {} training steps, {}@{seq_len}, FABNet hidden {} x {} layers ({} params)",
        opts.steps,
        task.name(),
        config.hidden,
        config.num_layers,
        Model::new(&config, ModelKind::FabNet, &mut StdRng::seed_from_u64(1)).num_params(),
    );

    // --- Gradient-equivalence gate: fused vs reference backward. ----------
    let model = Model::new(&config, ModelKind::FabNet, &mut StdRng::seed_from_u64(42));
    let probe = &samples[0];
    let (tape, loss, bindings) = model.loss(&probe.tokens, probe.label);
    tape.backward(loss);
    let fused_grads: Vec<_> = bindings.iter().map(|(id, _)| tape.grad(*id)).collect();
    tape.backward_reference(loss);
    let mut max_grad_diff = 0.0f32;
    for (f, (id, _)) in fused_grads.iter().zip(bindings.iter()) {
        let r = tape.grad(*id);
        for (a, b) in f.as_slice().iter().zip(r.as_slice()) {
            max_grad_diff = max_grad_diff.max((a - b).abs());
        }
    }
    println!("gradients: max |fused - reference| = {max_grad_diff:.3e}");

    // --- Timed loops. ------------------------------------------------------
    // The two loops run as interleaved blocks (ref, fused, ref, fused, …)
    // and each path reports its *minimum* block time: on this single shared
    // core, background contention hits both paths in the same windows, and
    // per-path minima give each loop its clean-window throughput. Each pass
    // uses a fresh model from the same seed so the work is identical and
    // optimiser state does not leak across passes.
    const PASSES: usize = 3;
    let run_reference = || {
        let model = Model::new(&config, ModelKind::FabNet, &mut StdRng::seed_from_u64(7));
        let mut opt = Adam::new(1e-3);
        for s in samples.iter().take(4) {
            // Warmup (page faults, lazy init).
            let (tape, loss, bindings) = model.loss(&s.tokens, s.label);
            tape.backward_reference(loss);
            opt.step(&tape, &bindings);
        }
        let t0 = Instant::now();
        let mut total = 0.0f32;
        for s in samples.iter().take(opts.steps) {
            let (tape, loss, bindings) = model.loss(&s.tokens, s.label);
            tape.backward_reference(loss);
            opt.step(&tape, &bindings);
            total += tape.value_scalar(loss);
        }
        (t0.elapsed().as_secs_f64(), total)
    };
    let mut node_capacity = 0usize;
    let mut buffer_capacity = 0usize;
    let mut run_fused = || {
        let model = Model::new(&config, ModelKind::FabNet, &mut StdRng::seed_from_u64(7));
        let mut step = TrainStep::new(FusedAdamW::new(1e-3));
        for s in samples.iter().take(4) {
            step.step(&model, &s.tokens, s.label);
        }
        let caps = (step.tape().node_capacity(), step.tape().buffer_capacity());
        let t0 = Instant::now();
        let mut total = 0.0f32;
        for s in samples.iter().take(opts.steps) {
            total += step.step(&model, &s.tokens, s.label);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(
            (step.tape().node_capacity(), step.tape().buffer_capacity()),
            caps,
            "tape storage must not grow across steady-state steps"
        );
        (node_capacity, buffer_capacity) = caps;
        (elapsed, total)
    };
    let mut reference_s = f64::INFINITY;
    let mut reference_loss = 0.0f32;
    let mut fused_s = f64::INFINITY;
    let mut fused_loss = 0.0f32;
    for _ in 0..PASSES {
        let (s, l) = run_reference();
        if s < reference_s {
            reference_s = s;
            reference_loss = l;
        }
        let (s, l) = run_fused();
        if s < fused_s {
            fused_s = s;
            fused_loss = l;
        }
    }
    let reference_sps = opts.steps as f64 / reference_s;
    let fused_sps = opts.steps as f64 / fused_s;
    println!("reference: {reference_sps:8.1} steps/s  ({reference_s:.3}s)");
    let speedup = fused_sps / reference_sps;
    let loss_diff = (fused_loss - reference_loss).abs() / opts.steps as f32;
    println!("fused    : {fused_sps:8.1} steps/s  ({fused_s:.3}s)");
    println!(
        "speedup  : {speedup:.2}x   mean |loss diff| {loss_diff:.3e}   tape: {node_capacity} \
         nodes, {buffer_capacity} f32 buffer capacity (flat across steps)"
    );

    let json = format!(
        "{{\n  \"pr\": 3,\n  \"smoke\": {},\n  {host},\n  \"steps\": {},\n  \
         \"worker_threads\": {},\n  \
         \"model\": {{\"kind\": \"FABNet\", \"hidden\": {}, \"layers\": {}, \"max_seq\": {}}},\n  \
         \"task\": \"{}@{}\",\n  \
         \"reference\": {{\"steps_per_s\": {:.2}, \"seconds\": {:.4}}},\n  \
         \"fused\": {{\"steps_per_s\": {:.2}, \"seconds\": {:.4}, \"tape_nodes\": {}, \
         \"tape_buffer_f32\": {}}},\n  \
         \"speedup\": {:.3},\n  \"max_grad_diff\": {:.4e},\n  \"mean_abs_loss_diff\": {:.4e},\n  \
         \"min_speedup_required\": {}\n}}\n",
        opts.smoke,
        opts.steps,
        rayon::current_num_threads(),
        config.hidden,
        config.num_layers,
        config.max_seq,
        task.name(),
        seq_len,
        reference_sps,
        reference_s,
        fused_sps,
        fused_s,
        node_capacity,
        buffer_capacity,
        speedup,
        max_grad_diff,
        loss_diff,
        opts.min_speedup,
        host = fab_bench::host_info_json(),
    );
    std::fs::write("BENCH_PR3.json", &json).expect("write BENCH_PR3.json");
    println!("wrote BENCH_PR3.json");

    if max_grad_diff != 0.0 {
        eprintln!("FAIL: fused gradients diverged from the reference tape by {max_grad_diff}");
        std::process::exit(1);
    }
    if speedup < opts.min_speedup {
        eprintln!(
            "FAIL: training-step throughput regression: {speedup:.2}x < required {:.2}x",
            opts.min_speedup
        );
        std::process::exit(1);
    }
}
