//! The benchmark's frozen definition: workload names, metric tables and
//! every rate, size, duration and limit a workload uses. Nothing here is
//! derived at run time. `BENCHMARK.json` at the repository root is printed
//! from these tables (`benchmark spec`) and a unit test keeps the two equal.

use fabd::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;
// Every measured window is cut into rounds; a metric is computed inside each
// round and the run reports the median round.
/// Untimed warm-up before the first round.
pub const WARMUP_S: f64 = 2.0;
/// Length of the traced replay relative to the untraced run.
pub const TRACE_SHARE: f64 = 1.0 / 3.0;
/// Load comes from at most this many sender threads / connections.
pub const SENDERS: usize = 2;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "small-closed",
        "tiny models behind fabd, 2 closed-loop callers: HTTP, JSON, hand-offs and the batcher's wait are the latency, kernels almost none",
    ),
    (
        "batch-open",
        "hidden-64 FABNet and Transformer models, predict_batch of 8, 2 saturating callers: forward pass, batcher, scheduler. Poisson arrivals at 0.3-1.2 of saturation (queueing): notes and traced run only",
    ),
    (
        "longseq-offline",
        "no serving stack: batch-1 forwards of FABNet, FNet and Transformer at seq 128-1024 in f32 and int8, the paper's own axis; kernels are all of the time",
    ),
    (
        "train-codesign",
        "the same kernels backward (tape, optimizer) in train steps, then the co-design sweep end to end; a forward-only change that slows backward shows here",
    ),
];

/// A metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, bound: Some(bound) }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: true, bound: None }
}

/// End-to-end metrics. Every workload reports every one of them (the
/// driver's contract), so each is a role a workload fills in its own way;
/// `README.md` has the per-workload definitions.
///
/// There is no `p95_ms` among them: over four sets of ten runs its spread on
/// `batch-open` was 19-31 %, beyond any bound the contract allows (the
/// issue's rule: a metric that cannot hold its bound is not gated). Every
/// untraced run still prints it, as a note.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("p50_ms", "ms", false, 0.25),
    e2e("throughput", "1/s", true, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.20),
    e2e("setup_s", "s", false, 0.25),
];

/// The bound `compare` holds each workload to, in [`END_TO_END`] order: the
/// widest spread of the sets of ten repeated runs on the seed's host (the
/// numbers are in `README.md`) rounded up to the next 5 %, at least the
/// issue's default of 10 % and at most the contract's 25 %. `BENCHMARK.json`
/// has room for one bound per metric, so it carries each column's largest.
pub const COMPARE_BOUNDS: [[f64; 4]; 4] = [
    [0.15, 0.10, 0.10, 0.25],
    [0.25, 0.25, 0.20, 0.25],
    [0.25, 0.25, 0.10, 0.25],
    [0.25, 0.20, 0.10, 0.25],
];

/// [`COMPARE_BOUNDS`] by name; 0 for a pairing that does not exist.
pub fn compare_bound(workload: &str, metric: &str) -> f64 {
    let row = WORKLOADS.iter().position(|w| w.0 == workload);
    let column = END_TO_END.iter().position(|m| m.name == metric);
    row.zip(column).map_or(0.0, |(r, c)| COMPARE_BOUNDS[r][c])
}

/// Per-layer metrics, reported by the traced run. Layers are crate names.
pub const PER_LAYER: &[MetricDef] = &[
    // rayon (vendor shim): one empty 2-item parallel call.
    lower("rayon.par_call_us", "us"),
    // tensor: kernels at the shapes longseq-offline runs them.
    lower("tensor.matmul_us", "us"),
    higher("tensor.matmul_gflops", "GFLOP/s"),
    lower("tensor.attn_matmul_us", "us"),
    higher("tensor.attn_matmul_gflops", "GFLOP/s"),
    lower("tensor.softmax_rows_us", "us"),
    lower("tensor.layer_norm_rows_us", "us"),
    lower("tensor.gelu_us", "us"),
    lower("tensor.q8_gemm_us", "us"),
    higher("tensor.q8_gemm_gops", "GOP/s"),
    lower("tensor.q8_quantize_us", "us"),
    // butterfly
    lower("butterfly.forward_rows_us", "us"),
    higher("butterfly.forward_rows_gflops", "GFLOP/s"),
    lower("butterfly.fourier_mix_us", "us"),
    lower("butterfly.backward_rows_us", "us"),
    // nn: whole forwards at seq 1024, the component replay, training split.
    lower("nn.forward_us.fabnet", "us"),
    lower("nn.forward_us.fnet", "us"),
    lower("nn.forward_us.transformer", "us"),
    lower("nn.share.embed.fabnet", "%"),
    lower("nn.share.proj.fabnet", "%"),
    lower("nn.share.mixing.fabnet", "%"),
    lower("nn.share.ffn.fabnet", "%"),
    lower("nn.share.layernorm.fabnet", "%"),
    lower("nn.share.head.fabnet", "%"),
    lower("nn.share.unaccounted.fabnet", "%"),
    lower("nn.share.embed.fnet", "%"),
    lower("nn.share.proj.fnet", "%"),
    lower("nn.share.mixing.fnet", "%"),
    lower("nn.share.ffn.fnet", "%"),
    lower("nn.share.layernorm.fnet", "%"),
    lower("nn.share.head.fnet", "%"),
    lower("nn.share.unaccounted.fnet", "%"),
    lower("nn.share.embed.transformer", "%"),
    lower("nn.share.proj.transformer", "%"),
    lower("nn.share.mixing.transformer", "%"),
    lower("nn.share.ffn.transformer", "%"),
    lower("nn.share.layernorm.transformer", "%"),
    lower("nn.share.head.transformer", "%"),
    lower("nn.share.unaccounted.transformer", "%"),
    lower("nn.flops.fabnet", "count"),
    lower("nn.flops.transformer", "count"),
    higher("nn.gflops.fabnet", "GFLOP/s"),
    higher("nn.gflops.transformer", "GFLOP/s"),
    lower("nn.train_fwd_us", "us"),
    lower("nn.train_bwd_us", "us"),
    lower("nn.train_opt_us", "us"),
    lower("nn.train_step_us.fabnet", "us"),
    lower("nn.train_step_us.transformer", "us"),
    // quant
    lower("quant.forward_us", "us"),
    higher("quant.quantized_fraction", "fraction"),
    lower("quant.calibrate_ms", "ms"),
    higher("quant.argmax_agreement", "fraction"),
    // serve: ladder rungs 0 and 1, server-side accounting, batching.
    lower("serve.session_us", "us"),
    lower("serve.server_us", "us"),
    lower("serve.overhead_us", "us"),
    lower("serve.queue_wait_us", "us"),
    lower("serve.service_us", "us"),
    higher("serve.batch_occupancy", "count"),
    lower("serve.batches", "count"),
    lower("serve.rejected", "count"),
    lower("serve.shed_expired", "count"),
    lower("serve.worker_restarts", "count"),
    lower("serve.batch1_us_per_seq", "us"),
    lower("serve.batch8_us_per_seq", "us"),
    // fleet: rung 2.
    lower("fleet.e2e_us", "us"),
    lower("fleet.submit_us", "us"),
    lower("fleet.overhead_us", "us"),
    lower("fleet.interactive_p50_us", "us"),
    lower("fleet.batch_p50_us", "us"),
    lower("fleet.quota_rejected", "count"),
    // fabd: rung 3, codec probes, connection cost, boots.
    lower("fabd.http_us", "us"),
    lower("fabd.overhead_us", "us"),
    lower("fabd.json_parse_us", "us"),
    lower("fabd.json_render_us", "us"),
    lower("fabd.http_read_us", "us"),
    lower("fabd.http_write_us", "us"),
    lower("fabd.socket_us", "us"),
    lower("fabd.connect_us", "us"),
    lower("fabd.bytes_per_req", "count"),
    lower("fabd.cpu_us_per_req", "us"),
    lower("fabd.p99_ms", "ms"),
    lower("fabd.cold_boot_s", "s"),
    lower("fabd.warm_boot_s", "s"),
    // store
    lower("store.encode_ms", "ms"),
    lower("store.decode_ms", "ms"),
    lower("store.save_ms", "ms"),
    lower("store.load_ms", "ms"),
    lower("store.bytes_per_model", "count"),
    // lra / core
    lower("lra.generate_us_per_sample", "us"),
    lower("core.pipeline_run_ms", "ms"),
    // accel / codesign: simulated values repeat exactly; host times do not.
    lower("accel.simulated_ms.fabnet_1024", "ms"),
    lower("accel.simulated_butterfly_share", "%"),
    lower("accel.sim_us", "us"),
    lower("codesign.points", "count"),
    lower("codesign.feasible", "count"),
    lower("codesign.chosen_id", "count"),
    lower("codesign.heuristic_sweep_ms", "ms"),
    lower("codesign.trained_sweep_ms", "ms"),
    // loadgen: validity of the replayed workload's numbers.
    lower("loadgen.lateness_p95_ms.r1", "ms"),
    lower("loadgen.lateness_p95_ms.r2", "ms"),
    lower("loadgen.lateness_p95_ms.r3", "ms"),
    lower("loadgen.sent", "count"),
    higher("loadgen.ok", "count"),
    lower("loadgen.failed", "count"),
    lower("trace_overhead_pct", "%"),
    // The replayed workload seen from the trace: open-loop latency per rate
    // and the highest rate inside the SLO (batch-open; 0 elsewhere), and
    // the share of traced wall time spent in each layer's own code.
    lower("batch.p50_ms.r1", "ms"),
    lower("batch.p50_ms.r2", "ms"),
    lower("batch.p50_ms.r3", "ms"),
    lower("batch.p95_ms.r1", "ms"),
    lower("batch.p95_ms.r2", "ms"),
    lower("batch.p95_ms.r3", "ms"),
    higher("batch.max_rate_in_slo", "1/s"),
    lower("replay.share.loadgen", "%"),
    lower("replay.share.fabd", "%"),
    lower("replay.share.serve_queue", "%"),
    lower("replay.share.serve_service", "%"),
    lower("replay.share.nn_forward", "%"),
    lower("replay.share.nn_train", "%"),
    lower("replay.share.codesign", "%"),
];

// --- small-closed -----------------------------------------------------------

/// Distinct requests in the pool the callers cycle through.
pub const SMALL_POOL: usize = 4096;
pub const SMALL_MIN_LEN: usize = 8;
pub const SMALL_MAX_LEN: usize = 32;
/// Latency percentiles and throughput are taken per segment of this length.
pub const SMALL_SEGMENT_S: f64 = 1.0;
/// Cold boots timed per run; `setup_s` is their median.
pub const SMALL_SETUPS: usize = 15;

// --- batch-open -------------------------------------------------------------

pub const BATCH_POOL: usize = 240;
pub const BATCH_SEQS_PER_REQUEST: usize = 8;
pub const BATCH_MIN_LEN: usize = 16;
pub const BATCH_MAX_LEN: usize = 128;
pub const BATCH_HIDDEN: usize = 64;
pub const BATCH_LAYERS: usize = 2;
pub const BATCH_HEADS: usize = 4;
pub const BATCH_SEQ_LEN: usize = 128;
/// Open-loop rates in sequences per second: near 0.3, 0.6 and 1.2 of the
/// seed's saturation throughput `S` (see README for how `S` was measured).
pub const BATCH_RATES: [f64; 3] = [200.0, 400.0, 800.0];
/// Latency limit on the median-segment p95, near 3x the seed's p50 at R1.
pub const BATCH_SLO_MS: f64 = 60.0;
/// The untraced run alternates an open-loop slice at `BATCH_RATES[0]` and a
/// closed-loop saturation slice this many times.
pub const BATCH_SLICES: usize = 10;
/// Share of each round spent in the open-loop slice (its latency is a note;
/// the gated numbers come from the saturation slice).
pub const BATCH_OPEN_SHARE: f64 = 0.5;
pub const BATCH_SETUPS: usize = 5;

// --- longseq-offline --------------------------------------------------------

pub const LONGSEQ_HIDDEN: usize = 128;
pub const LONGSEQ_LAYERS: usize = 2;
pub const LONGSEQ_HEADS: usize = 4;
pub const LONGSEQ_FFN_RATIO: usize = 4;
pub const LONGSEQ_VOCAB: usize = 256;
pub const LONGSEQ_SEQS: [usize; 3] = [128, 512, 1024];
/// Seed of the (untrained) model weights; inputs come from `--seed`.
pub const LONGSEQ_MODEL_SEED: u64 = 0xfab;
/// The headline cell (FABNet, fastmath f32, seq 1024) runs this many times
/// per grid pass so its p95 has samples beyond it.
pub const LONGSEQ_HEADLINE_REPS: usize = 5;
pub const LONGSEQ_CALIBRATION_LENS: [usize; 4] = [128, 256, 512, 1024];
/// Sequences (seq 128) the output check runs through every model.
pub const LONGSEQ_CHECK_SEQS: usize = 16;
/// Least share of check sequences on which the fastmath / int8 argmax must
/// equal the exact-f32 argmax; frozen below the seed's observed minimum.
pub const LONGSEQ_MIN_AGREEMENT_FAST: f64 = 1.0;
pub const LONGSEQ_MIN_AGREEMENT_INT8: f64 = 0.75;
pub const LONGSEQ_SETUPS: usize = 5;

// --- train-codesign ---------------------------------------------------------

pub const TRAIN_EXAMPLES: usize = 256;
pub const TRAIN_SEQ_LEN: usize = 64;
pub const TRAIN_HIDDEN: usize = 64;
pub const TRAIN_LAYERS: usize = 2;
pub const TRAIN_HEADS: usize = 4;
pub const TRAIN_LEARNING_RATE: f32 = 2e-3;
/// Each round trains FABNet, then the Transformer, for this long each, and
/// then runs one co-design sweep (about 0.4 s).
pub const TRAIN_SLICE_S: f64 = 0.3;
pub const CODESIGN_SEQ_LEN: usize = 1024;
pub const CODESIGN_THREADS: usize = 2;
pub const CODESIGN_MAX_ACCURACY_LOSS: f64 = 0.05;
pub const TRAIN_SETUPS: usize = 15;

fn metric_json(m: &MetricDef) -> Json {
    let mut obj = vec![
        ("name".to_string(), Json::Str(m.name.to_string())),
        ("unit".to_string(), Json::Str(m.unit.to_string())),
        (
            "better".to_string(),
            Json::Str(if m.higher_is_better { "higher" } else { "lower" }.to_string()),
        ),
    ];
    if let Some(b) = m.bound {
        obj.push(("bound".to_string(), Json::Num(b)));
    }
    Json::Obj(obj)
}

/// The document `BENCHMARK.json` holds.
pub fn benchmark_json() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str(s.to_string())).collect());
    Json::Obj(vec![
        (
            "command".to_string(),
            strs(&[
                "cargo",
                "run",
                "--quiet",
                "--release",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".to_string(), strs(&["benchmark"])),
        ("run_seconds".to_string(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".to_string(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::Str(name.to_string())),
                            ("why".to_string(), Json::Str(why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end".to_string(), Json::Arr(END_TO_END.iter().map(metric_json).collect())),
        ("per_layer".to_string(), Json::Arr(PER_LAYER.iter().map(metric_json).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()), "{} per-layer metrics", PER_LAYER.len());
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit_ok(m.unit), "bad unit {} on {}", m.unit, m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        for (_, why) in &WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "why too long: {}", why.len());
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        for (c, m) in END_TO_END.iter().enumerate() {
            let column = COMPARE_BOUNDS.iter().map(|row| row[c]).fold(0.0, f64::max);
            assert_eq!(m.bound, Some(column), "{} carries its column's largest bound", m.name);
            assert!(COMPARE_BOUNDS.iter().all(|row| row[c] >= 0.10));
        }
        assert_eq!(compare_bound("small-closed", "p50_ms"), 0.15);
        assert_eq!(compare_bound("small-closed", "p95_ms"), 0.0);
        assert_eq!(compare_bound("batch-open", "peak_rss_mb"), 0.20);
        assert!(benchmark_json().to_string().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_printed_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert!(
            on_disk == benchmark_json(),
            "BENCHMARK.json is stale: print it again with `benchmark spec`"
        );
    }
}
