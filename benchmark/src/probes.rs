//! The traced run: per-layer probes, the serving ladder, and a traced
//! replay of the named workload.
//!
//! Everything is measured from outside. A probe times the benchmark's own
//! call into a crate's public function at the shapes the workloads run it;
//! the ladder sends one request mix into the stack at four depths so each
//! layer's cost is a subtraction; the replay re-runs the workload for a
//! third of its length with a span around every such call. Layer probes
//! are the same whichever workload is named, so every traced run reports
//! every per-layer metric; the `replay.*`, `loadgen.*` and `batch.*`
//! metrics describe the named workload (0 where it has no such phase).

use crate::host::process_cpu_s;
use crate::loadgen::{closed_loop, open_loop, Outcome, Transport};
use crate::mix::{poisson_schedule, request_mix, Request, SplitMix};
use crate::report::{nums, obj, Opts, RunOutput};
use crate::serving::{
    self, reference_sessions, small_config, small_mix_spec, FleetTransport, Rig, ServerFields,
    ServerTransport, SessionTransport,
};
use crate::spec;
use crate::stats::{median, segment_percentiles};
use crate::trace::{ladder_self_times, self_time_by_name, Trace};
use crate::workloads::{
    batch_open, count, longseq_offline as longseq, sequences_ok, train_codesign as train,
};
use fab_accel::workload::LayerSchedule;
use fab_accel::{AcceleratorConfig, Simulator};
use fab_butterfly::{fourier_mix, fourier_mix_into, ButterflyMatrix};
use fab_codesign::{run_codesign, DesignSpace, HeuristicAccuracy, TrainedAccuracy};
use fab_fleet::Fleet;
use fab_lra::{LraTask, TaskConfig};
use fab_nn::{
    attention_mix_rows, flops::flops_breakdown, Bindings, FrozenMixing, FrozenModel, FusedAdamW,
    ModelKind, Optimizer,
};
use fab_serve::{Server, SessionScratch};
use fab_store::{decode_artifact, encode_artifact, Store};
use fab_tensor::{simd, Tape, Tensor};
use fabd::http::{read_request, read_response, write_request, write_response, Response};
use fabd::Json;
use rand::{rngs::StdRng, SeedableRng};
use rayon::prelude::*;
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A probe's time box, shortened with the run in smoke mode.
fn budget(opts: &Opts, seconds: f64) -> f64 {
    seconds * (opts.seconds / spec::RUN_SECONDS as f64).min(1.0)
}

/// Calls `f` once to warm up, then repeatedly for `budget_s` (at least
/// five times); returns the median call's microseconds.
fn time_us(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    let mut us = Vec::new();
    while us.len() < 5 || (t0.elapsed().as_secs_f64() < budget_s && us.len() < 200_000) {
        let t = Instant::now();
        f();
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

fn random_tensor(rng: &mut SplitMix, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols).map(|_| (rng.unit() * 2.0 - 1.0) as f32).collect();
    Tensor::from_vec(data, &[rows, cols]).expect("probe tensor shape")
}

// --- rayon, tensor, butterfly ------------------------------------------------

/// Kernel probes at the shapes `longseq-offline` runs them (seq 1024,
/// hidden 128, FFN 512, 4 heads). FLOPs and bytes are computed from the
/// shapes, not measured.
fn kernels(opts: &Opts, out: &mut RunOutput) {
    let b = budget(opts, 0.25);
    let mut rng = SplitMix::stream(opts.seed, 10);
    let (seq, hidden, ffn) =
        (1024, spec::LONGSEQ_HIDDEN, spec::LONGSEQ_HIDDEN * spec::LONGSEQ_FFN_RATIO);
    let head_dim = hidden / spec::LONGSEQ_HEADS;

    out.set_one("rayon.par_call_us", time_us(b, || (0..2usize).into_par_iter().for_each(|_| {})));

    let gflops = |flops: f64, us: f64| flops / (us * 1e3);
    let (x, w) = (random_tensor(&mut rng, seq, hidden), random_tensor(&mut rng, hidden, ffn));
    let mut y = Tensor::zeros(&[seq, ffn]);
    let us = time_us(b, || x.matmul_into(&w, &mut y));
    out.set_one("tensor.matmul_us", us);
    out.set_one("tensor.matmul_gflops", gflops(2.0 * (seq * hidden * ffn) as f64, us));

    let (q, kt) = (random_tensor(&mut rng, seq, head_dim), random_tensor(&mut rng, head_dim, seq));
    let mut scores = Tensor::zeros(&[seq, seq]);
    let us = time_us(b, || q.matmul_into(&kt, &mut scores));
    out.set_one("tensor.attn_matmul_us", us);
    out.set_one("tensor.attn_matmul_gflops", gflops(2.0 * (seq * head_dim * seq) as f64, us));

    let mut probs = Tensor::zeros(&[seq, seq]);
    out.set_one("tensor.softmax_rows_us", time_us(b, || scores.softmax_rows_into(&mut probs)));
    let (gamma, beta) = (Tensor::ones(&[hidden]), Tensor::zeros(&[hidden]));
    let mut normed = Tensor::zeros(&[seq, hidden]);
    out.set_one(
        "tensor.layer_norm_rows_us",
        time_us(b, || x.layer_norm_rows_into(&gamma, &beta, 1e-5, &mut normed)),
    );
    out.set_one("tensor.gelu_us", time_us(b, || drop(std::hint::black_box(y.gelu_fastmath()))));

    let mut qx = vec![0i8; seq * hidden];
    out.set_one(
        "tensor.q8_quantize_us",
        time_us(b, || simd::q8_quantize_slice(x.as_slice(), 127.0, &mut qx)),
    );
    let mut qw = vec![0i8; ffn * hidden];
    simd::q8_quantize_slice(w.transpose().as_slice(), 127.0, &mut qw);
    let mut acc = vec![0i32; seq * ffn];
    let us = time_us(b, || simd::q8_gemm_i32(&qx, &qw, hidden, ffn, &mut acc));
    out.set_one("tensor.q8_gemm_us", us);
    out.set_one("tensor.q8_gemm_gops", gflops(2.0 * (seq * hidden * ffn) as f64, us));

    let bfly = ButterflyMatrix::random(hidden, &mut StdRng::seed_from_u64(opts.seed))
        .expect("power-of-two butterfly");
    let mut by = Tensor::zeros(&[seq, hidden]);
    let us = time_us(b, || bfly.forward_rows_into(&x, &mut by));
    out.set_one("butterfly.forward_rows_us", us);
    out.set_one(
        "butterfly.forward_rows_gflops",
        gflops(fab_butterfly::flops::butterfly_linear_flops(seq, hidden) as f64, us),
    );
    let mut mixed = Tensor::zeros(&[seq, hidden]);
    out.set_one("butterfly.fourier_mix_us", time_us(b, || fourier_mix_into(&x, &mut mixed)));
    // Backward at the training shape of `train-codesign` (64 rows).
    let (tx, tg) = (
        random_tensor(&mut rng, spec::TRAIN_SEQ_LEN, hidden),
        random_tensor(&mut rng, spec::TRAIN_SEQ_LEN, hidden),
    );
    out.set_one(
        "butterfly.backward_rows_us",
        time_us(b, || drop(std::hint::black_box(bfly.backward_rows(&tx, &tg)))),
    );
}

// --- nn: forward, component replay, quant ------------------------------------

/// The frozen forward of one sequence rebuilt from the model's public
/// pieces, one span per component under a `nn.forward.replay` parent.
/// Must return logits bit-identical to `FrozenModel::logits`.
fn replay_forward(m: &FrozenModel, tokens: &[usize], request: u64, trace: &mut Trace) -> Vec<f32> {
    let hidden = m.config().hidden;
    let fast = m.fast_math();
    trace.span(request, 0, "nn.forward.replay", |trace, parent| {
        let mut x = trace.span(request, parent, "nn.embed", |_, _| {
            let (tok, pos) = (m.tok_table().as_slice(), m.pos_table().as_slice());
            let mut x = vec![0.0f32; tokens.len() * hidden];
            for (j, (row, &id)) in x.chunks_mut(hidden).zip(tokens).enumerate() {
                let (t, p) =
                    (&tok[id * hidden..(id + 1) * hidden], &pos[j * hidden..(j + 1) * hidden]);
                for ((d, &t), &p) in row.iter_mut().zip(t).zip(p) {
                    *d = t + p;
                }
            }
            Tensor::from_vec(x, &[tokens.len(), hidden]).expect("embedding shape")
        });
        for block in m.blocks() {
            let mixed = match block.mixing() {
                FrozenMixing::Attention(a) => {
                    let (q, k, v) = trace.span(request, parent, "nn.proj", |_, _| {
                        let q = a.wq().forward(&x);
                        let q = if fast {
                            q.scale(1.0 / ((a.dim() / a.num_heads()) as f32).sqrt())
                        } else {
                            q
                        };
                        (q, a.wk().forward(&x), a.wv().forward(&x))
                    });
                    let mixed = trace.span(request, parent, "nn.mixing", |_, _| {
                        let mut mixed = vec![0.0f32; x.len()];
                        attention_mix_rows(&q, &k, &v, a.num_heads(), fast, &mut mixed);
                        Tensor::from_vec(mixed, &[x.rows(), a.dim()]).expect("attention shape")
                    });
                    trace.span(request, parent, "nn.proj", |_, _| a.wo().forward(&mixed))
                }
                FrozenMixing::Fourier => {
                    trace.span(request, parent, "nn.mixing", |_, _| fourier_mix(&x))
                }
            };
            let x1 = trace.span(request, parent, "nn.layernorm", |_, _| {
                block.ln1().forward_residual(&x, &mixed)
            });
            let f = trace.span(request, parent, "nn.ffn", |_, _| block.ffn().forward(&x1, fast));
            x = trace.span(request, parent, "nn.layernorm", |_, _| {
                block.ln2().forward_residual(&x1, &f)
            });
        }
        trace.span(request, parent, "nn.head", |_, _| {
            let mut pooled = vec![0.0f32; hidden];
            for row in x.as_slice().chunks(hidden) {
                for (d, &v) in pooled.iter_mut().zip(row) {
                    *d += v;
                }
            }
            for d in &mut pooled {
                *d /= tokens.len() as f32;
            }
            let pooled = Tensor::from_vec(pooled, &[1, hidden]).expect("pooled shape");
            m.head().forward(&pooled).into_vec()
        })
    })
}

const NN_COMPONENTS: [(&str, &str); 6] = [
    ("embed", "nn.embed"),
    ("proj", "nn.proj"),
    ("mixing", "nn.mixing"),
    ("ffn", "nn.ffn"),
    ("layernorm", "nn.layernorm"),
    ("head", "nn.head"),
];

fn nn_and_quant(opts: &Opts, out: &mut RunOutput, trace: &mut Trace) -> Vec<longseq::Arch> {
    let mut rng = SplitMix::stream(opts.seed, 11);
    let archs = longseq::build_archs(&mut rng);
    let seq = longseq::headline().seq;
    let tokens = rng.tokens(seq, spec::LONGSEQ_VOCAB);
    let config = longseq::model_config();
    for a in &archs {
        let us = time_us(budget(opts, 0.8), || {
            std::hint::black_box(a.fast.logits_batch_flat(&tokens, &[seq], seq));
        });
        out.set_one(&format!("nn.forward_us.{}", a.name), us);
        if a.kind != ModelKind::FNet {
            let flops = flops_breakdown(&config, a.kind, seq).total() as f64;
            out.set_one(&format!("nn.flops.{}", a.name), flops);
            out.set_one(&format!("nn.gflops.{}", a.name), flops / (us * 1e3));
        }

        // Component replay: shares of the replayed forward's own duration.
        let mut local = Trace::new(Instant::now(), true);
        let reps = if opts.smoke { 2 } else { 5 };
        let mut identical = true;
        for r in 0..reps {
            let logits = replay_forward(&a.fast, &tokens, r, &mut local);
            identical &= logits.iter().map(|x| x.to_bits()).eq(a
                .fast
                .logits(&tokens)
                .iter()
                .map(|x| x.to_bits()));
        }
        out.check(
            identical,
            &format!("{}: replayed logits bit-identical to FrozenModel::logits", a.name),
        );
        let own = self_time_by_name(&local.spans);
        let total: f64 =
            local.spans.iter().filter(|s| s.parent == 0).map(|s| s.duration_us()).sum();
        for (short, span) in NN_COMPONENTS {
            let share = 100.0 * own.get(span).copied().unwrap_or(0.0) / total;
            out.set_one(&format!("nn.share.{short}.{}", a.name), share);
        }
        out.set_one(
            &format!("nn.share.unaccounted.{}", a.name),
            100.0 * own.get("nn.forward.replay").copied().unwrap_or(0.0) / total,
        );
        trace.absorb(local);
    }

    let tfm = archs.iter().find(|a| a.kind == ModelKind::Transformer).expect("transformer arch");
    out.set_one(
        "quant.forward_us",
        time_us(budget(opts, 0.8), || {
            std::hint::black_box(tfm.int8.logits_batch_flat(&tokens, &[seq], seq));
        }),
    );
    out.set_one("quant.quantized_fraction", tfm.int8.quantized_fraction());
    out.set_one("quant.calibrate_ms", tfm.calibrate_s * 1e3);
    let agreement = longseq::check_outputs(&archs, opts.seed, out);
    out.set_one(
        "quant.argmax_agreement",
        agreement.iter().map(|(_, _, int8)| *int8).fold(1.0, f64::min),
    );
    archs
}

// --- nn: training split --------------------------------------------------------

/// `TrainStep::step` taken apart: forward (`loss_on`), `Tape::backward`
/// and the optimizer update timed separately, as spans under a
/// `nn.train_step` parent. Returns each part's per-step microseconds.
struct SplitTrainer {
    model: fab_nn::Model,
    tape: Tape,
    bindings: Bindings,
    optimizer: FusedAdamW,
    next: usize,
    steps: u64,
}

impl SplitTrainer {
    fn new(seed: u64) -> Self {
        Self {
            model: train::new_model(ModelKind::FabNet, seed),
            tape: Tape::new(),
            bindings: Bindings::new(),
            optimizer: FusedAdamW::new(spec::TRAIN_LEARNING_RATE),
            next: 0,
            steps: 0,
        }
    }

    /// One step; returns the loss.
    fn step(&mut self, data: &[fab_lra::Sample], trace: &mut Trace) -> f32 {
        let s = &data[self.next % data.len()];
        self.next += 1;
        self.steps += 1;
        let request = self.steps;
        let Self { model, tape, bindings, optimizer, .. } = self;
        trace.span(request, 0, "nn.train_step", |trace, parent| {
            let loss = trace.span(request, parent, "nn.train_fwd", |_, _| {
                tape.reset();
                bindings.clear();
                model.loss_on(tape, bindings, &s.tokens, s.label)
            });
            trace.span(request, parent, "nn.train_bwd", |_, _| tape.backward(loss));
            trace.span(request, parent, "nn.train_opt", |_, _| optimizer.step(tape, bindings));
            tape.value_scalar(loss)
        })
    }
}

fn span_median_us(trace: &Trace, name: &str) -> f64 {
    median(
        &trace.spans.iter().filter(|s| s.name == name).map(|s| s.duration_us()).collect::<Vec<_>>(),
    )
}

fn train_split(opts: &Opts, out: &mut RunOutput) {
    let data = train::examples(opts.seed);
    let mut split = SplitTrainer::new(opts.seed);
    let mut local = Trace::new(Instant::now(), true);
    let t = Instant::now();
    let mut losses = Vec::new();
    while losses.len() < 32 || t.elapsed().as_secs_f64() < budget(opts, 0.8) {
        losses.push(split.step(&data, &mut local));
    }
    out.check(losses.iter().all(|l| l.is_finite()), "split train step: every loss finite");
    for part in ["nn.train_fwd", "nn.train_bwd", "nn.train_opt"] {
        out.set_one(&format!("{part}_us"), span_median_us(&local, part));
    }
    for (kind, name) in [(ModelKind::FabNet, "fabnet"), (ModelKind::Transformer, "transformer")] {
        let mut trainee = train::Trainee::new(kind, opts.seed);
        let t = Instant::now();
        let mut us = Vec::new();
        while us.len() < 32 || t.elapsed().as_secs_f64() < budget(opts, 0.6) {
            us.push(trainee.step(&data) * 1e3);
        }
        // Skip the allocating first steps.
        out.set_one(&format!("nn.train_step_us.{name}"), median(&us[16..]));
    }
}

// --- serving ladder, codec, connection cost -------------------------------------

fn latencies_us(outcomes: &[Outcome]) -> Vec<f64> {
    outcomes.iter().map(|o| (o.done_s - o.sent_s) * 1e6).collect()
}

/// Runs `transports` closed-loop over `pool` for `seconds` after a short
/// warm-up; returns the transports, outcomes and the median latency (µs).
fn rung<T: Transport>(
    transports: Vec<T>,
    pool: &[Request],
    origin: Instant,
    seconds: f64,
    out: &mut RunOutput,
) -> (Vec<T>, Vec<Outcome>, f64) {
    let (transports, _) =
        closed_loop(transports, pool, 0, origin, Duration::from_secs_f64(seconds / 4.0));
    let (transports, outcomes) =
        closed_loop(transports, pool, pool.len() / 3, origin, Duration::from_secs_f64(seconds));
    count(out, &outcomes);
    let us = median(&latencies_us(&outcomes));
    (transports, outcomes, us)
}

fn record_spans(
    trace: &mut Trace,
    name: &'static str,
    outcomes: &[Outcome],
    parent_name: Option<&'static str>,
) {
    // The pool index is the request id, so spans of the same request at
    // different rungs share it.
    for o in outcomes {
        let request = o.index as u64;
        let parent = match parent_name {
            Some(p) => trace.record(request, 0, p, o.at_s * 1e6, o.done_s * 1e6),
            None => 0,
        };
        trace.record(request, parent, name, o.sent_s * 1e6, o.done_s * 1e6);
    }
}

fn take_fields(transports: Vec<serving::HttpTransport>) -> ServerFields {
    let mut all = ServerFields::default();
    for t in transports {
        if let Some(f) = t.fields {
            all.absorb(f);
        }
    }
    all
}

/// Sums the serving counters of every model of a daemon.
fn server_counters(daemon: &fabd::Daemon, out: &mut RunOutput) {
    let stats = daemon.stats();
    let sum =
        |f: &dyn Fn(&fab_serve::ServerStats) -> f64| stats.iter().map(|(_, s)| f(s)).sum::<f64>();
    let batches = sum(&|s| s.batches as f64);
    out.set_one("serve.batches", batches);
    out.set_one(
        "serve.batch_occupancy",
        sum(&|s| s.mean_batch_occupancy * s.batches as f64) / batches.max(1.0),
    );
    out.set_one("serve.rejected", sum(&|s| s.rejected as f64));
    out.set_one("serve.shed_expired", sum(&|s| s.shed_expired as f64));
    out.set_one("serve.worker_restarts", sum(&|s| s.worker_restarts as f64));
}

/// The share-of-wall-time metrics of a serving replay: what part of each
/// request's due-to-done interval was generator lateness, queueing and
/// service inside `fab-serve` (from the response fields), and the rest
/// (HTTP, JSON, sockets, fleet admission).
fn serving_shares(out: &mut RunOutput, outcomes: &[Outcome], fields: &ServerFields) {
    let total: f64 = outcomes.iter().map(|o| o.done_s - o.at_s).sum::<f64>() * 1e6;
    let late: f64 = outcomes.iter().map(Outcome::lateness_s).sum::<f64>() * 1e6;
    let (queue, service) =
        (fields.queue_wait_us.iter().sum::<f64>(), fields.service_us.iter().sum::<f64>());
    let pct = |v: f64| 100.0 * v / total.max(1e-9);
    out.set_one("replay.share.loadgen", pct(late));
    out.set_one("replay.share.serve_queue", pct(queue));
    out.set_one("replay.share.serve_service", pct(service));
    out.set_one("replay.share.fabd", pct(total - late - queue - service));
}

fn loadgen_totals(out: &mut RunOutput, outcomes: &[Outcome]) {
    let ok = outcomes.iter().filter(|o| o.ok).count();
    out.set_one("loadgen.sent", outcomes.len() as f64);
    out.set_one("loadgen.ok", ok as f64);
    out.set_one("loadgen.failed", (outcomes.len() - ok) as f64);
}

/// The `small-closed` request mix sent into the stack at four depths.
/// When `small-closed` is the named workload the rung-3 run doubles as its
/// traced replay.
fn ladder(opts: &Opts, out: &mut RunOutput, trace: &mut Trace, origin: Instant) {
    let config = small_config();
    let rig = Rig::new(&config, &small_mix_spec(&config), opts.seed, spec::SMALL_POOL, 1);
    // Rungs 0-2 run on sessions built independently of the daemon's.
    let sessions = Arc::new(reference_sessions(&config));
    let seconds = budget(opts, 2.0);
    let senders = 0..spec::SENDERS;

    let session_transports = senders
        .clone()
        .map(|_| SessionTransport {
            sessions: Arc::clone(&sessions),
            scratch: SessionScratch::new(),
            judge: rig.judge.clone(),
        })
        .collect();
    let (_, outcomes, session_us) = rung(session_transports, &rig.pool, origin, seconds, out);
    record_spans(trace, "serve.session", &outcomes, None);

    let servers: Vec<Server> =
        sessions.iter().map(|s| Server::start(s.clone(), config.serve_config())).collect();
    let server_transports = senders
        .clone()
        .map(|_| ServerTransport {
            handles: servers.iter().map(Server::handle).collect(),
            judge: rig.judge.clone(),
        })
        .collect();
    let (_, outcomes, server_us) = rung(server_transports, &rig.pool, origin, seconds, out);
    record_spans(trace, "serve.server", &outcomes, None);
    servers.into_iter().for_each(Server::shutdown);

    let fleet = Arc::new(Fleet::new(config.fleet_config()));
    for (p, s) in config.profiles.iter().zip(sessions.iter()) {
        fleet.load(p.spec(), s.clone()).expect("fleet load");
    }
    let fleet_transports = |n: std::ops::Range<usize>| -> Vec<FleetTransport> {
        n.map(|_| FleetTransport {
            fleet: Arc::clone(&fleet),
            judge: rig.judge.clone(),
            submit_us: vec![],
        })
        .collect()
    };
    let (back, outcomes, fleet_us) =
        rung(fleet_transports(senders.clone()), &rig.pool, origin, seconds, out);
    record_spans(trace, "fleet", &outcomes, None);
    out.set_one(
        "fleet.submit_us",
        median(&back.into_iter().flat_map(|t| t.submit_us).collect::<Vec<_>>()),
    );
    // The mix is all interactive; a short slice of the same requests in the
    // batch class gives that class's latency on the same fleet.
    let batch_pool: Vec<Request> =
        rig.pool.iter().take(512).map(|r| Request { interactive: false, ..r.clone() }).collect();
    let (_, batch_outcomes) = closed_loop(
        fleet_transports(senders.clone()),
        &batch_pool,
        0,
        origin,
        Duration::from_secs_f64(seconds / 4.0),
    );
    count(out, &batch_outcomes);
    let classes = fleet.class_latency();
    let class_p50 =
        |name: &str| classes.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, s)| s.p50_us as f64);
    out.set_one("fleet.interactive_p50_us", class_p50("interactive"));
    out.set_one("fleet.batch_p50_us", class_p50("batch"));
    out.set_one(
        "fleet.quota_rejected",
        fleet.tenant_stats().iter().map(|t| t.quota_rejected as f64).sum(),
    );
    fleet.shutdown();

    // Rung 3, untraced half then traced half (response fields collected):
    // the difference is the tracing overhead.
    let (_, _, http_plain_us) = rung(rig.http(false), &rig.pool, origin, seconds / 2.0, out);
    let cpu_before = process_cpu_s();
    let (back, outcomes, http_us) = rung(rig.http(true), &rig.pool, origin, seconds, out);
    let cpu_us = (process_cpu_s() - cpu_before) * 1e6;
    record_spans(trace, "fabd.http", &outcomes, None);
    let fields = take_fields(back);

    out.set_one("serve.session_us", session_us);
    out.set_one("serve.server_us", server_us);
    out.set_one("fleet.e2e_us", fleet_us);
    out.set_one("fabd.http_us", http_us);
    let own = ladder_self_times(&[session_us, server_us, fleet_us, http_us]);
    out.set_one("serve.overhead_us", own[1]);
    out.set_one("fleet.overhead_us", own[2]);
    out.set_one("fabd.overhead_us", own[3]);
    out.set_one("serve.queue_wait_us", median(&fields.queue_wait_us));
    out.set_one("serve.service_us", median(&fields.service_us));
    // Process CPU (daemon and the two callers share this process) per
    // request, warm-up requests included in both numerator and denominator.
    let requests = outcomes.len() as f64 * 1.25;
    out.set_one("fabd.cpu_us_per_req", cpu_us / requests.max(1.0));
    let samples: Vec<_> = outcomes.iter().map(Outcome::sample).collect();
    let from = outcomes.first().map_or(0.0, |o| o.at_s);
    out.set_one("fabd.p99_ms", median(&segment_percentiles(&samples, from, 1.0, 0.99)) * 1e3);

    // A new connection per request: what one accept + connection thread costs.
    let reconnecting: Vec<serving::HttpTransport> = rig
        .http(false)
        .into_iter()
        .map(|mut t| {
            t.reconnect = Some(rig.addr.clone());
            t
        })
        .collect();
    let (_, _, reconnect_us) = rung(reconnecting, &rig.pool, origin, seconds / 2.0, out);
    out.set_one("fabd.connect_us", reconnect_us - http_us);

    let codec_us = codec(opts, out, &rig);
    out.set_one("fabd.socket_us", own[3] - codec_us);

    // `batch-open` reports its replay's serving counters instead.
    if opts.workload != "batch-open" {
        server_counters(&rig.daemon, out);
    }
    if opts.workload == "small-closed" {
        serving_shares(out, &outcomes, &fields);
        loadgen_totals(out, &outcomes);
        out.set_one("trace_overhead_pct", overhead_pct(http_us, http_plain_us));
    }
    rig.daemon.shutdown();
}

/// Codec probes on the workload's real bodies: the JSON and HTTP framing
/// work one `predict` exchange costs both sides, measured in memory.
/// Returns their sum in microseconds.
fn codec(opts: &Opts, out: &mut RunOutput, rig: &Rig) -> f64 {
    let n = 64;
    // Request bodies as `FabClient::predict` renders them; response bodies
    // in the daemon's prediction shape, from the expected answers.
    let requests: Vec<Json> = rig.pool[..n]
        .iter()
        .map(|r| {
            obj(vec![
                ("model", Json::Str(rig.judge.names[r.model].clone())),
                (
                    "tokens",
                    Json::Arr(r.sequences[0].iter().map(|&t| Json::Num(t as f64)).collect()),
                ),
            ])
        })
        .collect();
    let responses: Vec<Json> = rig.pool[..n]
        .iter()
        .zip(rig.judge.expected.iter())
        .map(|(r, e)| {
            let name = &rig.judge.names[r.model];
            obj(vec![
                ("model", Json::Str(name.clone())),
                ("served_by", Json::Str(name.clone())),
                ("degraded", Json::Bool(false)),
                ("class", Json::Num(e[0].class as f64)),
                (
                    "logits",
                    Json::Arr(e[0].logits.iter().map(|&l| Json::Num(f64::from(l))).collect()),
                ),
                ("queue_wait_us", Json::Num(512.0)),
                ("service_us", Json::Num(48.0)),
                ("batch_size", Json::Num(1.0)),
            ])
        })
        .collect();
    let request_text: Vec<String> = requests.iter().map(Json::to_string).collect();
    let response_text: Vec<String> = responses.iter().map(Json::to_string).collect();
    let mut request_wire: Vec<Vec<u8>> = Vec::new();
    let mut response_wire: Vec<Vec<u8>> = Vec::new();
    for (q, a) in request_text.iter().zip(&response_text) {
        let mut buf = Vec::new();
        write_request(&mut buf, "POST", "/v1/predict", &[], q.as_bytes()).expect("in-memory write");
        request_wire.push(buf);
        let mut buf = Vec::new();
        write_response(&mut buf, &Response::json(200, a), true).expect("in-memory write");
        response_wire.push(buf);
    }
    let bytes: usize = request_wire.iter().chain(&response_wire).map(Vec::len).sum::<usize>() / n;
    out.set_one("fabd.bytes_per_req", bytes as f64);

    // Each probe handles all `n` exchanges per call; report per exchange.
    let b = budget(opts, 0.2);
    let per = |us: f64| us / n as f64;
    let parse = per(time_us(b, || {
        for t in request_text.iter().chain(&response_text) {
            std::hint::black_box(Json::parse(t).expect("probe JSON parses"));
        }
    }));
    let render = per(time_us(b, || {
        for v in requests.iter().chain(&responses) {
            std::hint::black_box(v.to_string());
        }
    }));
    let read = per(time_us(b, || {
        for w in &request_wire {
            let req = read_request(&mut BufReader::new(w.as_slice()), 1 << 20);
            std::hint::black_box(req.expect("probe request reads"));
        }
        for w in &response_wire {
            let resp = read_response(&mut BufReader::new(w.as_slice()), 1 << 20);
            std::hint::black_box(resp.expect("probe response reads"));
        }
    }));
    let mut sink = Vec::with_capacity(4096);
    let write = per(time_us(b, || {
        for (q, a) in request_text.iter().zip(&response_text) {
            sink.clear();
            write_request(&mut sink, "POST", "/v1/predict", &[], q.as_bytes()).expect("write");
            write_response(&mut sink, &Response::json(200, a), true).expect("write");
        }
    }));
    out.set_one("fabd.json_parse_us", parse);
    out.set_one("fabd.json_render_us", render);
    out.set_one("fabd.http_read_us", read);
    out.set_one("fabd.http_write_us", write);
    parse + render + read + write
}

/// What batching can buy at kernel level: one `batch-open` session, eight
/// sequences one at a time against the same eight as one batch.
fn batching(opts: &Opts, out: &mut RunOutput) {
    let config = serving::batch_config();
    let session = config.profiles[1].build_session(false);
    let mix = request_mix(&serving::batch_mix_spec(&config), opts.seed, 1);
    let seqs: Vec<&[usize]> = mix[0].sequences.iter().map(Vec::as_slice).collect();
    let pad_to = seqs.iter().map(|s| s.len()).max().expect("eight sequences");
    let mut scratch = SessionScratch::new();
    let b = budget(opts, 0.4);
    let single = time_us(b, || {
        for s in &seqs {
            std::hint::black_box(session.logits_batch(&[s], s.len(), &mut scratch));
        }
    });
    let batched = time_us(b, || {
        std::hint::black_box(session.logits_batch(&seqs, pad_to, &mut scratch));
    });
    out.set_one("serve.batch1_us_per_seq", single / seqs.len() as f64);
    out.set_one("serve.batch8_us_per_seq", batched / seqs.len() as f64);
}

// --- boots, store, lra, core ------------------------------------------------------

/// A scratch directory inside the checkout, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = PathBuf::from(format!("benchmark/results/tmp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch directory under benchmark/results");
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn boots_and_store(opts: &Opts, out: &mut RunOutput) {
    // Cold boot trains and persists; the second boot restores snapshots.
    let dir = TempDir::new("snap");
    let mut config = serving::batch_config();
    config.snapshot_dir = Some(dir.0.to_string_lossy().into_owned());
    let (daemon, cold_s) = serving::boot(&config);
    daemon.shutdown();
    let (daemon, warm_s) = serving::boot(&config);
    daemon.shutdown();
    out.set_one("fabd.cold_boot_s", cold_s);
    out.set_one("fabd.warm_boot_s", warm_s);

    let profile = &config.profiles[1];
    let artifact = profile.build_artifact();
    let meta = vec![(fab_store::FINGERPRINT_KEY.to_string(), profile.fingerprint())];
    let b = budget(opts, 0.2);
    let bytes = encode_artifact(&artifact, &meta);
    out.set_one("store.bytes_per_model", bytes.len() as f64);
    out.set_one(
        "store.encode_ms",
        time_us(b, || drop(std::hint::black_box(encode_artifact(&artifact, &meta)))) / 1e3,
    );
    out.set_one(
        "store.decode_ms",
        time_us(b, || drop(std::hint::black_box(decode_artifact(&bytes).expect("decodes")))) / 1e3,
    );
    let store_dir = TempDir::new("store");
    let store = Store::open(&store_dir.0).expect("store opens");
    out.set_one(
        "store.save_ms",
        time_us(b, || {
            store.save("probe", &artifact, &meta).expect("saves");
        }) / 1e3,
    );
    out.set_one(
        "store.load_ms",
        time_us(b, || {
            drop(store.load_last_good("probe", Some(&profile.fingerprint())).expect("loads"))
        }) / 1e3,
    );
    let restored = store.load_last_good("probe", None).expect("loads").artifact;
    let probe = [1usize, 2, 3, 4, 5, 6, 7, 8];
    let same = profile.session_from_artifact(&restored, false).logits(&probe)
        == profile.session_from_artifact(&artifact, false).logits(&probe);
    out.check(same, "snapshot round trip keeps logits bit-identical");
}

fn lra_and_core(opts: &Opts, out: &mut RunOutput) {
    let task = TaskConfig { seq_len: spec::BATCH_SEQ_LEN };
    let n = 64;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let us = time_us(budget(opts, 0.2), || {
        std::hint::black_box(LraTask::Text.generate(&task, n, &mut rng));
    });
    out.set_one("lra.generate_us_per_sample", us / n as f64);
    // `TrainingPipeline::run` of one `batch-open` profile (fab-fast).
    let p = &serving::batch_config().profiles[1];
    let model = fab_nn::ModelConfig {
        hidden: p.hidden,
        ffn_ratio: 2,
        num_layers: p.layers,
        num_abfly: 0,
        num_heads: p.heads,
        vocab_size: p.task.vocab_size(),
        max_seq: p.seq_len,
        num_classes: p.task.num_classes(),
    };
    let pipeline = fabnet::pipeline::TrainingPipeline::new(p.task, p.seq_len, p.seed)
        .with_examples(p.train_examples, p.test_examples)
        .with_epochs(p.epochs);
    let us =
        time_us(budget(opts, 0.5), || drop(std::hint::black_box(pipeline.run(&model, p.arch))));
    out.set_one("core.pipeline_run_ms", us / 1e3);
}

// --- accel, codesign -----------------------------------------------------------------

/// Simulated values come from an analytic model that is not validated
/// against hardware: they are reported to sit beside the measured
/// `nn.share.*`, with no error figure, and must repeat exactly.
fn accel_and_codesign(opts: &Opts, out: &mut RunOutput) {
    let schedule = LayerSchedule::from_model(&longseq::model_config(), ModelKind::FabNet, 1024);
    let simulator = Simulator::new(AcceleratorConfig::vcu128_fabnet());
    let report = simulator.simulate(&schedule);
    let again = simulator.simulate(&schedule);
    out.check(
        report.total_cycles == again.total_cycles
            && report.butterfly_cycles == again.butterfly_cycles,
        "accelerator simulation repeats exactly",
    );
    out.set_one("accel.simulated_ms.fabnet_1024", report.total_ms());
    out.set_one(
        "accel.simulated_butterfly_share",
        100.0 * report.butterfly_cycles as f64 / report.total_cycles.max(1) as f64,
    );
    out.set_one(
        "accel.sim_us",
        time_us(budget(opts, 0.2), || drop(std::hint::black_box(simulator.simulate(&schedule)))),
    );

    let space = DesignSpace::tiny_for_tests();
    let options = train::codesign_options();
    let heuristic = run_codesign(&space, &HeuristicAccuracy::lra_text(), &options);
    out.set_one("codesign.points", space.enumerate().len() as f64);
    out.set_one("codesign.feasible", heuristic.points.len() as f64);
    out.set_one("codesign.chosen_id", train::chosen_id(&heuristic));
    out.set_one(
        "codesign.heuristic_sweep_ms",
        time_us(budget(opts, 0.2), || {
            drop(std::hint::black_box(run_codesign(
                &space,
                &HeuristicAccuracy::lra_text(),
                &options,
            )));
        }) / 1e3,
    );
    let estimator = TrainedAccuracy::tiny(LraTask::Text, opts.seed);
    let us = time_us(budget(opts, 1.0), || {
        let result = run_codesign(&space, &estimator, &options);
        std::hint::black_box(&result);
    });
    out.set_one("codesign.trained_sweep_ms", us / 1e3);
}

// --- traced replays ---------------------------------------------------------------------

/// By how many percent `traced` exceeds `plain`; 0 when a run too short to
/// produce a sample left `plain` at 0.
fn overhead_pct(traced: f64, plain: f64) -> f64 {
    if plain > 0.0 {
        100.0 * (traced - plain) / plain
    } else {
        0.0
    }
}

/// `batch-open` at every fixed rate, then saturated, with a span per
/// request (`loadgen.request`: due to done) over a span per exchange
/// (`fabd.predict_batch`: sent to done) and the response fields collected.
fn replay_batch_open(opts: &Opts, out: &mut RunOutput, trace: &mut Trace, origin: Instant) {
    let mut rig = batch_open::rig(opts, spec::BATCH_POOL / 4, 1);
    let phase_s = opts.seconds * 0.12;
    let (transports, _) =
        closed_loop(rig.http(true), &rig.pool, 0, origin, Duration::from_secs_f64(opts.warmup_s()));
    // Warm-up answers are not part of the replay's accounting.
    let mut transports: Vec<serving::HttpTransport> = transports
        .into_iter()
        .map(|mut t| {
            t.fields = Some(ServerFields::default());
            t
        })
        .collect();

    let mut next = 0;
    let mut all: Vec<Outcome> = Vec::new();
    let mut in_slo = 0.0f64;
    let mut phases = Vec::new();
    for (i, (&rate, tag)) in spec::BATCH_RATES.iter().zip(["r1", "r2", "r3"]).enumerate() {
        let due =
            poisson_schedule(opts.seed, 100 + i as u64, batch_open::request_rate(rate), phase_s);
        rig.mix_hash.add_schedule(&due);
        let (back, outcomes) = open_loop(transports, &rig.pool, next, origin, Instant::now(), &due);
        transports = back;
        next += outcomes.len();
        count(out, &outcomes);
        let p95 = batch_open::phase_ms(&outcomes, 0.95);
        let late = batch_open::lateness_p95_ms(&outcomes);
        let end_late = batch_open::lateness_p95_ms(batch_open::end_of_phase(&outcomes));
        let p50 = batch_open::phase_ms(&outcomes, 0.50);
        out.set_one(&format!("batch.p50_ms.{tag}"), p50);
        out.set_one(&format!("batch.p95_ms.{tag}"), p95);
        out.set_one(&format!("loadgen.lateness_p95_ms.{tag}"), late);
        if !outcomes.is_empty() && p95 <= spec::BATCH_SLO_MS && end_late <= spec::BATCH_SLO_MS {
            in_slo = in_slo.max(rate);
        }
        phases.push(obj(vec![
            ("rate_seq_per_s", Json::Num(rate)),
            ("sent", Json::Num(outcomes.len() as f64)),
            ("ok", Json::Num(outcomes.iter().filter(|o| o.ok).count() as f64)),
            ("p50_ms", Json::Num(p50)),
            ("p95_ms", Json::Num(p95)),
            ("lateness_p95_ms", Json::Num(late)),
            ("end_of_phase_lateness_p95_ms", Json::Num(end_late)),
        ]));
        record_spans(trace, "fabd.predict_batch", &outcomes, Some("loadgen.request"));
        all.extend(outcomes);
    }
    out.set_one("batch.max_rate_in_slo", in_slo);
    out.note("slo_ms", Json::Num(spec::BATCH_SLO_MS));
    out.note("open_loop_phases", Json::Arr(phases));

    let t = Instant::now();
    let (back, outcomes) =
        closed_loop(transports, &rig.pool, next, origin, Duration::from_secs_f64(phase_s));
    out.note(
        "saturation_seq_per_s",
        Json::Num(sequences_ok(&outcomes) / t.elapsed().as_secs_f64()),
    );
    count(out, &outcomes);
    record_spans(trace, "fabd.predict_batch", &outcomes, Some("loadgen.request"));
    all.extend(outcomes);

    let fields = take_fields(back);
    out.set_one("serve.queue_wait_us", median(&fields.queue_wait_us));
    out.set_one("serve.service_us", median(&fields.service_us));
    server_counters(&rig.daemon, out);
    serving_shares(out, &all, &fields);
    loadgen_totals(out, &all);

    // Tracing here is the response-field collection: R2 again with it off
    // and on, same schedule.
    let due =
        poisson_schedule(opts.seed, 200, batch_open::request_rate(spec::BATCH_RATES[1]), phase_s);
    let mut p50 = [0.0; 2];
    for (slot, collect) in [false, true].into_iter().enumerate() {
        let (_, outcomes) =
            open_loop(rig.http(collect), &rig.pool, next, origin, Instant::now(), &due);
        count(out, &outcomes);
        p50[slot] = batch_open::phase_ms(&outcomes, 0.50);
    }
    out.set_one("trace_overhead_pct", overhead_pct(p50[1], p50[0]));
    out.note("mix_hash", Json::Str(rig.mix_hash.hex()));
    rig.daemon.shutdown();
}

/// Grid passes with a `nn.forward` span around every forward, half of
/// them with the trace switched off to price the spans.
fn replay_longseq(
    opts: &Opts,
    out: &mut RunOutput,
    trace: &mut Trace,
    archs: &[longseq::Arch],
    origin: Instant,
) {
    let mut rng = SplitMix::stream(opts.seed, 3);
    let mut hash = crate::mix::MixHash::default();
    let inputs = longseq::Inputs::new(&mut rng, &mut hash);
    let order = longseq::pass_order();
    let head = longseq::headline();
    let replay_s = opts.seconds * spec::TRACE_SHARE;
    // Passes alternate between a switched-off and a recording trace, so the
    // host's speed changes hit both alike; the difference prices the spans.
    let mut head_ms = [Vec::new(), Vec::new()];
    let mut traces = [Trace::new(origin, false), Trace::new(origin, true)];
    let mut traced_wall = 0.0;
    let mut forwards = 0usize;
    let mut request = 0u64;
    let started = Instant::now();
    let mut pass = 0;
    while pass < 2 || started.elapsed().as_secs_f64() < replay_s {
        let slot = pass % 2;
        let t_pass = Instant::now();
        for cell in &order {
            let tokens = inputs.get(cell.seq, pass);
            request += 1;
            let t_cell = Instant::now();
            let logits =
                traces[slot].span(request, 0, "nn.forward", |_, _| cell.run(archs, tokens));
            if *cell == head {
                head_ms[slot].push(t_cell.elapsed().as_secs_f64() * 1e3);
            }
            out.attempted += 1;
            out.failed += u64::from(!logits.iter().all(|x| x.is_finite()));
            forwards += 1;
        }
        if slot == 1 {
            traced_wall += t_pass.elapsed().as_secs_f64() * 1e6;
        }
        pass += 1;
    }
    let [_, recorded] = traces;
    let busy: f64 = recorded.spans.iter().map(|s| s.duration_us()).sum();
    out.set_one("replay.share.nn_forward", 100.0 * busy / traced_wall);
    trace.absorb(recorded);
    let (plain, traced) = (median(&head_ms[0]), median(&head_ms[1]));
    out.set_one("trace_overhead_pct", overhead_pct(traced, plain));
    out.set_one("loadgen.sent", forwards as f64);
    out.set_one("loadgen.ok", forwards as f64 - out.failed as f64);
    out.set_one("loadgen.failed", out.failed as f64);
    out.note("mix_hash", Json::Str(hash.hex()));
    out.note("replay_wall_us", Json::Num(traced_wall));
}

/// Split train steps, then co-design sweeps, each under a span.
fn replay_train(opts: &Opts, out: &mut RunOutput, trace: &mut Trace, origin: Instant) {
    let data = train::examples(opts.seed);
    let part_s = opts.seconds * spec::TRACE_SHARE / 3.0;
    // Plain `TrainStep::step` and the split, spanned step take turns, so the
    // host's speed changes hit both alike; their difference prices the spans.
    let mut plain = train::Trainee::new(ModelKind::FabNet, opts.seed);
    let mut split = SplitTrainer::new(opts.seed);
    let mut local = Trace::new(origin, true);
    let t_traced = Instant::now();
    let mut plain_ms = Vec::new();
    let mut steps = 0usize;
    while steps < 32 || t_traced.elapsed().as_secs_f64() < 2.0 * part_s {
        plain_ms.push(plain.step(&data));
        let loss = split.step(&data, &mut local);
        out.attempted += 2;
        out.failed += u64::from(!loss.is_finite());
        steps += 1;
    }
    plain.check("replay fabnet", false, out);
    let plain_wall: f64 = plain_ms.iter().sum::<f64>() * 1e3;
    let space = DesignSpace::tiny_for_tests();
    let estimator = TrainedAccuracy::tiny(LraTask::Text, opts.seed);
    let options = train::codesign_options();
    let t_sweeps = Instant::now();
    let mut sweeps = 0u64;
    while sweeps == 0 || t_sweeps.elapsed().as_secs_f64() < part_s {
        sweeps += 1;
        let result = local
            .span(sweeps, 0, "codesign.sweep", |_, _| run_codesign(&space, &estimator, &options));
        train::check_sweep(&result, out);
    }
    // The untraced steps are not part of the traced wall time.
    let wall = t_traced.elapsed().as_secs_f64() * 1e6 - plain_wall;
    let busy = |name: &str| -> f64 {
        local.spans.iter().filter(|s| s.name == name).map(|s| s.duration_us()).sum()
    };
    out.set_one("replay.share.nn_train", 100.0 * busy("nn.train_step") / wall);
    out.set_one("replay.share.codesign", 100.0 * busy("codesign.sweep") / wall);
    let traced_ms = span_median_us(&local, "nn.train_step") / 1e3;
    let plain_ms = median(&plain_ms[16..]);
    out.set_one("trace_overhead_pct", overhead_pct(traced_ms, plain_ms));
    out.set_one("loadgen.sent", (steps as u64 + sweeps) as f64);
    out.set_one("loadgen.ok", (steps as u64 + sweeps) as f64);
    trace.absorb(local);
}

/// The whole traced run of `opts.workload`.
pub fn run(opts: &Opts) -> Option<RunOutput> {
    if !spec::WORKLOADS.iter().any(|(name, _)| *name == opts.workload) {
        return None;
    }
    let mut out = RunOutput::default();
    // Metrics a replay does not produce read 0.
    for d in spec::PER_LAYER {
        out.set_one(d.name, 0.0);
    }
    let origin = Instant::now();
    let mut trace = Trace::new(origin, true);

    kernels(opts, &mut out);
    let archs = nn_and_quant(opts, &mut out, &mut trace);
    train_split(opts, &mut out);
    batching(opts, &mut out);
    ladder(opts, &mut out, &mut trace, origin);
    boots_and_store(opts, &mut out);
    lra_and_core(opts, &mut out);
    accel_and_codesign(opts, &mut out);
    match opts.workload.as_str() {
        "batch-open" => replay_batch_open(opts, &mut out, &mut trace, origin),
        "longseq-offline" => replay_longseq(opts, &mut out, &mut trace, &archs, origin),
        "train-codesign" => replay_train(opts, &mut out, &mut trace, origin),
        _ => {}
    }

    let path = PathBuf::from(format!("benchmark/results/trace-{}.json", opts.workload));
    match trace.write(&path, &opts.workload, 20_000) {
        Ok(()) => out.note("trace_file", Json::Str(path.to_string_lossy().into_owned())),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    out.note("spans_recorded", Json::Num(trace.spans.len() as f64));
    out.note(
        "ladder_us",
        nums(&[
            out.value("serve.session_us"),
            out.value("serve.overhead_us"),
            out.value("fleet.overhead_us"),
            out.value("fabd.overhead_us"),
        ]),
    );
    out.note("peak_rss_mb", Json::Num(crate::host::peak_rss_mb()));
    Some(out)
}
