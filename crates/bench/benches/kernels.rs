//! Micro-benchmarks of the core computational kernels: FFT, butterfly linear
//! transform (factorised vs dense), Fourier token mixing, and the butterfly
//! memory-access analysis. These quantify the O(n log n) vs O(n^2) gap that
//! underlies the paper's algorithmic savings.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fab_accel::memory::{Layout, TransformAccessReport};
use fab_butterfly::fft::fft_real;
use fab_butterfly::{fourier_mix, ButterflyMatrix};
use fab_tensor::Tensor;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn bench(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("kernels");
    group.sample_size(20);

    // FFT of a 1024-point signal (the padded hidden size of FABNet-Base).
    let signal: Vec<f32> = (0..1024).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    group.bench_function("fft_1024", |b| b.iter(|| fft_real(black_box(&signal))));

    // Butterfly linear transform vs dense mat-vec at n = 1024.
    let n = 1024;
    let butterfly = ButterflyMatrix::random(n, &mut rng).unwrap();
    let dense = butterfly.to_dense();
    let x: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let x_row = Tensor::from_vec(x.clone(), &[1, n]).unwrap();
    group.bench_function("butterfly_forward_1024", |b| b.iter(|| butterfly.forward(black_box(&x))));
    group.bench_function("dense_matvec_1024", |b| {
        b.iter(|| black_box(&x_row).matmul(black_box(&dense)))
    });

    // FNet-style Fourier mixing of a [256, 256] tile.
    let tile = Tensor::from_vec(
        (0..256 * 256).map(|i| ((i * 37 % 101) as f32) * 0.01).collect(),
        &[256, 256],
    )
    .unwrap();
    group.bench_function("fourier_mix_256x256", |b| b.iter(|| fourier_mix(black_box(&tile))));

    // Bank-conflict analysis of the butterfly memory layout.
    group.bench_function("memory_analysis_1024x16banks", |b| {
        b.iter(|| TransformAccessReport::analyze(Layout::Butterfly, 1024, 16))
    });

    group.finish();

    bench_matmul_serial_vs_parallel(c, &mut rng);
    bench_butterfly_rows_serial_vs_parallel(c, &mut rng);
    bench_dense_vs_butterfly(c, &mut rng);
    bench_backward_kernels(c, &mut rng);
    bench_train_step(c, &mut rng);
    bench_simd_kernels(c, &mut rng);
}

/// PR-4: the dispatched SIMD kernels against the scalar backend — fastmath
/// exp/tanh/gelu slices and softmax/layer-norm rows, from cache-resident to
/// streaming sizes. Toggles the process-global backend per measurement
/// (criterion runs benches sequentially, so this is race-free).
fn bench_simd_kernels(c: &mut Criterion, rng: &mut StdRng) {
    use fab_tensor::simd::{self, Backend};
    let mut group = c.benchmark_group("simd_vs_scalar");
    group.sample_size(20);
    let native = simd::default_backend();
    let mut backends = vec![("scalar", Backend::Scalar)];
    if native.is_simd() {
        backends.push((native.name(), native));
    }
    for n in [64usize, 256, 1024, 4096] {
        let x: Vec<f32> = (0..n).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
        let mut out = vec![0.0f32; n];
        for &(bname, backend) in &backends {
            for (kname, f) in [
                ("exp", fab_tensor::fastmath::exp_fast_slice as fn(&[f32], &mut [f32])),
                ("tanh", fab_tensor::fastmath::tanh_fast_slice),
                ("gelu", fab_tensor::fastmath::gelu_fast_slice),
            ] {
                simd::force_backend(backend);
                group.bench_function(format!("fastmath_{kname}_{n}_{bname}"), |b| {
                    b.iter(|| f(black_box(&x), black_box(&mut out)))
                });
            }
        }
    }
    for n in [64usize, 256, 1024, 4096] {
        let rows = (1 << 18) / n; // constant element count across sizes
        let t = random_tensor(rng, &[rows, n]);
        let gamma = random_tensor(rng, &[n]);
        let beta = random_tensor(rng, &[n]);
        let mut out = Tensor::zeros(&[rows, n]);
        for &(bname, backend) in &backends {
            simd::force_backend(backend);
            group.bench_function(format!("softmax_rows_{rows}x{n}_{bname}"), |b| {
                b.iter(|| black_box(&t).softmax_rows_into(black_box(&mut out)))
            });
            group.bench_function(format!("layer_norm_rows_{rows}x{n}_{bname}"), |b| {
                b.iter(|| {
                    black_box(&t).layer_norm_rows_into(
                        black_box(&gamma),
                        black_box(&beta),
                        1e-5,
                        black_box(&mut out),
                    )
                })
            });
        }
    }
    simd::force_backend(simd::default_backend());
    group.finish();
}

/// The backward kernels of the training path — the lane-per-row butterfly
/// backward (eight rows per tile, every stage one vertical operation)
/// against the scalar per-row oracle that takes the same sums in the same
/// order, and the dense matmul-gradient pair at the same sizes for contrast
/// — from cache-resident to memory-bound transforms.
fn bench_backward_kernels(c: &mut Criterion, rng: &mut StdRng) {
    let mut group = c.benchmark_group("backward_kernels");
    group.sample_size(10);
    let rows = 128usize;
    for n in [64usize, 256, 1024] {
        let bfly = ButterflyMatrix::random(n, rng).unwrap();
        let x = random_tensor(rng, &[rows, n]);
        let g = random_tensor(rng, &[rows, n]);
        group.bench_function(format!("butterfly_backward_reference_{rows}x{n}"), |bch| {
            bch.iter(|| bfly.backward_rows_reference(black_box(&x), black_box(&g)))
        });
        group.bench_function(format!("butterfly_backward_lanes_{rows}x{n}"), |bch| {
            bch.iter(|| bfly.backward_rows(black_box(&x), black_box(&g)))
        });
        // Dense gradients (dX = g Wᵀ, dW = xᵀ g) at the same size.
        let w = random_tensor(rng, &[n, n]);
        group.bench_function(format!("dense_backward_{rows}x{n}"), |bch| {
            bch.iter(|| {
                let dx = black_box(&g).matmul(&black_box(&w).transpose());
                let dw = black_box(&x).transpose().matmul(black_box(&g));
                (dx, dw)
            })
        });
    }
    group.finish();
}

/// PR-3: full training steps — reused arena tape + fused AdamW against the
/// seed loop (fresh tape, reference backward, reference Adam) — for a dense
/// Transformer and a butterfly FABNet.
fn bench_train_step(c: &mut Criterion, rng: &mut StdRng) {
    use fab_nn::{Adam, FusedAdamW, Model, ModelConfig, ModelKind, Optimizer, TrainStep};
    let mut group = c.benchmark_group("train_step");
    group.sample_size(10);
    let config = ModelConfig {
        hidden: 64,
        ffn_ratio: 4,
        num_layers: 2,
        num_abfly: 1,
        num_heads: 4,
        vocab_size: 64,
        max_seq: 64,
        num_classes: 10,
    };
    let tokens: Vec<usize> = (0..64).map(|i| (i * 7 + 1) % 64).collect();
    for kind in [ModelKind::Transformer, ModelKind::FabNet] {
        let model = Model::new(&config, kind, rng);
        let mut reference_opt = Adam::new(1e-3);
        group.bench_function(format!("{}_reference_step", kind.name()), |bch| {
            bch.iter(|| {
                let (tape, loss, bindings) = model.loss(black_box(&tokens), 3);
                tape.backward_reference(loss);
                reference_opt.step(&tape, &bindings);
                tape.value_scalar(loss)
            })
        });
        let mut step = TrainStep::new(FusedAdamW::new(1e-3));
        group.bench_function(format!("{}_fused_step", kind.name()), |bch| {
            bch.iter(|| step.step(&model, black_box(&tokens), 3))
        });
    }
    group.finish();
}

/// PR-1: the blocked+parallel matmul against the naive serial seed kernel,
/// across sizes from cache-resident to memory-bound.
fn bench_matmul_serial_vs_parallel(c: &mut Criterion, rng: &mut StdRng) {
    let mut group = c.benchmark_group("matmul_serial_vs_parallel");
    group.sample_size(10);
    for n in [64usize, 128, 256, 512, 1024] {
        let a = random_tensor(rng, &[n, n]);
        let b = random_tensor(rng, &[n, n]);
        group.bench_function(format!("reference_{n}x{n}"), |bch| {
            bch.iter(|| black_box(&a).matmul_reference(black_box(&b)))
        });
        group.bench_function(format!("blocked_parallel_{n}x{n}"), |bch| {
            bch.iter(|| black_box(&a).matmul(black_box(&b)))
        });
    }
    group.finish();
}

/// PR-1: row-batched butterfly forward/backward against the per-row path.
fn bench_butterfly_rows_serial_vs_parallel(c: &mut Criterion, rng: &mut StdRng) {
    let mut group = c.benchmark_group("butterfly_rows");
    group.sample_size(10);
    for (rows, n) in [(64usize, 256usize), (256, 512), (256, 1024)] {
        let bfly = ButterflyMatrix::random(n, rng).unwrap();
        let x = random_tensor(rng, &[rows, n]);
        let g = random_tensor(rng, &[rows, n]);
        group.bench_function(format!("forward_per_row_{rows}x{n}"), |bch| {
            bch.iter(|| {
                // The seed's per-row path: gather, transform, scatter.
                let mut out = Tensor::zeros(&[rows, n]);
                for r in 0..rows {
                    let row: Vec<f32> = (0..n).map(|c| x.at(r, c)).collect();
                    let y = bfly.forward(black_box(&row));
                    for (cc, v) in y.into_iter().enumerate() {
                        out.set(r, cc, v);
                    }
                }
                out
            })
        });
        group.bench_function(format!("forward_rows_batched_{rows}x{n}"), |bch| {
            bch.iter(|| bfly.forward_rows(black_box(&x)))
        });
        group.bench_function(format!("backward_rows_batched_{rows}x{n}"), |bch| {
            bch.iter(|| bfly.backward_rows(black_box(&x), black_box(&g)))
        });
    }
    group.finish();
}

/// The paper's core claim at kernel level: O(n log n) butterfly vs O(n^2)
/// dense linear maps over a whole activation batch, up to n = 4096.
fn bench_dense_vs_butterfly(c: &mut Criterion, rng: &mut StdRng) {
    let mut group = c.benchmark_group("dense_vs_butterfly");
    group.sample_size(10);
    let rows = 64usize;
    for n in [256usize, 1024, 4096] {
        let bfly = ButterflyMatrix::random(n, rng).unwrap();
        let x = random_tensor(rng, &[rows, n]);
        group.bench_function(format!("butterfly_rows_{rows}x{n}"), |bch| {
            bch.iter(|| bfly.forward_rows(black_box(&x)))
        });
        // Dense weights at n = 4096 are 64 MB; sample the matmul only up to
        // 1024 to keep the bench runtime sane, the asymptotics are visible
        // well before that.
        if n <= 1024 {
            let dense = random_tensor(rng, &[n, n]);
            group.bench_function(format!("dense_rows_{rows}x{n}"), |bch| {
                bch.iter(|| black_box(&x).matmul(black_box(&dense)))
            });
        }
    }
    group.finish();
}

fn random_tensor(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let volume: usize = shape.iter().product();
    Tensor::from_vec((0..volume).map(|_| rng.gen_range(-1.0f32..1.0)).collect(), shape)
        .expect("random tensor shape")
}

criterion_group!(benches, bench);
criterion_main!(benches);
