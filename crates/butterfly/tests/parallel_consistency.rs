//! The batched butterfly and FFT kernels against their per-vector and
//! `O(n²)` oracles, across odd row counts, non-square and padded shapes —
//! and bit for bit across worker-thread counts (`RAYON_NUM_THREADS`
//! 1/2/5/7) and SIMD backends (scalar vs native).

use fab_butterfly::fft::{dft_naive, fft, fft2_real};
use fab_butterfly::flops::{butterfly_linear_flops, fourier_mix_flops};
use fab_butterfly::{fourier_mix, fourier_mix_backward, ButterflyFfn, ButterflyMatrix, Complex};
use fab_tensor::simd::{self, with_backend, Backend};
use fab_tensor::{with_rayon_threads, Tensor, PAR_GRAIN_OPS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serialises tests that mutate `RAYON_NUM_THREADS` or the forced SIMD
/// backend, which are process-global.
static THREAD_ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under every thread count × backend combination and checks that
/// every run returns the bits of the first.
fn assert_same_bits_in_every_configuration(what: &str, f: impl Fn() -> Vec<f32>) {
    let _guard = THREAD_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut first: Option<Vec<u32>> = None;
    for backend in [Backend::Scalar, simd::default_backend()] {
        for threads in [1, 2, 5, 7] {
            let bits: Vec<u32> = with_backend(backend, || with_rayon_threads(threads, &f))
                .iter()
                .map(|v| v.to_bits())
                .collect();
            match &first {
                None => first = Some(bits),
                Some(expected) => assert!(
                    *expected == bits,
                    "{what}: {} backend with {threads} threads changed the output bits",
                    backend.name()
                ),
            }
        }
    }
}

fn random_vec(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// `max |a − b| / max |b|`: the normalised error the Fourier contract bounds.
fn normalised_error(a: &[f32], b: &[f64]) -> f64 {
    let scale = b.iter().fold(f64::MIN_POSITIVE, |m, v| m.max(v.abs()));
    a.iter().zip(b).map(|(x, y)| (*x as f64 - y).abs()).fold(0.0, f64::max) / scale
}

/// The real part of the 2-D DFT of a dense `[seq, hid]` grid, from
/// [`dft_naive`] along the rows and then along the columns.
fn dft2_real_oracle(x: &[f32], seq: usize, hid: usize) -> Vec<f64> {
    let mut grid: Vec<Complex> = x.iter().map(|&v| Complex::from(v)).collect();
    for row in grid.chunks_mut(hid) {
        row.copy_from_slice(&dft_naive(row));
    }
    for c in 0..hid {
        let col: Vec<Complex> = (0..seq).map(|r| grid[r * hid + c]).collect();
        for (r, v) in dft_naive(&col).into_iter().enumerate() {
            grid[r * hid + c] = v;
        }
    }
    grid.iter().map(|v| v.re as f64).collect()
}

fn filled(rows: usize, n: usize, salt: usize) -> Tensor {
    Tensor::from_vec(
        (0..rows * n).map(|i| (((i * 29 + salt * 13) % 991) as f32) * 0.011 - 5.4).collect(),
        &[rows, n],
    )
    .expect("valid shape")
}

/// An odd row count at which one size-`n` butterfly pass (the forward; the
/// backward counts three) reaches [`PAR_GRAIN_OPS`] — derived from the shared
/// constant so that moving the grain cannot silently turn the thread-count
/// comparisons below into serial-vs-serial.
fn grain_rows(n: usize) -> usize {
    (PAR_GRAIN_OPS.div_ceil(butterfly_linear_flops(1, n)) as usize) | 1
}

/// Reference 2-D real FFT built from 1-D transforms and an explicit strided
/// column walk (the seed's formulation).
fn fft2_real_reference(x: &[f32], seq: usize, hidden: usize) -> Vec<f32> {
    let mut grid: Vec<Complex> = x.iter().map(|&v| Complex::from(v)).collect();
    for r in 0..seq {
        let row: Vec<Complex> = fft(&grid[r * hidden..(r + 1) * hidden]);
        grid[r * hidden..(r + 1) * hidden].copy_from_slice(&row);
    }
    for c in 0..hidden {
        let col: Vec<Complex> = (0..seq).map(|r| grid[r * hidden + c]).collect();
        let col = fft(&col);
        for (r, v) in col.into_iter().enumerate() {
            grid[r * hidden + c] = v;
        }
    }
    grid.iter().map(|v| v.re).collect()
}

/// Row counts on both sides of the backward's 16-row tile and of a chunk's
/// four tiles.
const ROWS: [usize; 8] = [1, 15, 16, 17, 31, 33, 64, 65];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batched_forward_rows_matches_per_vector_forward(rows in 1usize..33, log_n in 1u32..7, seed in 0u64..500) {
        let n = 1usize << log_n;
        let mut rng = StdRng::seed_from_u64(seed);
        let bfly = ButterflyMatrix::random(n, &mut rng).unwrap();
        let x = filled(rows, n, seed as usize);
        let batched = bfly.forward_rows(&x);
        for r in 0..rows {
            let row: Vec<f32> = x.as_slice()[r * n..(r + 1) * n].to_vec();
            let reference = bfly.forward(&row);
            let got = &batched.as_slice()[r * n..(r + 1) * n];
            prop_assert!(got == reference.as_slice(), "row {r} diverged for {rows}x{n}");
        }
    }

    #[test]
    fn batched_backward_rows_matches_per_vector_backward(
        rows in (0..ROWS.len()).prop_map(|i| ROWS[i]), log_n in 1u32..13, seed in 0u64..500
    ) {
        let n = 1usize << log_n;
        let mut rng = StdRng::seed_from_u64(seed);
        let bfly = ButterflyMatrix::random(n, &mut rng).unwrap();
        let x = filled(rows, n, seed as usize);
        let g = filled(rows, n, seed as usize + 1);
        let (grad_x, grad_w) = bfly.backward_rows(&x, &g);
        let mut grad_w_reference = Tensor::zeros(&[bfly.num_stages(), 2 * n]);
        for r in 0..rows {
            let xrow = &x.as_slice()[r * n..(r + 1) * n];
            let grow = &g.as_slice()[r * n..(r + 1) * n];
            let (gx, gw) = bfly.backward(xrow, grow);
            prop_assert!(
                grad_x.as_slice()[r * n..(r + 1) * n] == gx[..],
                "input gradient row {r} diverged"
            );
            grad_w_reference = grad_w_reference.add(&gw);
        }
        // Weight gradients are reduced chunk-wise, so summation order (and
        // hence the last float bits) may differ from the running per-row sum
        // — by rounding relative to the sums, which reach the thousands at
        // n = 4096 — but not from the oracle's, which takes the same order.
        let near = grad_w
            .as_slice()
            .iter()
            .zip(grad_w_reference.as_slice())
            .all(|(a, b)| (a - b).abs() <= 1e-4 * (1.0 + b.abs()));
        prop_assert!(near, "weight gradients diverged");
        let (gx, gw) = bfly.backward_rows_reference(&x, &g);
        prop_assert!(
            bits(grad_x.as_slice()) == bits(gx.as_slice())
                && bits(grad_w.as_slice()) == bits(gw.as_slice()),
            "{rows}x{n}: the lane route left the oracle"
        );
    }

    #[test]
    fn parallel_fft2_matches_strided_reference(log_seq in 2u32..6, log_hid in 1u32..6, seed in 0u64..200) {
        let (seq, hidden) = (1usize << log_seq, 1usize << log_hid);
        let x: Vec<f32> = (0..seq * hidden)
            .map(|i| (((i * 37 + seed as usize * 11) % 613) as f32) * 0.017 - 5.2)
            .collect();
        let fast = fft2_real(&x, seq, hidden);
        let reference: Vec<f64> =
            fft2_real_reference(&x, seq, hidden).iter().map(|&v| v as f64).collect();
        let err = normalised_error(&fast, &reference);
        prop_assert!(err <= 1e-5, "{seq}x{hidden}: normalised error {err}");
    }
}

#[test]
fn large_batches_cross_the_parallel_threshold_and_stay_exact() {
    // Past the fan-out grain, with an odd, non-chunk-aligned row count.
    let mut rng = StdRng::seed_from_u64(99);
    let bfly = ButterflyMatrix::random(128, &mut rng).unwrap();
    let rows = grain_rows(128);
    let x = filled(rows, 128, 1);
    let batched = bfly.forward_rows(&x);
    for r in [0usize, 1, rows / 2, rows - 2, rows - 1] {
        let row = x.as_slice()[r * 128..(r + 1) * 128].to_vec();
        assert!(batched.as_slice()[r * 128..(r + 1) * 128] == bfly.forward(&row)[..]);
    }

    let mut seq = 128;
    while fourier_mix_flops(seq, 128) < PAR_GRAIN_OPS {
        seq *= 2;
    }
    let big: Vec<f32> = (0..seq * 128).map(|i| ((i % 331) as f32) * 0.01 - 1.6).collect();
    let fast = fft2_real(&big, seq, 128);
    let reference: Vec<f64> =
        fft2_real_reference(&big, seq, 128).iter().map(|&v| v as f64).collect();
    assert!(normalised_error(&fast, &reference) <= 1e-5);
}

/// The oracle of the padded backward: both pads materialised, the scalar
/// per-row reference, `dx` cut back to the `d_in` columns that exist.
fn padded_backward_oracle(bfly: &ButterflyMatrix, x: &Tensor, g: &Tensor) -> (Vec<f32>, Vec<f32>) {
    let (n, rows) = (bfly.size(), x.rows());
    let pad = |t: &Tensor| Tensor::from_vec(zero_padded(t, rows, n), &[rows, n]).unwrap();
    let (gx, gw) = bfly.backward_rows_reference(&pad(x), &pad(g));
    (truncated(gx.as_slice(), n, rows, x.cols()), gw.into_vec())
}

/// `backward_rows_padded_into` into zeroed buffers, `dx` then `dw`.
fn padded_backward(bfly: &ButterflyMatrix, x: &Tensor, g: &Tensor) -> (Vec<f32>, Vec<f32>) {
    let mut gx = vec![0.0f32; x.len()];
    let mut gw = vec![0.0f32; bfly.num_params()];
    bfly.backward_rows_padded_into(x, g, &mut gx, &mut gw);
    (gx, gw)
}

/// Every thread count × backend must reproduce the bits of the first
/// configuration, the scalar backend on a single rayon thread — and, for
/// the gradients, the bits of the scalar per-row oracle: whole, padded and
/// truncated, with row counts on both sides of every tile boundary.
#[test]
fn batched_kernels_match_with_a_single_rayon_thread() {
    let mut rng = StdRng::seed_from_u64(7);
    let bfly = ButterflyMatrix::random(64, &mut rng).unwrap();
    let rows = grain_rows(64);
    let x = filled(rows, 64, 2);
    let g = filled(rows, 64, 3);
    let reference = bfly.backward_rows_reference(&x, &g);
    assert_same_bits_in_every_configuration("forward_rows + backward_rows", || {
        let (gx, gw) = bfly.backward_rows(&x, &g);
        assert!(gx == reference.0 && gw == reference.1, "backward_rows left the oracle");
        [bfly.forward_rows(&x).into_vec(), gx.into_vec(), gw.into_vec()].concat()
    });

    for log_n in 1..=9 {
        let n = 1usize << log_n;
        let bfly = ButterflyMatrix::random(n, &mut rng).unwrap();
        let widths = [(n, n), (n - n / 4, n), (n, n / 2 + 1), ((n / 3).max(1), (n / 5).max(1))];
        for rows in [1, 7, 8, 9, 63, 64, 65, 1023] {
            for (d_in, d_out) in widths {
                let x = Tensor::from_vec(random_vec(rows * d_in, &mut rng), &[rows, d_in]).unwrap();
                let g =
                    Tensor::from_vec(random_vec(rows * d_out, &mut rng), &[rows, d_out]).unwrap();
                let (dx, dw) = padded_backward_oracle(&bfly, &x, &g);
                assert_same_bits_in_every_configuration("backward_rows_padded_into", || {
                    let (gx, gw) = padded_backward(&bfly, &x, &g);
                    assert_eq!(gx, dx, "dx left the oracle at n={n} rows={rows} {d_in}/{d_out}");
                    assert_eq!(gw, dw, "dw left the oracle at n={n} rows={rows} {d_in}/{d_out}");
                    [gx, gw].concat()
                });
            }
        }
    }
}

/// The weight gradient's summation order does not depend on whether a call
/// fans out: a batch made of one chunk of rows repeated `k` times has that
/// chunk's gradient added `k` times over, below the grain and above it — at
/// every thread count and backend, and with the oracle's bits.
#[test]
fn weight_gradient_order_is_the_same_on_both_sides_of_the_fan_out_grain() {
    for n in [16, 64, 128] {
        // Rows per chunk: `grad_chunk_rows` of `butterfly.rs`.
        let chunk_rows = ((1 << 13) / n).max(64);
        let grain_chunks =
            PAR_GRAIN_OPS.div_ceil(3 * butterfly_linear_flops(chunk_rows, n)) as usize;
        assert!(grain_chunks >= 3, "the grain moved below two chunks; pick a smaller n");
        let mut rng = StdRng::seed_from_u64(33);
        let bfly = ButterflyMatrix::random(n, &mut rng).unwrap();
        let (x, g) = (random_vec(chunk_rows * n, &mut rng), random_vec(chunk_rows * n, &mut rng));
        let repeated =
            |v: &[f32], k: usize| Tensor::from_vec(v.repeat(k), &[k * chunk_rows, n]).unwrap();
        let (_, one_chunk) = bfly.backward_rows(&repeated(&x, 1), &repeated(&g, 1));
        for chunks in [grain_chunks - 1, grain_chunks] {
            let (x, g) = (repeated(&x, chunks), repeated(&g, chunks));
            let mut expected = vec![0.0f32; one_chunk.len()];
            for _ in 0..chunks {
                expected.iter_mut().zip(one_chunk.as_slice()).for_each(|(e, c)| *e += c);
            }
            let oracle = bfly.backward_rows_reference(&x, &g).1;
            assert_eq!(oracle.as_slice(), expected, "oracle: {chunks} chunks of {chunk_rows} rows");
            assert_same_bits_in_every_configuration("backward_rows", || {
                let (_, gw) = bfly.backward_rows(&x, &g);
                assert_eq!(gw.as_slice(), expected, "n={n}: {chunks} chunks of {chunk_rows} rows");
                gw.into_vec()
            });
        }
    }
}

/// The fused layer — padded input, truncated output, bias — past the
/// fan-out grain with a row count that leaves a partial tile on every
/// backend, against the per-row `forward` with the bias spelled out.
#[test]
fn fused_butterfly_layer_is_bit_identical_at_every_thread_count_and_backend() {
    let mut rng = StdRng::seed_from_u64(21);
    for (n, d_in, d_out) in [(128usize, 128usize, 128usize), (512, 128, 512), (512, 500, 77)] {
        let bfly = ButterflyMatrix::random(n, &mut rng).unwrap();
        let rows = grain_rows(n);
        let x = filled(rows, d_in, n);
        let bias = random_vec(d_out, &mut rng);
        let mut expected = Vec::with_capacity(rows * d_out);
        for row in x.as_slice().chunks(d_in) {
            let mut padded = row.to_vec();
            padded.resize(n, 0.0);
            expected.extend(bfly.forward(&padded)[..d_out].iter().zip(&bias).map(|(v, b)| v + b));
        }
        assert_same_bits_in_every_configuration("forward_rows_fused_into", || {
            let mut out = Tensor::default();
            bfly.forward_rows_fused_into(&x, d_out, &bias, &mut out);
            assert!(
                out.as_slice().iter().map(|v| v.to_bits()).eq(expected.iter().map(|v| v.to_bits())),
                "fused layer diverged from the per-row chain at n={n}"
            );
            out.into_vec()
        });
    }
}

/// The butterfly FFN as one lane pass — the first map padded, GELU
/// between, the second map's input narrower than its butterfly when
/// `ffn < n` — past the fan-out grain, against the two fused layers with
/// `Tensor::gelu` between them.
#[test]
fn butterfly_ffn_is_bit_identical_at_every_thread_count_and_backend() {
    let mut rng = StdRng::seed_from_u64(22);
    for (n, hidden, ffn) in [(512usize, 128usize, 512usize), (64, 20, 60)] {
        let (up, down) = (
            ButterflyMatrix::random(n, &mut rng).unwrap(),
            ButterflyMatrix::random(n, &mut rng).unwrap(),
        );
        let (up_bias, down_bias) = (random_vec(ffn, &mut rng), random_vec(hidden, &mut rng));
        let rows = grain_rows(n);
        let x = filled(rows, hidden, n);
        let (mut act, mut expected) = (Tensor::default(), Tensor::default());
        up.forward_rows_fused_into(&x, ffn, &up_bias, &mut act);
        down.forward_rows_fused_into(&act.gelu(), hidden, &down_bias, &mut expected);
        let pass = ButterflyFfn::new(&up, &up_bias, &down, &down_bias);
        assert_same_bits_in_every_configuration("ButterflyFfn::forward_rows_into", || {
            let mut out = Tensor::default();
            pass.forward_rows_into(&x, &mut out);
            assert!(
                out.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(expected.as_slice().iter().map(|v| v.to_bits())),
                "the lane pass diverged from the two fused layers at n={n} ffn={ffn}"
            );
            out.into_vec()
        });
    }
}

const FOURIER_SIZES: [usize; 6] = [2, 4, 8, 64, 128, 1024];

/// `fft2_real` against the `dft_naive`-built 2-D oracle at every pairing of
/// the sizes above. A dense random grid is transformed naively where that
/// is affordable; the large shapes use a rank-3 grid `Σ u_k v_kᵀ`, whose
/// transform is `Σ dft(u_k) dft(v_k)ᵀ` — still two naive 1-D DFTs per term,
/// and still dense in every input and output position.
#[test]
fn fft2_real_matches_the_naive_dft_oracle_at_every_shape() {
    let mut rng = StdRng::seed_from_u64(42);
    let terms: Vec<Vec<(Vec<f32>, Vec<Complex>)>> = FOURIER_SIZES
        .iter()
        .map(|&n| {
            (0..6)
                .map(|_| {
                    let u = random_vec(n, &mut rng);
                    let spectrum =
                        dft_naive(&u.iter().map(|&v| Complex::from(v)).collect::<Vec<_>>());
                    (u, spectrum)
                })
                .collect()
        })
        .collect();
    for (si, &seq) in FOURIER_SIZES.iter().enumerate() {
        for (hi, &hid) in FOURIER_SIZES.iter().enumerate() {
            let (x, oracle) = if seq * hid * (seq + hid) <= 1 << 22 {
                let x = random_vec(seq * hid, &mut rng);
                let oracle = dft2_real_oracle(&x, seq, hid);
                (x, oracle)
            } else {
                let (mut x, mut oracle) = (vec![0.0f32; seq * hid], vec![0.0f64; seq * hid]);
                for k in 0..3 {
                    let ((u, us), (v, vs)) = (&terms[si][k], &terms[hi][3 + k]);
                    for s in 0..seq {
                        for h in 0..hid {
                            x[s * hid + h] += u[s] * v[h];
                            oracle[s * hid + h] += us[s].re as f64 * vs[h].re as f64
                                - us[s].im as f64 * vs[h].im as f64;
                        }
                    }
                }
                // The grid is the f32 sum the transform sees; the oracle is
                // the transform of the exact sum, equal to within rounding.
                (x, oracle)
            };
            let err = normalised_error(&fft2_real(&x, seq, hid), &oracle);
            assert!(err <= 1e-5, "{seq}x{hid}: normalised error {err}");
        }
    }
}

/// `x` zero-padded to `[pseq, phid]`.
fn zero_padded(x: &Tensor, pseq: usize, phid: usize) -> Vec<f32> {
    let mut padded = vec![0.0f32; pseq * phid];
    for (prow, row) in padded.chunks_mut(phid).zip(x.as_slice().chunks(x.cols())) {
        prow[..x.cols()].copy_from_slice(row);
    }
    padded
}

/// The top-left `[seq, hid]` corner of a `[_, phid]` grid.
fn truncated<T: Copy>(full: &[T], phid: usize, seq: usize, hid: usize) -> Vec<T> {
    full.chunks(phid).take(seq).flat_map(|row| row[..hid].to_vec()).collect()
}

/// Dimensions that are not powers of two (1 and 3 included, which pad to 2
/// and 4): the padding folded into the gather must give the bits of
/// padding explicitly, and both must match the oracle of the padded grid.
#[test]
fn non_power_of_two_fourier_mix_equals_explicit_pad_then_truncate() {
    let mut rng = StdRng::seed_from_u64(5);
    for (seq, hid) in
        [(1, 1), (1, 8), (8, 1), (3, 3), (3, 5), (6, 3), (100, 24), (37, 128), (600, 100)]
    {
        let x = Tensor::from_vec(random_vec(seq * hid, &mut rng), &[seq, hid]).unwrap();
        let (pseq, phid) = (fab_butterfly::next_pow2(seq), fab_butterfly::next_pow2(hid));
        let mixed = fourier_mix(&x);
        assert_eq!(mixed.shape(), &[seq, hid]);
        let padded = zero_padded(&x, pseq, phid);
        let explicit = truncated(&fft2_real(&padded, pseq, phid), phid, seq, hid);
        assert!(
            mixed.as_slice().iter().map(|v| v.to_bits()).eq(explicit.iter().map(|v| v.to_bits())),
            "{seq}x{hid}: folded padding changed bits"
        );
        let oracle = truncated(&dft2_real_oracle(&padded, pseq, phid), phid, seq, hid);
        let err = normalised_error(mixed.as_slice(), &oracle);
        assert!(err <= 1e-5, "{seq}x{hid}: normalised error {err}");
    }
}

/// `fourier_mix_backward` applies the forward transform to the gradient,
/// which is only right while the map is symmetric: `⟨F x, y⟩ = ⟨x, F y⟩`,
/// padded shapes included.
#[test]
fn fourier_mix_is_its_own_adjoint() {
    let mut rng = StdRng::seed_from_u64(17);
    for (seq, hid) in [(8, 4), (64, 32), (128, 64), (6, 3), (100, 24), (1024, 128)] {
        let x = Tensor::from_vec(random_vec(seq * hid, &mut rng), &[seq, hid]).unwrap();
        let y = Tensor::from_vec(random_vec(seq * hid, &mut rng), &[seq, hid]).unwrap();
        let dot = |a: &Tensor, b: &Tensor| -> f64 {
            a.as_slice().iter().zip(b.as_slice()).map(|(p, q)| *p as f64 * *q as f64).sum()
        };
        let (lhs, rhs) = (dot(&fourier_mix(&x), &y), dot(&x, &fourier_mix_backward(&y)));
        // Each side is a sum of seq·hid products of O(√(seq·hid)) values.
        let scale = (seq * hid) as f64;
        assert!((lhs - rhs).abs() <= 1e-5 * scale, "{seq}x{hid}: {lhs} vs {rhs}");
    }
}

#[test]
fn fourier_mix_is_bit_identical_at_every_thread_count_and_backend() {
    let mut rng = StdRng::seed_from_u64(9);
    // Below and past the fan-out grain, square and not, padded and not.
    for (seq, hid) in [(2, 2), (8, 64), (128, 64), (1024, 128), (128, 1024), (600, 100), (3, 5)] {
        let x = Tensor::from_vec(random_vec(seq * hid, &mut rng), &[seq, hid]).unwrap();
        assert_same_bits_in_every_configuration("fourier_mix", || fourier_mix(&x).into_vec());
    }
}
