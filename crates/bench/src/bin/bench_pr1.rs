//! PR-1 kernel throughput harness: measures the seed's serial kernels against
//! the blocked/parallel compute core and writes `BENCH_PR1.json`.
//!
//! "Before" numbers re-implement the seed algorithms verbatim (naive
//! triple-loop matmul via `Tensor::matmul_reference`, per-row butterfly
//! forward with gather/scatter, per-call-twiddle FFT with strided column
//! walks); "after" numbers run the shipped kernels. Run with:
//!
//! ```text
//! cargo run --release -p fab-bench --bin bench_pr1
//! ```

use fab_butterfly::fft::fft2_real;
use fab_butterfly::{ButterflyMatrix, Complex};
use fab_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One before/after measurement.
struct Row {
    name: &'static str,
    before_ms: f64,
    after_ms: f64,
    check: f32,
}

fn main() {
    let mut rng = StdRng::seed_from_u64(20220701);
    let rows = vec![
        bench_matmul(&mut rng, 512),
        bench_matmul(&mut rng, 1024),
        bench_butterfly_forward(&mut rng, 256, 512),
        bench_butterfly_backward(&mut rng, 256, 512),
        bench_fft2(&mut rng, 256, 256),
    ];

    let threads = rayon::current_num_threads();
    println!("\nPR-1 kernel throughput (worker threads: {threads})");
    println!("{:<34} {:>12} {:>12} {:>9}  max|Δ|", "kernel", "before(ms)", "after(ms)", "speedup");
    for r in &rows {
        println!(
            "{:<34} {:>12.3} {:>12.3} {:>8.2}x  {:.2e}",
            r.name,
            r.before_ms,
            r.after_ms,
            r.before_ms / r.after_ms,
            r.check
        );
    }

    let mut json = String::from("{\n");
    json.push_str("  \"pr\": 1,\n");
    json.push_str(&format!("  \"worker_threads\": {threads},\n"));
    json.push_str("  \"benches\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"before_ms\": {:.4}, \"after_ms\": {:.4}, \"speedup\": {:.3}, \"max_abs_diff\": {:.3e}}}{}\n",
            r.name,
            r.before_ms,
            r.after_ms,
            r.before_ms / r.after_ms,
            r.check,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_PR1.json", &json).expect("write BENCH_PR1.json");
    println!("\nwrote BENCH_PR1.json");
}

/// Best-of-3 wall time of `f` in milliseconds.
fn time_ms<O>(mut f: impl FnMut() -> O) -> (f64, O) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let o = std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(o);
    }
    (best, out.expect("at least one timed run"))
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

fn random_tensor(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let volume: usize = shape.iter().product();
    Tensor::from_vec((0..volume).map(|_| rng.gen_range(-1.0f32..1.0)).collect(), shape)
        .expect("random tensor shape")
}

fn bench_matmul(rng: &mut StdRng, n: usize) -> Row {
    let a = random_tensor(rng, &[n, n]);
    let b = random_tensor(rng, &[n, n]);
    let (before_ms, reference) = time_ms(|| a.matmul_reference(&b));
    let (after_ms, blocked) = time_ms(|| a.matmul(&b));
    Row {
        name: if n == 512 { "matmul_512x512" } else { "matmul_1024x1024" },
        before_ms,
        after_ms,
        check: max_abs_diff(reference.as_slice(), blocked.as_slice()),
    }
}

/// The seed's `forward_rows`: per-row gather, per-row `forward` allocation,
/// per-element scatter.
fn seed_forward_rows(bfly: &ButterflyMatrix, x: &Tensor) -> Tensor {
    let (rows, n) = (x.rows(), x.cols());
    let mut out = Tensor::zeros(&[rows, n]);
    for r in 0..rows {
        let row: Vec<f32> = (0..n).map(|c| x.at(r, c)).collect();
        let y = bfly.forward(&row);
        for (c, v) in y.into_iter().enumerate() {
            out.set(r, c, v);
        }
    }
    out
}

fn bench_butterfly_forward(rng: &mut StdRng, rows: usize, n: usize) -> Row {
    let bfly = ButterflyMatrix::random(n, rng).expect("butterfly size");
    let x = random_tensor(rng, &[rows, n]);
    let (before_ms, before) = time_ms(|| seed_forward_rows(&bfly, &x));
    let (after_ms, after) = time_ms(|| bfly.forward_rows(&x));
    Row {
        name: "butterfly_forward_rows_256x512",
        before_ms,
        after_ms,
        check: max_abs_diff(before.as_slice(), after.as_slice()),
    }
}

fn bench_butterfly_backward(rng: &mut StdRng, rows: usize, n: usize) -> Row {
    let bfly = ButterflyMatrix::random(n, rng).expect("butterfly size");
    let x = random_tensor(rng, &[rows, n]);
    let g = random_tensor(rng, &[rows, n]);
    // The seed's shape of the work: one `backward` call per row (since PR 15
    // a one-row tile of the lane kernel, so the ratio below is batching
    // alone) plus a full-tensor add per row for the weight grads.
    let (before_ms, before) = time_ms(|| {
        let mut grad_x = Tensor::zeros(&[rows, n]);
        let mut grad_w = Tensor::zeros(&[bfly.num_stages(), 2 * n]);
        for r in 0..rows {
            let row: Vec<f32> = (0..n).map(|c| x.at(r, c)).collect();
            let grow: Vec<f32> = (0..n).map(|c| g.at(r, c)).collect();
            let (gx, gw) = bfly.backward(&row, &grow);
            for (c, v) in gx.into_iter().enumerate() {
                grad_x.set(r, c, v);
            }
            grad_w = grad_w.add(&gw);
        }
        (grad_x, grad_w)
    });
    let (after_ms, after) = time_ms(|| bfly.backward_rows(&x, &g));
    let check = max_abs_diff(before.0.as_slice(), after.0.as_slice())
        .max(max_abs_diff(before.1.as_slice(), after.1.as_slice()));
    Row { name: "butterfly_backward_rows_256x512", before_ms, after_ms, check }
}

/// The seed's `fft2_real`: per-call bit-reverse + per-(block,k) `from_polar`
/// twiddles, and a strided gather/scatter column pass.
fn seed_fft2_real(x: &[f32], seq: usize, hidden: usize) -> Vec<f32> {
    fn seed_fft_in_place(data: &mut [Complex]) {
        let n = data.len();
        let perm = fab_butterfly::fft::bit_reverse_permutation(n);
        for (i, &j) in perm.iter().enumerate() {
            if j > i {
                data.swap(i, j);
            }
        }
        let mut half = 1usize;
        while half < n {
            let step = -std::f32::consts::PI / half as f32;
            for block in (0..n).step_by(2 * half) {
                for k in 0..half {
                    let w = Complex::from_polar(step * k as f32);
                    let a = data[block + k];
                    let b = data[block + k + half] * w;
                    data[block + k] = a + b;
                    data[block + k + half] = a - b;
                }
            }
            half *= 2;
        }
    }
    let mut grid: Vec<Complex> = x.iter().map(|&v| Complex::from(v)).collect();
    for r in 0..seq {
        seed_fft_in_place(&mut grid[r * hidden..(r + 1) * hidden]);
    }
    let mut col = vec![Complex::zero(); seq];
    for c in 0..hidden {
        for r in 0..seq {
            col[r] = grid[r * hidden + c];
        }
        seed_fft_in_place(&mut col);
        for r in 0..seq {
            grid[r * hidden + c] = col[r];
        }
    }
    grid.iter().map(|v| v.re).collect()
}

fn bench_fft2(rng: &mut StdRng, seq: usize, hidden: usize) -> Row {
    let x: Vec<f32> = (0..seq * hidden).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let (before_ms, before) = time_ms(|| seed_fft2_real(&x, seq, hidden));
    let (after_ms, after) = time_ms(|| fft2_real(&x, seq, hidden));
    Row { name: "fft2_real_256x256", before_ms, after_ms, check: max_abs_diff(&before, &after) }
}
