//! Functional (bit-level dataflow) model of the Butterfly Engine.
//!
//! The paper cross-validates its RTL against PyTorch ground truth
//! (Appendix C); this module plays the same role for the simulator: it
//! executes butterfly linear transforms and FFTs through the *adaptable
//! Butterfly Unit* datapath and the banked butterfly memory access order, and
//! the test suite checks the results against the `fab-butterfly` reference
//! kernels and, transitively, against the `fab-nn` model layers.

use crate::engine::AdaptableButterflyUnit;
use crate::memory::{stage_pairs, Layout, TransformAccessReport};
use fab_butterfly::fft::bit_reverse_permutation;
use fab_butterfly::{ButterflyMatrix, Complex};
use fab_tensor::Tensor;

/// Executes a butterfly linear transform on one vector through the BU
/// datapath, visiting operands in the banked-memory pair order.
///
/// # Panics
///
/// Panics when `x.len()` does not match the butterfly size.
pub(crate) fn execute_butterfly_linear(matrix: &ButterflyMatrix, x: &[f32]) -> Vec<f32> {
    assert_eq!(x.len(), matrix.size(), "input length must match the butterfly size");
    let bu = AdaptableButterflyUnit::new();
    let mut data = x.to_vec();
    for (stage_idx, stage) in matrix.stages().enumerate() {
        let pairs = stage_pairs(matrix.size(), stage_idx);
        let snapshot = data.clone();
        for (p, &(i1, i2)) in pairs.iter().enumerate() {
            let (o1, o2) = bu.linear(snapshot[i1], snapshot[i2], stage.weights(p));
            data[i1] = o1;
            data[i2] = o2;
        }
    }
    data
}

/// Executes a butterfly linear transform over every row of a `[rows, n]`
/// tensor through the BU datapath.
pub fn execute_butterfly_linear_rows(matrix: &ButterflyMatrix, x: &Tensor) -> Tensor {
    let (rows, n) = (x.rows(), x.cols());
    assert_eq!(n, matrix.size(), "row width must match the butterfly size");
    let mut out = Tensor::zeros(&[rows, n]);
    for r in 0..rows {
        let row: Vec<f32> = (0..n).map(|c| x.at(r, c)).collect();
        let y = execute_butterfly_linear(matrix, &row);
        for (c, &v) in y.iter().enumerate() {
            out.set(r, c, v);
        }
    }
    out
}

/// Executes a radix-2 FFT through the BU datapath in FFT mode (complex
/// symmetric twiddles), using the same decimation-in-time schedule as the
/// reference FFT.
///
/// # Panics
///
/// Panics when the length is not a power of two.
pub fn execute_fft(x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    assert!(n.is_power_of_two() && n >= 2, "FFT size must be a power of two");
    let bu = AdaptableButterflyUnit::new();
    let perm = bit_reverse_permutation(n);
    let mut data: Vec<Complex> = (0..n).map(|i| x[perm[i]]).collect();
    let stages = (n as f64).log2() as usize;
    for s in 0..stages {
        let half = 1usize << s;
        let pairs = stage_pairs(n, s);
        let snapshot = data.clone();
        for &(i1, i2) in &pairs {
            // Twiddle index within the block: blocks start at multiples of
            // 2*half, so `i1 % half` recovers k in 0..half.
            let k = i1 % half;
            let theta = -std::f32::consts::PI * k as f32 / half as f32;
            let w = Complex::from_polar(theta);
            let (o1, o2) = bu.fft(snapshot[i1], snapshot[i2], w);
            data[i1] = o1;
            data[i2] = o2;
        }
    }
    data
}

/// Result of the functional cross-validation of one transform.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossValidation {
    /// Maximum absolute difference between the functional model and the reference.
    pub max_abs_error: f32,
    /// Whether the banked memory access of every stage was conflict-free.
    pub memory_conflict_free: bool,
}

impl CrossValidation {
    /// Whether the functional model matches the reference within `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_error <= tol && self.memory_conflict_free
    }
}

/// Cross-validates the functional butterfly-linear path against the
/// `fab-butterfly` reference for a given transform and input, also checking
/// that the banked butterfly memory serves every stage without conflicts.
pub fn cross_validate_butterfly(
    matrix: &ButterflyMatrix,
    x: &[f32],
    banks: usize,
) -> CrossValidation {
    let functional = execute_butterfly_linear(matrix, x);
    let reference = matrix.forward(x);
    let max_abs_error =
        functional.iter().zip(reference.iter()).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
    let memory = TransformAccessReport::analyze(Layout::Butterfly, matrix.size(), banks);
    CrossValidation { max_abs_error, memory_conflict_free: memory.is_conflict_free() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_butterfly::fft::fft;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn butterfly_linear_matches_reference_kernel() {
        let mut rng = StdRng::seed_from_u64(21);
        for &n in &[8usize, 32, 128] {
            let matrix = ButterflyMatrix::random(n, &mut rng).unwrap();
            let x: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let cv = cross_validate_butterfly(&matrix, &x, 8.min(n));
            assert!(cv.passes(1e-4), "n={n}: max error {}", cv.max_abs_error);
        }
    }

    #[test]
    fn butterfly_rows_match_reference_rows() {
        let mut rng = StdRng::seed_from_u64(5);
        let matrix = ButterflyMatrix::random(16, &mut rng).unwrap();
        let x = fab_tensor::uniform(&mut rng, &[4, 16], -1.0, 1.0);
        let functional = execute_butterfly_linear_rows(&matrix, &x);
        let reference = matrix.forward_rows(&x);
        assert!(functional.allclose(&reference, 1e-4));
    }

    #[test]
    fn fft_mode_matches_reference_fft() {
        let mut rng = StdRng::seed_from_u64(33);
        for &n in &[8usize, 64, 256] {
            let x: Vec<Complex> = (0..n)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let functional = execute_fft(&x);
            let reference = fft(&x);
            let max_err = functional
                .iter()
                .zip(reference.iter())
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_err < 1e-2, "n={n}: max error {max_err}");
        }
    }

    #[test]
    fn identity_butterfly_is_a_passthrough_on_the_datapath() {
        let matrix = ButterflyMatrix::identity(64);
        let x: Vec<f32> = (0..64).map(|i| i as f32 * 0.1).collect();
        assert_eq!(execute_butterfly_linear(&matrix, &x), x);
    }
}
