//! Functional and cycle models of the adaptable Butterfly Unit, the Butterfly
//! Engine and the Attention Engine (Fig. 6 and Fig. 7 of the paper).

use fab_butterfly::Complex;

/// The two runtime configurations of an adaptable Butterfly Unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ButterflyUnitMode {
    /// FFT mode: complex symmetric twiddle, one complex multiply per butterfly.
    Fft,
    /// Butterfly linear transform mode: four independent real twiddles.
    Linear,
}

/// Functional model of one adaptable Butterfly Unit (Fig. 7a).
///
/// The unit owns four real multipliers, two real adders/subtractors and two
/// complex adders/subtractors; multiplexers select which operands reach the
/// multipliers so the same datapath serves both modes.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptableButterflyUnit;

impl AdaptableButterflyUnit {
    /// Creates a butterfly unit model.
    pub fn new() -> Self {
        Self
    }

    /// Number of real-valued multipliers in the unit (fixed by the design).
    pub const MULTIPLIERS: usize = 4;

    /// Executes one butterfly in linear-transform mode (Fig. 7b):
    ///
    /// ```text
    /// out1 = w1·in1 + w2·in2
    /// out2 = w3·in1 + w4·in2
    /// ```
    ///
    /// consuming exactly the unit's four multipliers and two real adders.
    pub fn linear(&self, in1: f32, in2: f32, w: (f32, f32, f32, f32)) -> (f32, f32) {
        let (w1, w2, w3, w4) = w;
        // Four real multiplies.
        let m1 = w1 * in1;
        let m2 = w2 * in2;
        let m3 = w3 * in1;
        let m4 = w4 * in2;
        // Two real adds; the complex adders are bypassed by the de-multiplexers.
        (m1 + m2, m3 + m4)
    }

    /// Executes one butterfly in FFT mode (Fig. 7c):
    ///
    /// ```text
    /// t    = w · in2          (complex multiply, reusing the 4 real multipliers)
    /// out1 = in1 + t
    /// out2 = in1 - t
    /// ```
    pub fn fft(&self, in1: Complex, in2: Complex, w: Complex) -> (Complex, Complex) {
        // The four real multipliers compute the complex product w * in2.
        let m1 = w.re * in2.re;
        let m2 = w.im * in2.im;
        let m3 = w.re * in2.im;
        let m4 = w.im * in2.re;
        // Real adders form the product; complex adders form the outputs.
        let t = Complex::new(m1 - m2, m3 + m4);
        (in1 + t, in1 - t)
    }
}

/// Cycle model of a Butterfly Engine: `num_bu` adaptable Butterfly Units fed
/// by the banked butterfly memory, processing one butterfly per unit per cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ButterflyEngineModel {
    /// Number of butterfly units in the engine (`P_BU`).
    pub num_bu: usize,
}

impl ButterflyEngineModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics when `num_bu` is zero.
    pub fn new(num_bu: usize) -> Self {
        assert!(num_bu > 0, "a butterfly engine needs at least one butterfly unit");
        Self { num_bu }
    }

    /// Cycles to run a size-`n` butterfly transform (FFT or linear) over one
    /// row: `log2(n)` stages of `n/2` butterflies each.
    pub fn cycles_per_row(&self, n: usize) -> u64 {
        let stages = (n as f64).log2().ceil() as u64;
        let butterflies = stages * (n as u64 / 2);
        butterflies.div_ceil(self.num_bu as u64)
    }

    /// Cycles to process `rows` rows of a size-`n` transform on one engine.
    pub fn cycles(&self, rows: usize, n: usize) -> u64 {
        rows as u64 * self.cycles_per_row(n)
    }
}

/// Cycle model of an Attention Engine (one QK unit + one SV unit, Fig. 6c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionEngineModel {
    /// Multipliers in the QK unit (`P_qk`).
    pub pqk: usize,
    /// Multipliers in the SV unit (`P_sv`).
    pub psv: usize,
}

impl AttentionEngineModel {
    /// Creates the model.
    pub fn new(pqk: usize, psv: usize) -> Self {
        Self { pqk, psv }
    }

    /// Cycles for the `Q·K^T` product (plus the pipelined softmax) of one
    /// attention layer on one engine.
    pub fn qk_cycles(&self, seq: usize, hidden: usize) -> u64 {
        if self.pqk == 0 {
            return u64::MAX;
        }
        let macs = seq as u64 * seq as u64 * hidden as u64;
        macs.div_ceil(self.pqk as u64)
    }

    /// Cycles for the `S·V` product of one attention layer on one engine.
    pub fn sv_cycles(&self, seq: usize, hidden: usize) -> u64 {
        if self.psv == 0 {
            return u64::MAX;
        }
        let macs = seq as u64 * seq as u64 * hidden as u64;
        macs.div_ceil(self.psv as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_butterfly::ButterflyMatrix;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn linear_mode_matches_butterfly_stage_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        let bfly = ButterflyMatrix::random(4, &mut rng).unwrap();
        let bu = AdaptableButterflyUnit::new();
        let x = [0.7f32, -1.3, 0.2, 0.9];
        let expected = bfly.forward(&x);
        // Re-execute the first stage by hand through the BU and the remaining
        // stage through the reference to make sure per-butterfly semantics match.
        let stage0 = bfly.stage(0);
        let mut after0 = x.to_vec();
        for p in 0..stage0.pairs() {
            let (i1, i2) = stage0.pair_indices(p);
            let (o1, o2) = bu.linear(x[i1], x[i2], stage0.weights(p));
            after0[i1] = o1;
            after0[i2] = o2;
        }
        let stage1 = bfly.stage(1);
        let mut after1 = after0.clone();
        for p in 0..stage1.pairs() {
            let (i1, i2) = stage1.pair_indices(p);
            let (o1, o2) = bu.linear(after0[i1], after0[i2], stage1.weights(p));
            after1[i1] = o1;
            after1[i2] = o2;
        }
        for (a, b) in after1.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn fft_mode_matches_complex_arithmetic() {
        let bu = AdaptableButterflyUnit::new();
        let a = Complex::new(0.3, -0.7);
        let b = Complex::new(1.2, 0.4);
        let w = Complex::from_polar(0.77);
        let (o1, o2) = bu.fft(a, b, w);
        let t = w * b;
        assert!((o1.re - (a + t).re).abs() < 1e-6 && (o1.im - (a + t).im).abs() < 1e-6);
        assert!((o2.re - (a - t).re).abs() < 1e-6 && (o2.im - (a - t).im).abs() < 1e-6);
    }

    #[test]
    fn butterfly_unit_has_four_multipliers() {
        assert_eq!(AdaptableButterflyUnit::MULTIPLIERS, 4);
    }

    #[test]
    fn engine_cycles_scale_with_parallelism() {
        let one = ButterflyEngineModel::new(1);
        let four = ButterflyEngineModel::new(4);
        assert_eq!(one.cycles_per_row(1024), 4 * four.cycles_per_row(1024));
        // 1024-point transform: 10 stages x 512 butterflies = 5120 butterflies.
        assert_eq!(one.cycles_per_row(1024), 5120);
    }

    #[test]
    fn attention_engine_cycle_counts() {
        let ae = AttentionEngineModel::new(8, 8);
        // seq 64, hidden 32: 64*64*32 = 131072 MACs per product.
        assert_eq!(ae.qk_cycles(64, 32), 131072 / 8);
        assert_eq!(ae.sv_cycles(64, 32), 131072 / 8);
        let disabled = AttentionEngineModel::new(0, 0);
        assert_eq!(disabled.qk_cycles(64, 32), u64::MAX);
    }
}
