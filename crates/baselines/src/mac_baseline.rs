//! The baseline MAC-array accelerator of Section VI-D.
//!
//! The design is a conventional systolic/MAC accelerator: multiplier arrays
//! followed by adder trees, with fine-grained intra- and inter-layer
//! pipelining and load-balanced parallelism allocation. It executes dense
//! linear layers and the attention core at high utilisation, but:
//!
//! * Fourier layers are implemented as dense DFT matrix multiplications
//!   (the baseline has no FFT datapath), and
//! * butterfly linear layers run at low PE utilisation because their strided,
//!   stage-dependent access pattern does not map onto the MAC arrays.
//!
//! Both effects are exactly why Fig. 19's "FABNet on baseline" bar improves
//! over "BERT on baseline" only modestly, while the butterfly accelerator
//! unlocks the full reduction.

use fab_accel::workload::{LayerOp, LayerSchedule};

/// The baseline accelerator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MacBaseline {
    /// Total number of multipliers.
    pub multipliers: usize,
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
    /// Off-chip bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Numeric precision in bytes.
    pub precision_bytes: usize,
    /// PE utilisation on dense GEMM / attention workloads.
    pub dense_utilization: f64,
    /// PE utilisation on butterfly-sparse workloads.
    pub butterfly_utilization: f64,
}

impl MacBaseline {
    /// The Section VI-D reference design: 2048 multipliers on a VCU128 with
    /// HBM, clocked at 200 MHz.
    pub fn vcu128_2048() -> Self {
        Self {
            multipliers: 2048,
            clock_mhz: 200.0,
            bandwidth_gbps: 450.0,
            precision_bytes: 2,
            dense_utilization: 0.85,
            butterfly_utilization: 0.25,
        }
    }

    /// Bytes transferable per cycle.
    fn bytes_per_cycle(&self) -> f64 {
        self.bandwidth_gbps * 1e9 / (self.clock_mhz * 1e6)
    }

    /// MAC count and utilisation of one op on this design.
    fn macs_and_utilization(&self, op: &LayerOp) -> (u64, f64) {
        match *op {
            LayerOp::DenseLinear { rows, d_in, d_out } => {
                ((rows * d_in * d_out) as u64, self.dense_utilization)
            }
            LayerOp::AttentionCore { seq, hidden, .. } => {
                (2 * (seq * seq * hidden) as u64, self.dense_utilization)
            }
            // Dense DFT matmuls along both dimensions.
            LayerOp::Fft2d { seq, hidden } => {
                ((seq * hidden * hidden + hidden * seq * seq) as u64, self.dense_utilization)
            }
            // The butterfly factors are executed stage by stage; the MAC
            // arrays cannot keep their pipelines full on the strided accesses.
            LayerOp::ButterflyLinear { rows, n } => {
                let stages = (n as f64).log2().ceil() as u64;
                (rows as u64 * stages * 2 * n as u64, self.butterfly_utilization)
            }
            LayerOp::PostProcess { rows, hidden } => ((rows * hidden) as u64, 1.0),
        }
    }

    /// Simulates one forward pass of `schedule` on the baseline design.
    pub fn simulate(&self, schedule: &LayerSchedule) -> BaselineReport {
        let mut total_cycles = 0u64;
        for op in schedule.ops() {
            let (macs, util) = self.macs_and_utilization(op);
            let effective = (self.multipliers as f64 * util).max(1.0);
            let compute = (macs as f64 / effective).ceil() as u64;
            let bytes = op.bytes_in(self.precision_bytes) + op.bytes_out(self.precision_bytes);
            let memory = (bytes as f64 / self.bytes_per_cycle()).ceil() as u64;
            total_cycles += compute.max(memory);
        }
        BaselineReport { clock_mhz: self.clock_mhz, total_cycles }
    }
}

impl Default for MacBaseline {
    fn default() -> Self {
        Self::vcu128_2048()
    }
}

/// Latency report of the baseline accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineReport {
    /// Clock frequency of the design (MHz).
    pub clock_mhz: f64,
    /// Total cycles for one forward pass.
    pub total_cycles: u64,
}

impl BaselineReport {
    /// Latency in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_cycles as f64 / (self.clock_mhz * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_nn::{ModelConfig, ModelKind};

    fn schedule(kind: ModelKind, seq: usize) -> LayerSchedule {
        let config = match kind {
            ModelKind::Transformer => ModelConfig::bert_base(),
            _ => ModelConfig::fabnet_base(),
        };
        LayerSchedule::from_model(&config, kind, seq)
    }

    #[test]
    fn fabnet_on_baseline_beats_bert_on_baseline_modestly() {
        // Fig. 19: the algorithm alone gives 1.6-2.3x on the baseline hardware.
        let baseline = MacBaseline::vcu128_2048();
        for seq in [128usize, 256, 512, 1024] {
            let bert = baseline.simulate(&schedule(ModelKind::Transformer, seq));
            let fabnet = baseline.simulate(&schedule(ModelKind::FabNet, seq));
            let speedup = bert.total_seconds() / fabnet.total_seconds();
            assert!(speedup > 1.2 && speedup < 4.0, "seq {seq}: algorithm speedup {speedup}");
        }
    }

    #[test]
    fn butterfly_accelerator_beats_baseline_by_an_order_of_magnitude() {
        // Fig. 19: the hardware contributes a further 19.5-53.3x.
        use fab_accel::{AcceleratorConfig, Simulator};
        let baseline = MacBaseline::vcu128_2048();
        let butterfly = Simulator::new(AcceleratorConfig::vcu128_be120());
        for seq in [128usize, 1024] {
            let sched = schedule(ModelKind::FabNet, seq);
            let base = baseline.simulate(&sched);
            let accel = butterfly.simulate(&sched);
            let speedup = base.total_seconds() / accel.total_seconds();
            assert!(speedup > 5.0, "seq {seq}: hardware speedup {speedup}");
        }
    }

    #[test]
    fn latency_scales_with_multiplier_budget() {
        let sched = schedule(ModelKind::Transformer, 512);
        let small = MacBaseline { multipliers: 512, ..MacBaseline::vcu128_2048() }.simulate(&sched);
        let big = MacBaseline::vcu128_2048().simulate(&sched);
        assert!(small.total_cycles > 2 * big.total_cycles);
    }
}
