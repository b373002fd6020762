//! The cycle-level latency model of the adaptable butterfly accelerator.
//!
//! The model walks a [`LayerSchedule`] and, for every operation, derives
//! compute cycles from the configured parallelism (`P_be`, `P_bu`, `P_head`,
//! `P_qk`, `P_sv`) and off-chip transfer cycles from the provisioned
//! bandwidth, then combines them according to the double-buffering overlap
//! strategies of Section V-A (Fig. 13) and the fine-grained BP↔AP pipelining
//! of Section V-B (Fig. 14).

use crate::config::AcceleratorConfig;
use crate::engine::{AttentionEngineModel, ButterflyEngineModel};
use crate::workload::{LayerOp, LayerSchedule};

/// Timing of a single scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTiming {
    /// The operation.
    pub op: LayerOp,
    /// Cycles the compute engines are busy.
    pub compute_cycles: u64,
    /// Cycles the off-chip interface is busy (input + output transfers).
    pub memory_cycles: u64,
    /// Cycles charged to the operation after overlap.
    pub latency_cycles: u64,
}

impl LayerTiming {
    /// Whether the operation is limited by off-chip bandwidth rather than compute.
    pub fn is_memory_bound(&self) -> bool {
        self.memory_cycles > self.compute_cycles
    }
}

/// End-to-end latency report for one model forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// Clock frequency the cycle counts are referenced to (MHz).
    pub clock_mhz: f64,
    /// Per-operation timings in schedule order.
    pub timings: Vec<LayerTiming>,
    /// Total cycles of the forward pass.
    pub total_cycles: u64,
    /// Cycles spent in operations mapped to the Butterfly Processor.
    pub butterfly_cycles: u64,
    /// Cycles spent in operations mapped to the Attention Processor.
    pub attention_cycles: u64,
    /// Cycles spent in post-processing (layer norm, shortcut).
    pub postprocess_cycles: u64,
    /// Cycles saved by the fine-grained BP↔AP pipelining.
    pub pipeline_savings_cycles: u64,
    /// Total operation count of the workload.
    pub total_flops: u64,
}

impl LatencyReport {
    /// Total latency in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_cycles as f64 / (self.clock_mhz * 1e6)
    }

    /// Total latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_seconds() * 1e3
    }

    /// Achieved throughput in GOP/s.
    pub fn achieved_gops(&self) -> f64 {
        self.total_flops as f64 / self.total_seconds() / 1e9
    }

    /// Predictions per second for this workload.
    pub fn throughput_pred_per_sec(&self) -> f64 {
        1.0 / self.total_seconds()
    }

    /// Fraction of operations that are bandwidth-limited.
    pub fn memory_bound_fraction(&self) -> f64 {
        if self.timings.is_empty() {
            return 0.0;
        }
        self.timings.iter().filter(|t| t.is_memory_bound()).count() as f64
            / self.timings.len() as f64
    }
}

/// The accelerator latency simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: AcceleratorConfig,
}

impl Simulator {
    /// Creates a simulator for a hardware configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`AcceleratorConfig::validate`].
    pub fn new(config: AcceleratorConfig) -> Self {
        config.validate().expect("invalid accelerator configuration");
        Self { config }
    }

    /// The hardware configuration being simulated.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Simulates one forward pass of `schedule`.
    ///
    /// # Panics
    ///
    /// Panics when the schedule contains attention layers but the design has
    /// no QK/SV units (`supports_attention()` is false). Use
    /// [`AcceleratorConfig::with_attention_units`] for ABfly workloads.
    pub fn simulate(&self, schedule: &LayerSchedule) -> LatencyReport {
        assert!(
            !schedule.needs_attention() || self.config.supports_attention(),
            "schedule needs the Attention Processor but the design has no QK/SV units"
        );
        let be = ButterflyEngineModel::new(self.config.num_bu);
        let ae = AttentionEngineModel::new(self.config.pqk, self.config.psv);
        let bytes_per_cycle = self.config.bytes_per_cycle();
        let precision = self.config.precision_bytes;

        let mut timings = Vec::new();
        let mut total_cycles = 0u64;
        let mut butterfly_cycles = 0u64;
        let mut attention_cycles = 0u64;
        let mut postprocess_cycles = 0u64;
        let mut pipeline_savings = 0u64;

        for block in &schedule.blocks {
            let mut block_cycles = 0u64;
            // Latency of the projection op immediately preceding the attention
            // core; used to compute the BP↔AP overlap.
            let mut prev_projection_cycles = 0u64;
            for op in &block.ops {
                let (compute, seq_rows) = self.compute_cycles(&be, &ae, op);
                let mem_in = (op.bytes_in(precision) as f64 / bytes_per_cycle).ceil() as u64;
                let mem_out = (op.bytes_out(precision) as f64 / bytes_per_cycle).ceil() as u64;
                let latency = match op {
                    // Butterfly linear transform: ping-pong banks let input,
                    // compute and output all overlap (Fig. 13a).
                    LayerOp::ButterflyLinear { n, .. } => {
                        let fill = (*n as f64).log2().ceil() as u64 + 16;
                        compute.max(mem_in).max(mem_out) + fill
                    }
                    // FFT: real+imaginary parts occupy both ping-pong banks, so
                    // only the output store overlaps with the next input load
                    // (Fig. 13b).
                    LayerOp::Fft2d { .. } => compute.max(mem_in + mem_out) + 16,
                    // Dense layers are not native to the butterfly engine; they
                    // run as MAC operations over the BP multipliers (used only
                    // when simulating non-FABNet models for reference).
                    LayerOp::DenseLinear { .. } => compute.max(mem_in).max(mem_out) + 16,
                    LayerOp::AttentionCore { seq, .. } => {
                        let qk = ae.qk_cycles(*seq, schedule.hidden)
                            / self.config.num_heads_units.max(1) as u64;
                        let sv = ae.sv_cycles(*seq, schedule.hidden)
                            / self.config.num_heads_units.max(1) as u64;
                        let naive = qk + sv;
                        if self.config.fine_grained_pipelining {
                            // Section V-B: Q·K^T overlaps with the Q projection
                            // still running on the BP, and S·V overlaps with
                            // Q·K^T row by row. The reduction is
                            // (M-1)/M · T_QK + (L-1)/L · T_SV, bounded by the
                            // work actually available to overlap with.
                            let rows = *seq as u64;
                            let qk_overlap =
                                (qk * (rows - 1) / rows.max(1)).min(prev_projection_cycles);
                            let sv_overlap = (sv * (rows - 1) / rows.max(1)).min(qk);
                            let saved = qk_overlap + sv_overlap;
                            pipeline_savings += saved;
                            (naive - saved).max(mem_in).max(mem_out)
                        } else {
                            naive.max(mem_in).max(mem_out)
                        }
                    }
                    // Layer norm and shortcut run on the post-processing unit,
                    // streaming over the data once.
                    LayerOp::PostProcess { .. } => compute.max(mem_in).max(mem_out),
                };
                let _ = seq_rows;
                if let LayerOp::ButterflyLinear { .. } = op {
                    prev_projection_cycles = latency;
                }
                match op {
                    LayerOp::ButterflyLinear { .. }
                    | LayerOp::Fft2d { .. }
                    | LayerOp::DenseLinear { .. } => butterfly_cycles += latency,
                    LayerOp::AttentionCore { .. } => attention_cycles += latency,
                    LayerOp::PostProcess { .. } => postprocess_cycles += latency,
                }
                timings.push(LayerTiming {
                    op: *op,
                    compute_cycles: compute,
                    memory_cycles: mem_in + mem_out,
                    latency_cycles: latency,
                });
                block_cycles += latency;
            }
            total_cycles += block_cycles;
        }

        LatencyReport {
            clock_mhz: self.config.clock_mhz,
            timings,
            total_cycles,
            butterfly_cycles,
            attention_cycles,
            postprocess_cycles,
            pipeline_savings_cycles: pipeline_savings,
            total_flops: schedule.total_flops(),
        }
    }

    /// Raw compute cycles of one op, before any memory overlap.
    fn compute_cycles(
        &self,
        be: &ButterflyEngineModel,
        ae: &AttentionEngineModel,
        op: &LayerOp,
    ) -> (u64, usize) {
        let num_be = self.config.num_be as u64;
        match *op {
            LayerOp::ButterflyLinear { rows, n } => (be.cycles(rows, n).div_ceil(num_be), rows),
            LayerOp::Fft2d { seq, hidden } => {
                // One FFT along the hidden dimension per row plus one along the
                // sequence dimension per column; each BU completes one complex
                // butterfly per cycle.
                let row_ffts = be.cycles(seq, hidden);
                let col_ffts = be.cycles(hidden, seq);
                ((row_ffts + col_ffts).div_ceil(num_be), seq)
            }
            LayerOp::DenseLinear { rows, d_in, d_out } => {
                let macs = rows as u64 * d_in as u64 * d_out as u64;
                // Dense GEMM keeps only half of the butterfly datapath busy.
                let effective = (self.config.num_multipliers() as u64 / 2).max(1);
                (macs.div_ceil(effective), rows)
            }
            LayerOp::AttentionCore { seq, hidden, .. } => {
                let heads_units = self.config.num_heads_units.max(1) as u64;
                let qk = ae.qk_cycles(seq, hidden) / heads_units;
                let sv = ae.sv_cycles(seq, hidden) / heads_units;
                (qk.saturating_add(sv), seq)
            }
            LayerOp::PostProcess { rows, hidden } => {
                // The post-processing unit normalises `P_head`-independent lanes;
                // model a fixed 64-lane streaming engine.
                (((rows * hidden) as u64).div_ceil(64), rows)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_nn::{ModelConfig, ModelKind};

    fn fabnet_schedule(seq: usize) -> LayerSchedule {
        LayerSchedule::from_model(&ModelConfig::fabnet_base(), ModelKind::FabNet, seq)
    }

    #[test]
    fn latency_is_positive_and_scales_with_sequence_length() {
        let sim = Simulator::new(AcceleratorConfig::vcu128_be120());
        let short = sim.simulate(&fabnet_schedule(128));
        let long = sim.simulate(&fabnet_schedule(1024));
        assert!(short.total_seconds() > 0.0);
        assert!(long.total_cycles > 4 * short.total_cycles);
    }

    #[test]
    fn more_butterfly_engines_reduce_latency() {
        let schedule = fabnet_schedule(1024);
        let small =
            Simulator::new(AcceleratorConfig::vcu128_be120().with_bes(16)).simulate(&schedule);
        let big =
            Simulator::new(AcceleratorConfig::vcu128_be120().with_bes(128)).simulate(&schedule);
        assert!(small.total_cycles > big.total_cycles);
    }

    #[test]
    fn latency_saturates_with_bandwidth() {
        // Fig. 21: beyond some bandwidth the design becomes compute-bound and
        // extra bandwidth no longer helps.
        let schedule = fabnet_schedule(1024);
        let base = AcceleratorConfig::vcu128_be120().with_bes(16);
        let starved = Simulator::new(base.clone().with_bandwidth(6.0)).simulate(&schedule);
        let medium = Simulator::new(base.clone().with_bandwidth(50.0)).simulate(&schedule);
        let plenty = Simulator::new(base.clone().with_bandwidth(200.0)).simulate(&schedule);
        assert!(starved.total_cycles > medium.total_cycles);
        let gain = medium.total_cycles as f64 / plenty.total_cycles as f64;
        assert!(gain < 1.1, "16 BEs should be compute-bound beyond 50 GB/s, gain {gain}");
    }

    #[test]
    fn large_designs_need_more_bandwidth_to_saturate() {
        let schedule = fabnet_schedule(1024);
        let big = AcceleratorConfig::vcu128_be120().with_bes(128);
        let at50 = Simulator::new(big.clone().with_bandwidth(50.0)).simulate(&schedule);
        let at100 = Simulator::new(big.clone().with_bandwidth(100.0)).simulate(&schedule);
        assert!(
            at50.total_cycles as f64 > 1.02 * at100.total_cycles as f64,
            "a 128-BE design should still benefit from 50 -> 100 GB/s: {} vs {}",
            at50.total_cycles,
            at100.total_cycles
        );
    }

    #[test]
    fn fine_grained_pipelining_helps_abfly_workloads() {
        let config = ModelConfig::fabnet_base().with_abfly(4);
        let schedule = LayerSchedule::from_model(&config, ModelKind::FabNet, 256);
        let hw = AcceleratorConfig::vcu128_be120().with_attention_units(8, 16, 16);
        let piped = Simulator::new(hw.clone()).simulate(&schedule);
        let naive = Simulator::new(hw.without_fine_grained_pipelining()).simulate(&schedule);
        assert!(piped.total_cycles < naive.total_cycles);
        assert!(piped.pipeline_savings_cycles > 0);
    }

    #[test]
    #[should_panic(expected = "Attention Processor")]
    fn attention_workload_requires_attention_units() {
        let config = ModelConfig::fabnet_base().with_abfly(1);
        let schedule = LayerSchedule::from_model(&config, ModelKind::FabNet, 128);
        let sim = Simulator::new(AcceleratorConfig::vcu128_fabnet());
        let _ = sim.simulate(&schedule);
    }

    #[test]
    fn report_aggregates_are_consistent() {
        let sim = Simulator::new(AcceleratorConfig::vcu128_be40());
        let report = sim.simulate(&fabnet_schedule(256));
        let summed: u64 = report.timings.iter().map(|t| t.latency_cycles).sum();
        assert_eq!(summed, report.total_cycles);
        assert_eq!(
            report.butterfly_cycles + report.attention_cycles + report.postprocess_cycles,
            report.total_cycles
        );
        assert!(report.achieved_gops() > 0.0);
        // A linear butterfly performs 6 ops (4 mul + 2 add) and an FFT
        // butterfly 10 ops on 4 multipliers, so the achieved GOPs can exceed
        // the multiplier-count "peak" by up to 2.5x; anything above that would
        // indicate double-counted work.
        assert!(report.achieved_gops() <= sim.config().peak_gops() * 2.6);
    }
}
